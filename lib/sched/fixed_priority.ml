exception Deadline_miss of string

type job = {
  task : Task.t;
  release : int;
  mutable remaining : int;
  mutable completion : int option;
}

let responses tasks scenario =
  let horizon = Task.hyperperiod tasks in
  let job_counter = Hashtbl.create 8 in
  let jobs =
    List.map
      (fun (task, release) ->
         let index =
           match Hashtbl.find_opt job_counter task.Task.name with
           | Some n -> n
           | None -> 0
         in
         Hashtbl.replace job_counter task.Task.name (index + 1);
         let demand = Task.clamp_demand task (scenario task ~job_index:index) in
         { task; release; remaining = demand; completion = None })
      (Task.jobs_in_hyperperiod tasks)
  in
  (* Cycle-by-cycle preemptive simulation; run past the hyperperiod until
     the backlog drains. *)
  let t = ref 0 in
  let unfinished () = List.exists (fun j -> j.completion = None) jobs in
  while unfinished () && !t < 4 * horizon do
    let ready =
      List.filter (fun j -> j.release <= !t && j.completion = None) jobs
    in
    (match
       List.sort
         (fun a b ->
            Stdlib.compare
              (a.task.Task.priority, a.release) (b.task.Task.priority, b.release))
         ready
     with
     | [] -> ()
     | job :: _ ->
       job.remaining <- job.remaining - 1;
       if job.remaining = 0 then begin
         job.completion <- Some (!t + 1);
         if !t + 1 > job.release + job.task.Task.period then
           raise
             (Deadline_miss
                (Printf.sprintf "job of %S released at %d finished at %d"
                   job.task.Task.name job.release (!t + 1)))
       end);
    incr t
  done;
  if unfinished () then raise (Deadline_miss "backlog did not drain");
  List.map
    (fun task ->
       (task.Task.name,
        List.filter_map
          (fun j ->
             if j.task.Task.name = task.Task.name then
               match j.completion with
               | Some c -> Some (c - j.release)
               | None -> None
             else None)
          jobs))
    tasks
