(* A fixed-size pool of worker domains fed from a mutex/condition-protected
   task queue. Pools are created per top-level call and joined before it
   returns: predictability experiments are batch jobs, so keeping idle
   domains alive between calls would only complicate process exit. *)

let process_default = Atomic.make 0 (* 0 = fall back to the runtime's advice *)

let recommended_jobs () = Stdlib.max 1 (Domain.recommended_domain_count ())

let set_default_jobs n =
  if n < 1 then invalid_arg "Parallel.set_default_jobs: jobs must be >= 1";
  Atomic.set process_default n

let default_jobs () =
  match Atomic.get process_default with
  | 0 -> recommended_jobs ()
  | n -> n

let resolve_jobs = function
  | None -> default_jobs ()
  | Some n when n < 1 -> invalid_arg "Parallel: jobs must be >= 1"
  | Some n -> n

(* True on pool worker domains. A task running on a worker already owns one
   slot of the width the caller asked for, so any Parallel call it makes
   runs sequentially in place instead of spawning a nested pool: live
   domains stay bounded by [jobs + 1] no matter how deeply the hot paths
   nest (run_supervised -> exp_atlas -> Quantify.evaluate), well clear of the
   OCaml runtime's total-domain cap, and cores are never oversubscribed. *)
let on_worker = Domain.DLS.new_key (fun () -> false)

(* --- Cooperative deadlines --------------------------------------------- *)

exception Deadline_exceeded of { elapsed_s : float; deadline_s : float }

let () =
  Printexc.register_printer (function
    | Deadline_exceeded { elapsed_s; deadline_s } ->
      Some
        (Printf.sprintf "Parallel.Deadline_exceeded(%.3fs > %.3fs)" elapsed_s
           deadline_s)
    | _ -> None)

(* (start time, budget) of the innermost deadlined task running on this
   domain, if any. Purely cooperative: OCaml domains cannot be preempted,
   so overruns are detected at checkpoints ([check_deadline], which the
   slice loops below hit between elements) and post-hoc when a task
   returns. *)
let task_deadline = Domain.DLS.new_key (fun () -> None)

let check_deadline () =
  match Domain.DLS.get task_deadline with
  | None -> ()
  | Some (started, deadline_s) ->
    let elapsed_s = Instrument.now () -. started in
    if elapsed_s > deadline_s then
      raise (Deadline_exceeded { elapsed_s; deadline_s })

let with_deadline ~deadline_s f =
  if deadline_s <= 0. then
    invalid_arg "Parallel.with_deadline: deadline must be > 0";
  let started = Instrument.now () in
  let saved = Domain.DLS.get task_deadline in
  Domain.DLS.set task_deadline (Some (started, deadline_s));
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set task_deadline saved)
    (fun () ->
       let v = f () in
       let elapsed_s = Instrument.now () -. started in
       if elapsed_s > deadline_s then
         raise (Deadline_exceeded { elapsed_s; deadline_s });
       v)

module Pool = struct
  type t = {
    mu : Mutex.t;
    work_ready : Condition.t;
    queue : (unit -> unit) Queue.t;
    mutable closed : bool;
    mutable domains : unit Domain.t list;
    (* Instrument counts accumulated by worker domains, flushed back to the
       submitting domain on [drain] so per-experiment attribution survives
       nested parallelism. *)
    worker_evals : int Atomic.t;
    worker_cells : int Atomic.t;
    worker_memo_hits : int Atomic.t;
    worker_memo_misses : int Atomic.t;
  }

  let rec work_loop t =
    Mutex.lock t.mu;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.work_ready t.mu
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.mu (* closed and drained *)
    else begin
      let task = Queue.pop t.queue in
      Mutex.unlock t.mu;
      task ();
      work_loop t
    end

  let worker t =
    Domain.DLS.set on_worker true;
    work_loop t;
    (* Worker domains start with zero counters and nothing on this domain
       ever resets them (Harness.try_timed only reads deltas), so the final
       snapshot is exactly the work this pool's tasks did here. *)
    let counts = Instrument.snapshot () in
    ignore (Atomic.fetch_and_add t.worker_evals counts.Instrument.evals);
    ignore (Atomic.fetch_and_add t.worker_cells counts.Instrument.cells);
    ignore
      (Atomic.fetch_and_add t.worker_memo_hits counts.Instrument.memo_hits);
    ignore
      (Atomic.fetch_and_add t.worker_memo_misses counts.Instrument.memo_misses)

  (* Spawn up to [size] workers. [Domain.spawn] can fail (the runtime caps
     live domains at ~128, and the "parallel.spawn" fault site simulates
     exactly that); a failure after [k] successful spawns used to leak
     those [k] domains blocked on the queue forever and poison the caller —
     now the pool simply degrades to the achieved width [k], and the
     already-spawned domains are the pool. Width 0 is a valid result; the
     callers below fall back to running inline. *)
  let create size =
    let t =
      { mu = Mutex.create (); work_ready = Condition.create ();
        queue = Queue.create (); closed = false; domains = [];
        worker_evals = Atomic.make 0; worker_cells = Atomic.make 0;
        worker_memo_hits = Atomic.make 0; worker_memo_misses = Atomic.make 0 }
    in
    (try
       for _ = 1 to size do
         Faults.point "parallel.spawn";
         t.domains <- Domain.spawn (fun () -> worker t) :: t.domains
       done
     with _ -> ());
    t

  let width t = List.length t.domains

  let submit t task =
    Mutex.lock t.mu;
    Queue.push task t.queue;
    Condition.signal t.work_ready;
    Mutex.unlock t.mu

  (* Close the queue, wait for every submitted task to finish, and credit
     the workers' instrument counts to the calling domain. *)
  let drain t =
    Mutex.lock t.mu;
    t.closed <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mu;
    List.iter Domain.join t.domains;
    Instrument.add_evals (Atomic.get t.worker_evals);
    Instrument.add_cells (Atomic.get t.worker_cells);
    Instrument.add_memo_hits (Atomic.get t.worker_memo_hits);
    Instrument.add_memo_misses (Atomic.get t.worker_memo_misses)
end

(* Tasks must never raise (a raising task would kill its worker domain and
   strand the queue), so failures are parked here and re-raised once the
   pool has drained. *)
type failure = { exn : exn; backtrace : Printexc.raw_backtrace }

exception Multiple_failures of { count : int; first : exn }

let () =
  Printexc.register_printer (function
    | Multiple_failures { count; first } ->
      Some
        (Printf.sprintf "Parallel.Multiple_failures(%d tasks; first: %s)"
           count (Printexc.to_string first))
    | _ -> None)

(* Execute [body i] for all [0 <= i < count]. Indices are grouped into
   contiguous slices (a few per worker, so cheap bodies don't pay a mutex
   round-trip per element while load imbalance still smooths out), and each
   slice becomes one pool task. Every failure that occurs is collected (new
   work stops being started after the first); a single failure re-raises
   transparently, several raise [Multiple_failures] carrying the count and
   the earliest-recorded exception. This is the only code that creates,
   feeds and drains a [Pool]: every entry point below comes through it. *)
let run_tasks ~jobs ~count body =
  if count > 0 then begin
    let sequential () =
      for i = 0 to count - 1 do
        check_deadline ();
        body i
      done
    in
    if jobs <= 1 || count = 1 || Domain.DLS.get on_worker then sequential ()
    else begin
      let slices = Stdlib.min count (jobs * 8) in
      let slice_len = (count + slices - 1) / slices in
      let pool = Pool.create (Stdlib.min jobs slices) in
      if Pool.width pool = 0 then begin
        (* Every spawn failed: degrade to the calling domain. *)
        Pool.drain pool;
        sequential ()
      end
      else begin
        let failed = Atomic.make 0 in
        let failures_mu = Mutex.create () in
        let failures = ref [] in
        let record f =
          Mutex.lock failures_mu;
          failures := f :: !failures;
          Mutex.unlock failures_mu;
          Atomic.incr failed
        in
        for s = 0 to slices - 1 do
          let lo = s * slice_len in
          let hi = Stdlib.min count (lo + slice_len) - 1 in
          if lo <= hi then
            Pool.submit pool (fun () ->
                try
                  for i = lo to hi do
                    if Atomic.get failed = 0 then body i
                  done
                with exn ->
                  record { exn; backtrace = Printexc.get_raw_backtrace () })
        done;
        Pool.drain pool;
        match List.rev !failures with
        | [] -> ()
        | [ { exn; backtrace } ] -> Printexc.raise_with_backtrace exn backtrace
        | { exn; backtrace } :: _ as all ->
          Printexc.raise_with_backtrace
            (Multiple_failures { count = List.length all; first = exn })
            backtrace
      end
    end
  end

let map_array ?jobs f xs =
  let jobs = resolve_jobs jobs in
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    run_tasks ~jobs ~count:n (fun i -> results.(i) <- Some (f xs.(i)));
    Array.map (function Some v -> v | None -> assert false) results
  end

let map ?jobs f xs = Array.to_list (map_array ?jobs f (Array.of_list xs))

(* --- Per-task isolation ------------------------------------------------- *)

type task_error = {
  index : int;
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}

(* Run one isolated task: arm the cooperative deadline for this domain,
   pass through the "parallel.task" fault site, and catch everything —
   [with_deadline] adds the post-hoc overrun check for tasks that ran past
   their budget without reaching a checkpoint. Never raises, so [map] over
   guarded tasks keeps every task's verdict and never cuts a batch short. *)
let guarded ~deadline_s f (index, x) =
  let body () =
    Faults.point "parallel.task";
    f x
  in
  match
    match deadline_s with
    | None -> body ()
    | Some deadline_s -> with_deadline ~deadline_s body
  with
  | v -> Ok v
  | exception exn ->
    Error { index; exn; backtrace = Printexc.get_raw_backtrace () }

let map_result ?jobs ?deadline_s f xs =
  (match deadline_s with
   | Some d when d <= 0. -> invalid_arg "Parallel.map_result: deadline must be > 0"
   | _ -> ());
  map ?jobs (guarded ~deadline_s f) (List.mapi (fun i x -> (i, x)) xs)

let fold ?jobs ?(chunk = 16) ~map:fm ~combine ~init items =
  let chunk = Stdlib.max 1 chunk in
  let arr = Array.of_list items in
  let n = Array.length arr in
  if n = 0 then init
  else begin
    let chunks = (n + chunk - 1) / chunk in
    let partial c =
      let lo = c * chunk in
      let hi = Stdlib.min n (lo + chunk) - 1 in
      let acc = ref (fm arr.(lo)) in
      for i = lo + 1 to hi do
        acc := combine !acc (fm arr.(i))
      done;
      !acc
    in
    let partials = map_array ?jobs partial (Array.init chunks Fun.id) in
    Array.fold_left combine init partials
  end
