(* EXT.SCHED — "static vs dynamic preemptive scheduling", the fourth classic
   predictability intuition in the paper's introduction, cast into the
   template: the property is a task's response time; the source of
   uncertainty is the execution demand of the other tasks; the quality
   measure is the response-time variability of the lowest-priority task.

   A static cyclic executive reserves fixed windows at design time, so the
   victim's response depends only on its own demand; dynamic preemptive
   fixed-priority scheduling is work-conserving and faster on average, but
   the victim's response varies with every higher-priority job's demand. *)

let task_set () =
  [ Sched.Task.make ~name:"hi" ~period:20 ~bcet:2 ~wcet:6 ~priority:0;
    Sched.Task.make ~name:"mid" ~period:40 ~bcet:4 ~wcet:10 ~priority:1;
    Sched.Task.make ~name:"victim" ~period:80 ~bcet:9 ~wcet:9 ~priority:2 ]

(* Scenarios vary only the co-runners: the victim's own demand is fixed
   (bcet = wcet = 9), so any response variation is context-induced. *)
let scenarios =
  [ ("co-runners at BCET", Sched.Task.all_bcet);
    ("co-runners at WCET", Sched.Task.all_wcet);
    ("random demands (seed 1)", Sched.Task.random_demand ~seed:1);
    ("random demands (seed 2)", Sched.Task.random_demand ~seed:2) ]

let victim_responses responses =
  match List.assoc_opt "victim" responses with
  | Some rs -> rs
  | None -> []

let run () =
  let tasks = task_set () in
  let table_sched = Sched.Cyclic.build tasks in
  let table =
    Prelude.Table.make
      ~header:[ "scenario"; "victim responses (cyclic executive)";
                "victim responses (preemptive FP)" ]
  in
  let show rs = String.concat "," (List.map string_of_int rs) in
  let cyclic_all = ref [] and fp_all = ref [] in
  List.iter
    (fun (label, scenario) ->
       let cyclic = victim_responses (Sched.Cyclic.responses table_sched scenario) in
       let fp = victim_responses (Sched.Fixed_priority.responses tasks scenario) in
       cyclic_all := cyclic :: !cyclic_all;
       fp_all := fp :: !fp_all;
       Prelude.Table.add_row table [ label; show cyclic; show fp ])
    scenarios;
  let spread runs =
    let flat = List.concat runs in
    Prelude.Stats.max_int_list flat - Prelude.Stats.min_int_list flat
  in
  let cyclic_spread = spread !cyclic_all and fp_spread = spread !fp_all in
  let fp_best =
    Prelude.Stats.min_int_list (List.concat !fp_all)
  in
  let cyclic_worst =
    Prelude.Stats.max_int_list (List.concat !cyclic_all)
  in
  let body =
    Prelude.Table.render table
    ^ Printf.sprintf
        "victim response spread across scenarios: cyclic=%d, preemptive FP=%d\n"
        cyclic_spread fp_spread
  in
  { Report.title = "Static cyclic executive vs dynamic preemptive scheduling";
    body;
    checks =
      [ Report.check
          "cyclic executive: victim response independent of co-runner demands"
          (cyclic_spread = 0);
        Report.check
          "preemptive FP: victim response varies with co-runner demands"
          (fp_spread > 0);
        Report.check
          "the dynamic scheduler is faster in the best case (the efficiency trade)"
          (fp_best < cyclic_worst) ] }
