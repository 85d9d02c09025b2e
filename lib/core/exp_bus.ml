(* EXT.BUS — "TDMA vs FCFS arbitration", the third classic predictability
   intuition in the paper's introduction, in closed loop: in-order cores
   share one memory bus, and each core's request times depend on its own
   progress through arbitration. Under a TDM bus the victim core's
   completion time is identical no matter what the other cores run; under
   FCFS (or round-robin) it depends on their memory traffic. *)

let service = 4

let core_of w =
  let program, _ = Isa.Workload.program w in
  let input =
    match w.Isa.Workload.inputs with i :: _ -> i | [] -> assert false
  in
  Pipeline.Multicore.of_outcome (Isa.Exec.run program input)

let run () =
  (* The victim must actually use the bus: max_array loads one word per
     element (crc, by contrast, is register-only and would never notice the
     arbitration). *)
  let victim = core_of (Isa.Workload.max_array ~n:8) in
  let light = core_of (Isa.Workload.clamp ()) in
  let heavy = core_of (Isa.Workload.matmul ~n:3) in
  let contexts =
    [ ("light co-runners", [ light; light; light ]);
      ("mixed co-runners", [ light; heavy; light ]);
      ("heavy co-runners", [ heavy; heavy; heavy ]) ]
  in
  let policies =
    [ Pipeline.Multicore.Bus_tdm { slot = service };
      Pipeline.Multicore.Bus_rr;
      Pipeline.Multicore.Bus_fcfs ]
  in
  let table =
    Prelude.Table.make
      ~header:
        ("bus arbitration"
         :: List.map (fun (label, _) -> "victim time (" ^ label ^ ")") contexts)
  in
  let victim_times = Hashtbl.create 8 in
  List.iter
    (fun policy ->
       let times =
         List.map
           (fun (_, others) ->
              match
                Pipeline.Multicore.run ~policy ~service (victim :: others)
              with
              | t :: _ -> t
              | [] -> assert false)
           contexts
       in
       Hashtbl.replace victim_times
         (Pipeline.Multicore.bus_policy_name policy) times;
       Prelude.Table.add_row table
         (Pipeline.Multicore.bus_policy_name policy
          :: List.map string_of_int times))
    policies;
  let spread name =
    match Hashtbl.find_opt victim_times name with
    | Some times ->
      Prelude.Stats.max_int_list times - Prelude.Stats.min_int_list times
    | None -> -1
  in
  let tdm_name =
    Pipeline.Multicore.bus_policy_name (Pipeline.Multicore.Bus_tdm { slot = service })
  in
  let fcfs_name = Pipeline.Multicore.bus_policy_name Pipeline.Multicore.Bus_fcfs in
  let tdm_min =
    match Hashtbl.find_opt victim_times tdm_name with
    | Some (t :: _) -> t
    | _ -> 0
  in
  let fcfs_min =
    match Hashtbl.find_opt victim_times fcfs_name with
    | Some times -> Prelude.Stats.min_int_list times
    | None -> max_int
  in
  { Report.title = "TDMA vs FCFS bus arbitration between cores (closed loop)";
    body = Prelude.Table.render table;
    checks =
      [ Report.check "TDM bus: victim completion independent of co-runners"
          (spread tdm_name = 0);
        Report.check "FCFS bus: victim completion depends on co-runners"
          (spread fcfs_name > 0);
        Report.check "composability costs throughput (TDM slower than best FCFS)"
          (tdm_min >= fcfs_min) ] }
