(* TAB2.R4 — Predictable DRAM controllers: Predator (close-page + CCSP) and
   AMC (close-page + TDM) guarantee a per-client latency bound regardless of
   co-running clients, where the conventional open-page FCFS controller's
   latency depends on row states and everyone else's traffic. *)

let clients = 4
let timing = Dram.Timing.default

(* The analytic bounds assume one outstanding request per client: the
   victim's inter-arrival gap stays above every controller's bound. *)
let victim_requests =
  Dram.Traffic.random ~min_gap:150 ~client:0 ~banks:timing.Dram.Timing.banks
    ~rows:32 ~count:20 ~mean_gap:40 ~seed:0xca11

let co_runners ~intensity =
  List.concat_map
    (fun c ->
       Dram.Traffic.streaming ~client:c ~banks:timing.Dram.Timing.banks
         ~count:(16 * intensity) ~period:(24 / intensity) 0)
    [ 1; 2; 3 ]

let victim_latencies config others =
  let served = Dram.Controller.simulate config (victim_requests @ others) in
  List.filter_map
    (fun (s : Dram.Controller.served) ->
       if s.request.Dram.Controller.client = 0
       then Some (Dram.Controller.latency s)
       else None)
    served

let run () =
  let policies =
    [ Dram.Controller.Open_page_fcfs;
      Dram.Controller.Predator { burst = 2 };
      Dram.Controller.Amc ]
  in
  let table =
    Prelude.Table.make
      ~header:[ "controller"; "victim max latency (light)";
                "victim max latency (heavy)"; "bound"; "within bound?" ]
  in
  let checks = ref [] in
  List.iter
    (fun policy ->
       let config =
         { Dram.Controller.timing; policy; refresh = Dram.Controller.Distributed;
           refresh_phase = 0; clients }
       in
       let light = victim_latencies config (co_runners ~intensity:1) in
       let heavy = victim_latencies config (co_runners ~intensity:3) in
       let max_light = Prelude.Stats.max_int_list light in
       let max_heavy = Prelude.Stats.max_int_list heavy in
       let bound = Dram.Controller.latency_bound config in
       let within =
         match bound with
         | Some b -> max_light <= b && max_heavy <= b
         | None -> false
       in
       Prelude.Table.add_row table
         [ Dram.Controller.policy_name policy;
           string_of_int max_light; string_of_int max_heavy;
           (match bound with Some b -> string_of_int b | None -> "none");
           (match bound with Some _ -> string_of_bool within | None -> "-") ];
       (match policy, bound with
        | Dram.Controller.Open_page_fcfs, None ->
          checks :=
            Report.check "FCFS open-page has no context-independent bound" true
            :: !checks
        | _, Some b ->
          checks :=
            Report.check
              (Printf.sprintf "%s: observed latency within bound %d"
                 (Dram.Controller.policy_name policy) b)
              within
            :: !checks
        | _, None -> ()))
    policies;
  (* Interference sensitivity: how much the victim's worst latency moves
     between light and heavy co-runners. *)
  let sensitivity policy =
    let config =
      { Dram.Controller.timing; policy; refresh = Dram.Controller.Distributed;
        refresh_phase = 0; clients }
    in
    let l = Prelude.Stats.max_int_list (victim_latencies config (co_runners ~intensity:1)) in
    let h = Prelude.Stats.max_int_list (victim_latencies config (co_runners ~intensity:3)) in
    abs (h - l)
  in
  let fcfs_sensitivity = sensitivity Dram.Controller.Open_page_fcfs in
  let amc_sensitivity = sensitivity Dram.Controller.Amc in
  let body =
    Prelude.Table.render table
    ^ Printf.sprintf
        "co-runner sensitivity of victim worst latency: FCFS=%d cycles, AMC=%d cycles\n"
        fcfs_sensitivity amc_sensitivity
  in
  { Report.title = "Predictable DRAM controllers: Predator (CCSP) and AMC (TDM) vs FCFS";
    body;
    checks =
      List.rev
        (Report.check "AMC is less interference-sensitive than FCFS"
           (amc_sensitivity <= fcfs_sensitivity)
         :: !checks) }
