(* TAB1.R4 — CoMPSoC (Hansson et al.): TDM arbitration of the shared
   interconnect makes the platform composable — a client's transaction
   schedule is bit-identical no matter what the other applications do —
   while conventional work-conserving arbitration (FCFS, RR) only bounds or
   mixes the interference. *)

let service = 4
let clients = 4

(* The analytic per-request bounds assume at most one outstanding request
   per client, so the victim issues more slowly than a full TDM round. *)
let victim_stream =
  List.init 10 (fun i ->
      { Arbiter.Arbitration.client = 0; arrival = 3 + (i * 24); service })

let light_co_runners =
  List.concat_map
    (fun c ->
       List.init 3 (fun i ->
           { Arbiter.Arbitration.client = c; arrival = 5 + (i * 30); service }))
    [ 1; 2; 3 ]

let heavy_co_runners =
  List.concat_map
    (fun c ->
       List.init 12 (fun i ->
           { Arbiter.Arbitration.client = c; arrival = i * 5; service }))
    [ 1; 2; 3 ]

let run () =
  let policies =
    [ Arbiter.Arbitration.Tdm { slot = service };
      Arbiter.Arbitration.Round_robin;
      Arbiter.Arbitration.Fcfs ]
  in
  let table =
    Prelude.Table.make
      ~header:[ "arbitration"; "victim max latency (light)";
                "victim max latency (heavy)"; "composable?"; "analytic bound" ]
  in
  let checks = ref [] in
  List.iter
    (fun policy ->
       let link = Noc.Link.make ~policy ~clients in
       let latencies others =
         Noc.Link.client_latencies (Noc.Link.run link (victim_stream @ others))
           ~client:0
       in
       let light = latencies light_co_runners in
       let heavy = latencies heavy_co_runners in
       let composable =
         Noc.Link.composable link ~victim:victim_stream
           ~co_runners_a:light_co_runners ~co_runners_b:heavy_co_runners
       in
       let bound = Arbiter.Arbitration.latency_bound policy ~clients ~service in
       let max_light = Prelude.Stats.max_int_list light in
       let max_heavy = Prelude.Stats.max_int_list heavy in
       Prelude.Table.add_row table
         [ Arbiter.Arbitration.policy_name policy;
           string_of_int max_light; string_of_int max_heavy;
           string_of_bool composable;
           (match bound with Some b -> string_of_int b | None -> "none") ];
       let name = Arbiter.Arbitration.policy_name policy in
       (match bound with
        | Some b ->
          checks :=
            Report.check
              (Printf.sprintf "%s: observed latencies within bound %d" name b)
              (max_light <= b && max_heavy <= b)
            :: !checks
        | None -> ());
       (match policy with
        | Arbiter.Arbitration.Tdm _ ->
          checks :=
            Report.check "TDM is composable (identical victim schedule)"
              composable
            :: !checks
        | Arbiter.Arbitration.Fcfs ->
          checks :=
            Report.check
              "FCFS is not composable (victim schedule depends on co-runners)"
              (not composable)
            :: !checks
        | Arbiter.Arbitration.Round_robin | Arbiter.Arbitration.Fixed_priority
        | Arbiter.Arbitration.Ccsp _ -> ()))
    policies;
  { Report.title = "CoMPSoC: composable TDM interconnect vs work-conserving arbitration";
    body = Prelude.Table.render table;
    checks = List.rev !checks }
