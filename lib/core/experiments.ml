module Json = Prelude.Json

let all =
  [ ("FIG1", "Execution-time distribution with LB/BCET/WCET/UB", Exp_fig1.run);
    ("FIG1.SOUND", "Figure-1 soundness oracle (bounds + interval analysis)",
     Exp_fig1_sound.run);
    ("FIG1.FAST", "Fast-path equivalence oracle (exact = fast engine)",
     Exp_fig1_fast.run);
    ("DEF.SAMPLE", "Sampling oracle (seeded estimators bracket exhaustive)",
     Exp_def_sample.run);
    ("DEF.CERT", "Certifier oracle (static verdicts match executing modes)",
     Exp_def_cert.run);
    ("EQ4", "Domino effect: 9n+1 vs 12n", Exp_eq4.run);
    ("TAB1.R1", "WCET-oriented static branch prediction", Exp_branch.run);
    ("TAB1.R2", "Time-predictable superscalar mode", Exp_superscalar.run);
    ("TAB1.R3", "Time-predictable SMT", Exp_smt.run);
    ("TAB1.R4", "CoMPSoC composable interconnect", Exp_compsoc.run);
    ("TAB1.R5", "PRET thread-interleaved pipeline", Exp_pret.run);
    ("TAB1.R6", "Virtual traces", Exp_vtraces.run);
    ("TAB1.R7", "Future architectures: compositional vs conventional",
     Exp_future.run);
    ("TAB2.R1", "Method cache", Exp_method_cache.run);
    ("TAB2.R2", "Split caches", Exp_split_caches.run);
    ("TAB2.R3", "Static cache locking", Exp_cache_locking.run);
    ("TAB2.R4", "Predictable DRAM controllers", Exp_dram.run);
    ("TAB2.R5", "Predictable DRAM refreshes", Exp_refresh.run);
    ("TAB2.R6", "Single-path paradigm", Exp_singlepath.run);
    ("RW.CACHE", "Replacement-policy evict/fill metrics", Exp_cache_metrics.run);
    ("RW.DYN", "Dynamical-system predictability", Exp_dynamical.run);
    ("RW.ANOMALY", "Timing anomalies (Lundqvist-Stenstrom)", Exp_anomaly.run);
    ("ABLATE", "Design-choice ablations", Exp_ablations.run);
    ("EXT.COMP", "Compositional predictability (future work)",
     Exp_composition.run);
    ("EXT.EXTENT", "Extent-of-uncertainty refinement", Exp_extent.run);
    ("EXT.SCHED", "Static vs dynamic preemptive scheduling", Exp_sched.run);
    ("EXT.BUS", "TDMA vs FCFS bus arbitration", Exp_bus.run);
    ("EXT.BUDGET", "Analysis-complexity budgets", Exp_budget.run);
    ("EXT.PIPE", "5-stage pipelining without anomalies", Exp_pipe.run);
    ("EXT.ATLAS", "Predictability atlas over all workloads", Exp_atlas.run) ]

let ids () = List.map (fun (id, _, _) -> id) all

let unknown_id_message id =
  Printf.sprintf "unknown experiment %S; valid ids: %s" id
    (String.concat ", " (ids ()))

let lookup id =
  match List.find_opt (fun (candidate, _, _) -> candidate = id) all with
  | Some entry -> Ok entry
  | None -> Error (unknown_id_message id)

let run id =
  match lookup id with
  | Ok (_, _, runner) -> runner ()
  | Error message -> invalid_arg ("Experiments.run: " ^ message)

(* --- Fault-tolerant supervision ---------------------------------------- *)

type supervision = {
  deadline_s : float option;
  retries : int;
}

let default_supervision = { deadline_s = None; retries = 0 }

(* Bounded exponential backoff: attempt k sleeps backoff_s * 2^(k-1), never
   more than the cap — a crashing experiment must not stall the batch. *)
let backoff_s = 0.05
let backoff_cap_s = 1.0

type supervised = {
  s_id : string;
  s_title : string;
  s_status : Report.status;
  s_attempts : int;
  s_resumed : bool;
  s_outcome : Report.outcome option;
  s_timing : Report.timing;
}

let classify ~wall_s = function
  | Prelude.Parallel.Deadline_exceeded { elapsed_s; _ } ->
    Report.Timed_out { after_s = elapsed_s }
  | Prelude.Faults.Forced_timeout _ -> Report.Timed_out { after_s = wall_s }
  | exn -> Report.Crashed { error = Printexc.to_string exn }

(* The fields of one experiment record: the v2 report's record and, behind
   [journal_header], the journal line. *)
let supervised_fields s =
  let checks =
    match s.s_outcome with Some o -> o.Report.checks | None -> []
  in
  let passed = List.filter (fun c -> c.Report.passed) checks in
  [ ("id", Json.String s.s_id); ("title", Json.String s.s_title) ]
  @ Report.status_fields s.s_status
  @ [ ("attempts", Json.Int s.s_attempts);
      ("resumed", Json.Bool s.s_resumed);
      ("checks", Json.List (List.map Report.check_to_json checks));
      ("checks_passed", Json.Int (List.length passed));
      ("checks_total", Json.Int (List.length checks)) ]
  @ Report.timing_fields s.s_timing

let supervised_result_to_json s = Json.Obj (supervised_fields s)

let journal_header =
  [ ("schema", Json.String "predlab/journal"); ("version", Json.Int 2) ]

(* A journal line back to the record [--resume] reports. Only the fields a
   verdict is made of are read, so a version 1 line (no "resumed",
   "checks_passed" or "checks_total") decodes to the same record. A
   malformed check is dropped, and a missing number reads as its
   default. *)
let of_journal_line json =
  let member field conv = Option.bind (Json.member field json) conv in
  let int field default = Option.value ~default (member field Json.int_value) in
  let check c =
    match
      Option.bind (Json.member "label" c) Json.string_value,
      Option.bind (Json.member "passed" c) Json.bool_value
    with
    | Some label, Some passed -> Some (Report.check label passed)
    | _ -> None
  in
  match member "id" Json.string_value, member "title" Json.string_value with
  | None, _ -> Error "journal entry without a string \"id\""
  | _, None -> Error "journal entry without a string \"title\""
  | Some id, Some title ->
    Result.map
      (fun status ->
         let checks =
           List.filter_map check
             (Option.value ~default:[] (member "checks" Json.to_list))
         in
         { s_id = id; s_title = title; s_status = status;
           s_attempts = int "attempts" 1; s_resumed = true;
           s_outcome =
             (match status with
              | Report.Completed ->
                let body =
                  "(resumed from journal; rendered body not recorded)\n"
                in
                Some { Report.title; body; checks }
              | _ -> None);
           s_timing =
             { Report.wall_s =
                 Option.value ~default:0. (member "wall_s" Json.float_value);
               cells = int "cells" 0; evals = int "evals" 0 } })
      (Report.status_of_json json)

(* Run one experiment to a verdict: per-attempt cooperative deadline, the
   "experiment:<id>" fault-injection site, bounded-backoff retries on crash
   or overrun, and a journal line the moment the verdict is reached. Never
   raises from the runner — that is the whole point. *)
let supervise ~supervision ~writer (id, title, runner) =
  let attempt () =
    Harness.try_timed (fun () ->
        let body () =
          Prelude.Faults.point ("experiment:" ^ id);
          runner ()
        in
        match supervision.deadline_s with
        | None -> body ()
        | Some deadline_s -> Prelude.Parallel.with_deadline ~deadline_s body)
  in
  let rec go n =
    let result, timing = attempt () in
    match result with
    | Ok outcome ->
      { s_id = id; s_title = title; s_status = Report.Completed;
        s_attempts = n; s_resumed = false; s_outcome = Some outcome;
        s_timing = timing }
    | Error (exn, _backtrace) ->
      let status = classify ~wall_s:timing.Report.wall_s exn in
      if n <= supervision.retries then begin
        (* Mono.sleep, not Unix.sleepf: sleepf returns early when a signal
           interrupts it, and an under-slept backoff retries into the same
           transient fault it was waiting out. *)
        Prelude.Mono.sleep
          (Float.min backoff_cap_s
             (backoff_s *. (2. ** float_of_int (n - 1))));
        go (n + 1)
      end
      else
        { s_id = id; s_title = title; s_status = status; s_attempts = n;
          s_resumed = false; s_outcome = None; s_timing = timing }
  in
  let verdict = go 1 in
  Option.iter
    (fun w ->
       Journal.append w (Json.Obj (journal_header @ supervised_fields verdict)))
    writer;
  verdict

let zero_timing = { Report.wall_s = 0.; cells = 0; evals = 0 }

let run_supervised ?jobs ?(supervision = default_supervision) ?journal
    ?(resume = false) ?(entries = all) () =
  if supervision.retries < 0 then
    invalid_arg "Experiments.run_supervised: retries must be >= 0";
  (match supervision.deadline_s with
   | Some d when d <= 0. ->
     invalid_arg "Experiments.run_supervised: deadline must be > 0"
   | _ -> ());
  let resumed =
    if not resume then []
    else
      match journal with
      | None ->
        invalid_arg "Experiments.run_supervised: resume requires a journal"
      | Some path -> (
          match Journal.load path of_journal_line with
          | Error message ->
            invalid_arg ("Experiments.run_supervised: " ^ message)
          | Ok lines ->
            (* The last line for an id wins: a crash line followed by a
               successful re-run resumes as completed, and vice versa. *)
            let latest = List.rev lines in
            List.filter_map
              (fun (id, _, _) ->
                 match List.find_opt (fun s -> s.s_id = id) latest with
                 | Some ({ s_status = Report.Completed; _ } as s) -> Some s
                 | _ -> None)
              entries)
  in
  let resumed_ids = List.map (fun s -> s.s_id) resumed in
  let todo =
    List.filter (fun (id, _, _) -> not (List.mem id resumed_ids)) entries
  in
  let writer = Option.map Journal.create journal in
  let finish () = Option.iter Journal.close writer in
  (* Experiments are independent (no toplevel mutable state anywhere in
     lib/), so they fan out across domains. map_result keeps entry
     order and Harness.try_timed reads domain-local counter deltas, so the
     outcomes and the per-experiment instrumentation are the same for any
     job count (modulo wall clock). *)
  let fresh =
    Fun.protect ~finally:finish (fun () ->
        Prelude.Parallel.map_result ?jobs (supervise ~supervision ~writer)
          todo)
  in
  (* [supervise] never raises, so Error here means the supervisor itself
     broke; the experiment still must not vanish from the report. *)
  let fresh =
    List.map2
      (fun (id, title, _) result ->
         match result with
         | Ok s -> s
         | Error { Prelude.Parallel.exn; _ } ->
           { s_id = id; s_title = title;
             s_status =
               Report.Crashed
                 { error = "supervisor failure: " ^ Printexc.to_string exn };
             s_attempts = 1; s_resumed = false; s_outcome = None;
             s_timing = zero_timing })
      todo fresh
  in
  (* One record per registry entry, in registry order, resumed or fresh. *)
  List.map
    (fun (id, _, _) ->
       match List.find_opt (fun s -> s.s_id = id) fresh with
       | Some s -> s
       | None -> List.find (fun s -> s.s_id = id) resumed)
    entries

let supervised_failures sups =
  List.filter (fun s -> s.s_status <> Report.Completed) sups

let supervised_check_failures sups =
  List.filter
    (fun s ->
       match s.s_outcome with
       | Some o -> not (Report.all_passed o)
       | None -> false)
    sups

let supervised_passed s =
  match s.s_outcome with Some o -> Report.all_passed o | None -> false

let supervised_wall_sum sups =
  List.fold_left (fun acc s -> acc +. s.s_timing.Report.wall_s) 0. sups

let supervised_to_json ~jobs ~elapsed_s sups =
  let count p = List.length (List.filter p sups) in
  Prelude.Json.Obj
    [ ("schema", Prelude.Json.String "predlab/report");
      ("version", Prelude.Json.Int 2);
      ("jobs", Prelude.Json.Int jobs);
      ("elapsed_s", Prelude.Json.Float elapsed_s);
      ("wall_sum_s", Prelude.Json.Float (supervised_wall_sum sups));
      ("experiments_passed", Prelude.Json.Int (count supervised_passed));
      ("experiments_total", Prelude.Json.Int (List.length sups));
      ("completed",
       Prelude.Json.Int (count (fun s -> s.s_status = Report.Completed)));
      ("crashed",
       Prelude.Json.Int
         (count (fun s ->
              match s.s_status with Report.Crashed _ -> true | _ -> false)));
      ("timed_out",
       Prelude.Json.Int
         (count (fun s ->
              match s.s_status with
              | Report.Timed_out _ -> true
              | _ -> false)));
      ("retried", Prelude.Json.Int (count (fun s -> s.s_attempts > 1)));
      ("experiments",
       Prelude.Json.List (List.map supervised_result_to_json sups)) ]

let supervised_render s =
  let record =
    match s.s_outcome with
    | Some outcome ->
      let notes =
        (if s.s_attempts > 1 then
           [ Printf.sprintf "succeeded on attempt %d" s.s_attempts ]
         else [])
        @ (if s.s_resumed then [ "resumed from journal" ] else [])
      in
      Report.render ~id:s.s_id outcome
      ^ (if notes = [] then ""
         else Printf.sprintf "  (%s)\n" (String.concat "; " notes))
    | None ->
      let verdict =
        match s.s_status with
        | Report.Crashed { error } -> Printf.sprintf "CRASHED: %s" error
        | Report.Timed_out { after_s } ->
          Printf.sprintf "TIMED OUT after %.3fs" after_s
        | Report.Completed -> assert false (* completed implies an outcome *)
      in
      Printf.sprintf "=== %s: %s ===\n  [%s] (%d attempt%s)\n" s.s_id s.s_title
        verdict s.s_attempts
        (if s.s_attempts = 1 then "" else "s")
  in
  record ^ Printf.sprintf "  [%s]\n" (Report.timing_string s.s_timing)
