(* Tests for the fault-tolerant supervision layer: the Faults injection
   plane, Parallel per-task isolation / cooperative deadlines / pool
   degradation, the Experiments supervisor (classification, retries,
   journal/resume round trip) and seeded chaos campaigns asserting
   graceful degradation. *)

module Faults = Prelude.Faults
module Parallel = Prelude.Parallel
module Report = Predictability.Report
module Experiments = Predictability.Experiments
module Journal = Predictability.Journal
module Chaos = Predictability.Chaos

let with_faults sites f =
  Faults.arm sites;
  Fun.protect ~finally:Faults.disarm f

(* --- Faults ------------------------------------------------------------- *)

let test_point_disarmed () =
  Faults.disarm ();
  Alcotest.(check bool) "disarmed" false (Faults.armed ());
  Faults.point "experiment:EQ4" (* must be a no-op, not an error *)

let test_point_window () =
  (* skip 1, fires 2: arrivals 0 and 3+ pass, 1 and 2 raise. *)
  with_faults [ Faults.site ~skip:1 ~fires:2 "w" Faults.Raise ] (fun () ->
      let fired n =
        match Faults.point "w" with
        | () -> false
        | exception Faults.Injected "w" -> true
        | exception _ -> Alcotest.failf "unexpected exception at arrival %d" n
      in
      Alcotest.(check (list bool)) "skip/fires window"
        [ false; true; true; false; false ]
        (List.init 5 fired))

let test_parse_spec () =
  (match Faults.parse_spec "experiment:EQ4=raise" with
   | Ok { Faults.name = "experiment:EQ4"; action = Faults.Raise;
          skip = 0; fires = 1 } -> ()
   | Ok s -> Alcotest.failf "unexpected site %s" (Faults.describe s)
   | Error e -> Alcotest.fail e);
  (match Faults.parse_spec "parallel.spawn=delay:2.5" with
   | Ok { Faults.action = Faults.Delay d; _ } ->
     Alcotest.(check (float 1e-9)) "2.5 ms" 0.0025 d
   | _ -> Alcotest.fail "delay spec rejected");
  (match Faults.parse_spec "x=timeout" with
   | Ok { Faults.action = Faults.Timeout; _ } -> ()
   | _ -> Alcotest.fail "timeout spec rejected");
  List.iter
    (fun bad ->
       match Faults.parse_spec bad with
       | Error _ -> ()
       | Ok _ -> Alcotest.failf "accepted malformed spec %S" bad)
    [ "no-equals"; "=raise"; "x=explode"; "x=delay:xs"; "x=delay:-1" ]

let test_campaign_deterministic () =
  let names = List.init 40 (fun i -> Printf.sprintf "experiment:X%d" i) in
  let plan seed = List.map Faults.describe (Faults.campaign ~seed names) in
  Alcotest.(check (list string)) "same seed, same plan" (plan 7) (plan 7);
  (* 40 sites at ~40% arm rate: two seeds agreeing everywhere would be
     astronomically unlucky; treat it as a broken hash. *)
  Alcotest.(check bool) "different seeds differ" false (plan 7 = plan 8)

(* --- Parallel isolation, deadlines, degradation ------------------------- *)

let test_map_result_isolation () =
  let results =
    Parallel.map_result ~jobs:4
      (fun x -> if x mod 10 = 3 then failwith ("boom " ^ string_of_int x)
        else x * 2)
      (List.init 40 Fun.id)
  in
  Alcotest.(check int) "one result per input" 40 (List.length results);
  List.iteri
    (fun i result ->
       match result with
       | Ok v -> Alcotest.(check int) (Printf.sprintf "ok at %d" i) (2 * i) v
       | Error { Parallel.index; exn = Failure m; _ } ->
         Alcotest.(check bool) (Printf.sprintf "failure at %d" i) true
           (i mod 10 = 3 && index = i && m = "boom " ^ string_of_int i)
       | Error _ -> Alcotest.failf "unexpected error shape at %d" i)
    results

let test_map_result_fault_site () =
  (* "parallel.task" fires on the first task; exactly one Error, the other
     tasks are unaffected. Sequential jobs:1 makes "first" deterministic. *)
  with_faults [ Faults.site "parallel.task" Faults.Raise ] (fun () ->
      match Parallel.map_result ~jobs:1 Fun.id [ 10; 20; 30 ] with
      | [ Error { Parallel.index = 0; exn = Faults.Injected "parallel.task"; _ };
          Ok 20; Ok 30 ] -> ()
      | _ -> Alcotest.fail "expected injected failure on task 0 only")

let test_deadline_checkpoint () =
  (* The inner Parallel loop hits check_deadline between elements, so a
     deadlined task overruns at a checkpoint even though it never returns
     on its own. The spin makes each element ~1ms of work. *)
  let spin_ms x =
    let t0 = Prelude.Instrument.now () in
    while Prelude.Instrument.now () -. t0 < 0.001 do ignore (Sys.opaque_identity x) done;
    x
  in
  let results =
    Parallel.map_result ~jobs:2
      (fun heavy ->
         Parallel.with_deadline ~deadline_s:0.02 (fun () ->
             if heavy then
               List.length (Parallel.map spin_ms (List.init 200 Fun.id))
             else 0))
      [ false; true; false ]
  in
  (match results with
   | [ Ok 0; Error { Parallel.exn = Parallel.Deadline_exceeded o; index = 1; _ };
       Ok 0 ] ->
     Alcotest.(check bool) "overran its budget" true (o.elapsed_s > o.deadline_s)
   | _ -> Alcotest.fail "expected only the heavy task to time out");
  (* Post-hoc detection: a task that blows the budget without checkpoints
     is still classified when it returns. *)
  let spin () =
    let t0 = Prelude.Instrument.now () in
    while Prelude.Instrument.now () -. t0 < 0.03 do () done
  in
  match
    Parallel.map_result ~jobs:1
      (fun () -> Parallel.with_deadline ~deadline_s:0.01 spin)
      [ () ]
  with
  | [ Error { Parallel.exn = Parallel.Deadline_exceeded _; _ } ] -> ()
  | _ -> Alcotest.fail "expected post-hoc deadline classification"

let test_with_deadline_nested () =
  Alcotest.check_raises "invalid deadline"
    (Invalid_argument "Parallel.with_deadline: deadline must be > 0")
    (fun () -> Parallel.with_deadline ~deadline_s:0. Fun.id);
  (* The outer generous budget must be restored after the inner one. *)
  let v =
    Parallel.with_deadline ~deadline_s:10. (fun () ->
        (match
           Parallel.with_deadline ~deadline_s:0.005 (fun () ->
               let t0 = Prelude.Instrument.now () in
               while Prelude.Instrument.now () -. t0 < 0.01 do () done)
         with
         | () -> Alcotest.fail "inner overrun undetected"
         | exception Parallel.Deadline_exceeded _ -> ());
        Parallel.check_deadline ();
        42)
  in
  Alcotest.(check int) "outer deadline survives" 42 v

let test_spawn_degradation () =
  let xs = List.init 100 Fun.id in
  let expected = List.map succ xs in
  (* Every spawn fails: the pool degrades to inline execution. *)
  with_faults [ Faults.site ~fires:(-1) "parallel.spawn" Faults.Raise ]
    (fun () ->
       Alcotest.(check (list int)) "all spawns fail -> sequential" expected
         (Parallel.map ~jobs:4 succ xs));
  (* Only the third spawn fails: the pool runs at the achieved width. *)
  with_faults [ Faults.site ~skip:2 "parallel.spawn" Faults.Raise ]
    (fun () ->
       Alcotest.(check (list int)) "partial spawn failure -> degraded pool"
         expected
         (Parallel.map ~jobs:4 succ xs));
  Alcotest.(check (list int)) "disarmed map unaffected" expected
    (Parallel.map ~jobs:4 succ xs)

let test_multiple_failures_surfaced () =
  (* Four single-element slices; every task waits for all four to be
     running, then raises — so all four failures are recorded and none may
     be silently discarded. *)
  let started = Atomic.make 0 in
  let task i =
    Atomic.incr started;
    while Atomic.get started < 4 do Domain.cpu_relax () done;
    failwith (string_of_int i)
  in
  match Parallel.map ~jobs:4 task [ 0; 1; 2; 3 ] with
  | _ -> Alcotest.fail "map of raising tasks returned"
  | exception Parallel.Multiple_failures { count = 4; first = Failure _ } -> ()
  | exception Parallel.Multiple_failures { count; _ } ->
    Alcotest.failf "expected 4 collected failures, got %d" count
  | exception Failure _ ->
    Alcotest.fail "concurrent failures collapsed to a single exception"

(* --- The experiment supervisor ------------------------------------------ *)

let ok_outcome id =
  { Report.title = "synthetic " ^ id; body = "";
    checks = [ Report.check "always" true ] }

let entry ?runner id =
  let runner =
    match runner with Some r -> r | None -> (fun () -> ok_outcome id)
  in
  (id, "synthetic " ^ id, runner)

let statuses sups = List.map (fun s -> s.Experiments.s_status) sups
let ids sups = List.map (fun s -> s.Experiments.s_id) sups

let test_supervised_classification () =
  let entries =
    [ entry "A";
      entry "B" ~runner:(fun () -> failwith "kaboom");
      entry "C";
      entry "D" ~runner:(fun () -> raise (Faults.Forced_timeout "x"));
      entry "E" ]
  in
  let sups = Experiments.run_supervised ~jobs:4 ~entries () in
  Alcotest.(check (list string)) "one record per entry, in order"
    [ "A"; "B"; "C"; "D"; "E" ] (ids sups);
  (match statuses sups with
   | [ Report.Completed; Report.Crashed { error }; Report.Completed;
       Report.Timed_out _; Report.Completed ] ->
     Alcotest.(check bool) "error names the exception" true
       (String.length error > 0)
   | _ -> Alcotest.fail "unexpected classification");
  Alcotest.(check int) "two failures" 2
    (List.length (Experiments.supervised_failures sups));
  Alcotest.(check int) "no check failures" 0
    (List.length (Experiments.supervised_check_failures sups))

let test_supervised_retry_recovers () =
  (* The supervisor passes each attempt through "experiment:<id>"; a
     fire-once fault there crashes attempt 1 and lets attempt 2 through. *)
  with_faults [ Faults.site "experiment:A" Faults.Raise ] (fun () ->
      let sups =
        Experiments.run_supervised ~jobs:1
          ~supervision:
            { Experiments.default_supervision with retries = 1 }
          ~entries:[ entry "A"; entry "B" ] ()
      in
      match sups with
      | [ { Experiments.s_status = Report.Completed; s_attempts = 2; _ };
          { Experiments.s_status = Report.Completed; s_attempts = 1; _ } ] ->
        ()
      | _ -> Alcotest.fail "expected A recovered on attempt 2, B untouched")

let test_supervised_exhausted_retries () =
  with_faults [ Faults.site ~fires:(-1) "experiment:A" Faults.Raise ]
    (fun () ->
       match
         Experiments.run_supervised ~jobs:1
           ~supervision:
             { Experiments.default_supervision with retries = 2 }
           ~entries:[ entry "A" ] ()
       with
       | [ { Experiments.s_status = Report.Crashed _; s_attempts = 3; _ } ] ->
         ()
       | _ -> Alcotest.fail "expected crash after 3 attempts")

let test_supervised_deadline () =
  let spin () =
    let t0 = Prelude.Instrument.now () in
    while Prelude.Instrument.now () -. t0 < 0.03 do () done;
    ok_outcome "slow"
  in
  match
    Experiments.run_supervised ~jobs:1
      ~supervision:
        { Experiments.default_supervision with deadline_s = Some 0.005 }
      ~entries:[ entry "slow" ~runner:spin; entry "fast" ] ()
  with
  | [ { Experiments.s_status = Report.Timed_out { after_s }; _ };
      { Experiments.s_status = Report.Completed; _ } ] ->
    Alcotest.(check bool) "overrun recorded" true (after_s > 0.005)
  | _ -> Alcotest.fail "expected slow timed out, fast completed"

let test_supervised_real_registry_subset () =
  (* Real experiments under injection: EQ4 crashed, the others finish. *)
  let entries =
    List.map
      (fun id ->
         match Experiments.lookup id with
         | Ok e -> e
         | Error m -> Alcotest.fail m)
      [ "FIG1"; "EQ4"; "RW.DYN" ]
  in
  with_faults [ Faults.site "experiment:EQ4" Faults.Raise ] (fun () ->
      let sups = Experiments.run_supervised ~jobs:2 ~entries () in
      Alcotest.(check (list string)) "order" [ "FIG1"; "EQ4"; "RW.DYN" ]
        (ids sups);
      match statuses sups with
      | [ Report.Completed; Report.Crashed _; Report.Completed ] ->
        Alcotest.(check int) "others pass their checks" 1
          (List.length (Experiments.supervised_failures sups))
      | _ -> Alcotest.fail "expected only EQ4 crashed")

(* --- Journal / resume ---------------------------------------------------- *)

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let write_file path contents =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc contents)

let logical sups =
  List.map
    (fun s ->
       (s.Experiments.s_id, s.Experiments.s_status,
        match s.Experiments.s_outcome with
        | Some o -> o.Report.checks
        | None -> []))
    sups

let test_journal_resume_round_trip () =
  let path = Filename.temp_file "predlab_journal" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Sys.remove path;
  let runs = Array.make 5 0 in
  let entries =
    List.init 5 (fun i ->
        let id = Printf.sprintf "J%d" i in
        entry id ~runner:(fun () ->
            runs.(i) <- runs.(i) + 1;
            ok_outcome id))
  in
  let full = Experiments.run_supervised ~jobs:2 ~journal:path ~entries () in
  Alcotest.(check int) "five journal lines" 5 (List.length (read_lines path));
  (* Simulate a crash after two experiments: truncate the journal to its
     first two lines plus a torn third — then resume. *)
  let lines = read_lines path in
  write_file path
    (String.concat "\n" [ List.nth lines 0; List.nth lines 1;
                          "{\"schema\":\"predlab/jour" ]);
  let resumed =
    Experiments.run_supervised ~jobs:2 ~journal:path ~resume:true ~entries ()
  in
  Alcotest.(check bool) "same logical report" true
    (logical full = logical resumed);
  let kept_ids =
    List.filter_map
      (fun s ->
         if s.Experiments.s_resumed then Some s.Experiments.s_id else None)
      resumed
  in
  Alcotest.(check int) "two resumed from the truncated journal" 2
    (List.length kept_ids);
  List.iteri
    (fun i s ->
       let expected = if List.mem s.Experiments.s_id kept_ids then 1 else 2 in
       Alcotest.(check int)
         (Printf.sprintf "runner %d invocations" i) expected runs.(i))
    resumed;
  Alcotest.(check int) "resume appended only the re-run experiments" 5
    (List.length (read_lines path))

let test_journal_crash_line_reruns () =
  let path = Filename.temp_file "predlab_journal" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Sys.remove path;
  with_faults [ Faults.site "experiment:B" Faults.Raise ] (fun () ->
      match
        Experiments.run_supervised ~jobs:1 ~journal:path
          ~entries:[ entry "A"; entry "B" ] ()
      with
      | [ _; { Experiments.s_status = Report.Crashed _; _ } ] -> ()
      | _ -> Alcotest.fail "expected B crashed");
  (* Resume with the fault gone: A is skipped, the crashed B re-runs. *)
  let reran = Atomic.make 0 in
  let entries =
    [ entry "A" ~runner:(fun () -> Atomic.incr reran; ok_outcome "A");
      entry "B" ~runner:(fun () -> Atomic.incr reran; ok_outcome "B") ]
  in
  (match
     Experiments.run_supervised ~jobs:1 ~journal:path ~resume:true ~entries ()
   with
   | [ { Experiments.s_resumed = true; _ };
       { Experiments.s_status = Report.Completed; s_resumed = false; _ } ] ->
     ()
   | _ -> Alcotest.fail "expected A resumed, B re-run to completion");
  Alcotest.(check int) "only B re-ran" 1 (Atomic.get reran)

let contains haystack needle =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || scan (i + 1))
  in
  scan 0

let test_journal_load_errors () =
  (match Journal.load "/nonexistent/predlab.jsonl" Result.ok with
   | Ok [] -> ()
   | _ -> Alcotest.fail "missing journal should load as empty");
  let path = Filename.temp_file "predlab_journal" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  write_file path "{\"id\":\"A\",\"title\":\"t\",\"status\":\"completed\"}\nnot json\n{\"id\":\"B\",\"title\":\"t\"}\n";
  (match Journal.load path Result.ok with
   | Error message ->
     Alcotest.(check bool) ("names the line: " ^ message) true
       (contains message (path ^ ":2:"))
   | Ok _ -> Alcotest.fail "mid-file corruption must be a hard error");
  (* JSON, but not a record: without a string "id" the supervisor's
     decoder rejects the line, and resume fails naming it. *)
  write_file path
    "{\"id\":\"A\",\"title\":\"t\",\"status\":\"completed\"}\n\
     {\"id\":7,\"title\":\"t\",\"status\":\"completed\"}\n";
  match
    Experiments.run_supervised ~jobs:1 ~journal:path ~resume:true
      ~entries:[ entry "A" ] ()
  with
  | exception Invalid_argument message ->
    Alcotest.(check bool) ("names the line: " ^ message) true
      (contains message (path ^ ":2:") && contains message "\"id\"")
  | _ -> Alcotest.fail "a line without a string id must be a load error"

(* The loader reads through the bounded frame reader: a journal line over
   the 1 MiB cap (no writer of ours produces one, so it is corruption) is
   a named load error, not an unbounded allocation — and a within-cap
   file after it still loads. *)
let test_journal_oversized_line_rejected () =
  let path = Filename.temp_file "predlab_journal" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let good = "{\"id\":\"A\",\"title\":\"t\",\"status\":\"completed\"}" in
  write_file path
    (good ^ "\n" ^ String.make (Prelude.Lineio.default_max_line + 512) 'x'
     ^ "\n");
  (match Journal.load path Result.ok with
   | Error message ->
     Alcotest.(check bool) ("names the cap: " ^ message) true
       (String.length message > 0)
   | Ok _ -> Alcotest.fail "an oversized journal line must be a load error");
  (* A large-but-bounded line is still fine. *)
  let title = String.make 4096 't' in
  write_file path
    (Printf.sprintf
       "{\"id\":\"A\",\"title\":%S,\"status\":\"completed\"}\n" title);
  match Journal.load path Result.ok with
  | Ok [ line ] ->
    Alcotest.(check (option string)) "large title survives" (Some title)
      (Option.bind (Prelude.Json.member "title" line)
         Prelude.Json.string_value)
  | Ok _ -> Alcotest.fail "expected exactly one entry"
  | Error message -> Alcotest.failf "bounded line rejected: %s" message

let json =
  Alcotest.testable
    (fun ppf j -> Format.pp_print_string ppf (Prelude.Json.to_string j))
    ( = )

(* A journal line is the report record behind a two-field header: for a
   completed verdict, one with a failing check and a crashed one alike,
   the line minus "schema" and "version" is exactly what the report
   writes for the verdict the run returned. *)
let test_journal_line_is_report_record () =
  let path = Filename.temp_file "predlab_journal" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Sys.remove path;
  let failing () =
    { (ok_outcome "B") with
      Report.checks =
        [ Report.check "holds" true; Report.check "fails" false ] }
  in
  let sups =
    with_faults [ Faults.site "experiment:C" Faults.Raise ] (fun () ->
        Experiments.run_supervised ~jobs:2 ~journal:path
          ~entries:[ entry "A"; entry "B" ~runner:failing; entry "C" ] ())
  in
  (match statuses sups with
   | [ Report.Completed; Report.Completed; Report.Crashed _ ] -> ()
   | _ -> Alcotest.fail "expected A and B completed, C crashed");
  Alcotest.(check int) "B fails a check" 1
    (List.length (Experiments.supervised_check_failures sups));
  match Journal.load path Result.ok with
  | Error message -> Alcotest.fail message
  | Ok lines ->
    Alcotest.(check int) "one line per verdict" 3 (List.length lines);
    List.iter
      (function
        | Prelude.Json.Obj
            (("schema", Prelude.Json.String "predlab/journal")
             :: ("version", Prelude.Json.Int 2)
             :: (("id", Prelude.Json.String id) :: _ as fields)) ->
          let s = List.find (fun s -> s.Experiments.s_id = id) sups in
          Alcotest.check json ("line " ^ id)
            (Experiments.supervised_result_to_json s)
            (Prelude.Json.Obj fields)
        | line ->
          Alcotest.failf "not a v2 journal line: %s"
            (Prelude.Json.to_string line))
      lines

(* Journals written before a line became the report record (version 1: no
   "resumed", "checks_passed" or "checks_total") still resume, to the
   record that version resumed from them. *)
let test_journal_v1_lines_resume () =
  let path = Filename.temp_file "predlab_journal" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  write_file path
    "{\"schema\":\"predlab/journal\",\"version\":1,\"id\":\"A\",\
     \"title\":\"synthetic A\",\"status\":\"completed\",\"attempts\":2,\
     \"checks\":[{\"label\":\"always\",\"passed\":true},\
     {\"label\":\"never\",\"passed\":false}],\
     \"wall_s\":0.25,\"cells\":540,\"evals\":1080}\n\
     {\"schema\":\"predlab/journal\",\"version\":1,\"id\":\"B\",\
     \"title\":\"synthetic B\",\"status\":\"crashed\",\
     \"error\":\"Failure(\\\"kaboom\\\")\",\"attempts\":1,\"checks\":[],\
     \"wall_s\":0.001,\"cells\":0,\"evals\":0}\n";
  let ran = Array.make 2 0 in
  let counted i id =
    entry id ~runner:(fun () -> ran.(i) <- ran.(i) + 1; ok_outcome id)
  in
  let resume () =
    Experiments.run_supervised ~jobs:1 ~journal:path ~resume:true
      ~entries:[ counted 0 "A"; counted 1 "B" ] ()
  in
  match resume () with
  | [ a; b ] ->
    Alcotest.(check bool) "A resumed" true a.Experiments.s_resumed;
    Alcotest.(check bool) "A completed" true
      (a.Experiments.s_status = Report.Completed);
    Alcotest.(check int) "A keeps its attempts" 2 a.Experiments.s_attempts;
    Alcotest.(check (list (pair string bool))) "A keeps its checks"
      [ ("always", true); ("never", false) ]
      (match a.Experiments.s_outcome with
       | Some o ->
         List.map (fun c -> (c.Report.label, c.Report.passed)) o.Report.checks
       | None -> []);
    Alcotest.(check bool) "A keeps its timing" true
      (a.Experiments.s_timing
       = { Report.wall_s = 0.25; cells = 540; evals = 1080 });
    Alcotest.(check bool) "B re-ran to completion" true
      ((not b.Experiments.s_resumed)
       && b.Experiments.s_status = Report.Completed);
    Alcotest.(check (array int)) "only B re-ran" [| 0; 1 |] ran;
    (* B's crashed version 1 line is now followed by a completed version 2
       line. The last line wins, so a second resume re-runs nothing. *)
    (match resume () with
     | [ { Experiments.s_resumed = true; _ };
         { Experiments.s_resumed = true; s_status = Report.Completed; _ } ] ->
       ()
     | _ -> Alcotest.fail "expected A and B resumed from the mixed journal");
    Alcotest.(check (array int)) "nothing re-ran" [| 0; 1 |] ran
  | _ -> Alcotest.fail "expected two records"

(* A write that fails takes its temp file with it: [write_atomic] onto an
   existing directory writes [DIR.tmp], then the rename over [DIR] raises,
   and neither [DIR.tmp] nor anything inside [DIR] may remain. Its
   pre-check, [check_writable], refuses the directory and a missing one,
   accepts a writable path, and leaves nothing behind either. *)
let test_write_atomic_failure_cleans_up () =
  let dir = Filename.temp_file "predlab_out" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
        (try Sys.remove (dir ^ ".tmp") with Sys_error _ -> ());
        try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
       (match Journal.write_atomic dir "{}\n" with
        | () -> Alcotest.fail "write_atomic over a directory returned"
        | exception (Sys_error _ | Unix.Unix_error _) -> ());
       List.iter
         (fun path ->
            match Journal.check_writable path with
            | () -> Alcotest.failf "check_writable accepted %s" path
            | exception Sys_error _ -> ())
         [ dir; Filename.concat dir "missing/x.json" ];
       Journal.check_writable (Filename.concat dir "x.json");
       Alcotest.(check bool) "no temp file left" false
         (Sys.file_exists (dir ^ ".tmp"));
       Alcotest.(check bool) "still a directory" true (Sys.is_directory dir);
       Alcotest.(check (array string)) "directory unchanged" [||]
         (Sys.readdir dir))

(* --- Chaos campaigns ----------------------------------------------------- *)

let chaos_entries =
  List.init 8 (fun i -> entry (Printf.sprintf "C%d" i))

let prop_chaos_graceful =
  QCheck.Test.make ~name:"chaos campaigns degrade gracefully" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
       let verdict = Chaos.run ~jobs:4 ~entries:chaos_entries ~seed () in
       verdict.Chaos.violations = []
       && List.length verdict.Chaos.persistent = 8
       && List.length verdict.Chaos.transient = 8)

let test_chaos_plan_nonempty_somewhere () =
  (* The campaign generator must actually inject over a seed range —
     a chaos harness that never arms anything asserts nothing. *)
  let armed =
    List.exists
      (fun seed ->
         Faults.campaign ~seed
           (List.map (fun (id, _, _) -> "experiment:" ^ id) chaos_entries)
         <> [])
      (List.init 20 Fun.id)
  in
  Alcotest.(check bool) "some seed arms some site" true armed

let () =
  Alcotest.run "supervisor"
    [ ("faults",
       [ Alcotest.test_case "disarmed point is a no-op" `Quick
           test_point_disarmed;
         Alcotest.test_case "skip/fires window" `Quick test_point_window;
         Alcotest.test_case "--inject spec parsing" `Quick test_parse_spec;
         Alcotest.test_case "campaigns are seed-deterministic" `Quick
           test_campaign_deterministic ]);
      ("parallel",
       [ Alcotest.test_case "map_result isolates failures" `Quick
           test_map_result_isolation;
         Alcotest.test_case "parallel.task fault site" `Quick
           test_map_result_fault_site;
         Alcotest.test_case "deadline at checkpoints and post-hoc" `Quick
           test_deadline_checkpoint;
         Alcotest.test_case "with_deadline nests and restores" `Quick
           test_with_deadline_nested;
         Alcotest.test_case "pool degrades on spawn failure" `Quick
           test_spawn_degradation;
         Alcotest.test_case "concurrent failures all surfaced" `Quick
           test_multiple_failures_surfaced ]);
      ("supervisor",
       [ Alcotest.test_case "crash/timeout classification" `Quick
           test_supervised_classification;
         Alcotest.test_case "retry recovers a transient fault" `Quick
           test_supervised_retry_recovers;
         Alcotest.test_case "retries exhaust to crashed" `Quick
           test_supervised_exhausted_retries;
         Alcotest.test_case "deadline classifies as timed_out" `Quick
           test_supervised_deadline;
         Alcotest.test_case "real registry subset under injection" `Slow
           test_supervised_real_registry_subset ]);
      ("journal",
       [ Alcotest.test_case "crash/resume round trip" `Quick
           test_journal_resume_round_trip;
         Alcotest.test_case "crashed entries re-run on resume" `Quick
           test_journal_crash_line_reruns;
         Alcotest.test_case "load: missing ok, corrupt fatal" `Quick
           test_journal_load_errors;
         Alcotest.test_case "oversized journal line rejected" `Quick
           test_journal_oversized_line_rejected;
         Alcotest.test_case "journal line is the report record" `Quick
           test_journal_line_is_report_record;
         Alcotest.test_case "v1 journal lines still resume" `Quick
           test_journal_v1_lines_resume;
         Alcotest.test_case "write_atomic failure leaves no temp file" `Quick
           test_write_atomic_failure_cleans_up ]);
      ("chaos",
       [ QCheck_alcotest.to_alcotest prop_chaos_graceful;
         Alcotest.test_case "campaigns arm sites across seeds" `Quick
           test_chaos_plan_nonempty_somewhere ]) ]
