(* Tests for the machine-readable report layer: Report/Experiments JSON
   conversion, the full `predlab all --format json` (schema v2) document
   round trip, and the `predlab compare` regression gate (identical inputs
   pass; injected slowdowns and check regressions are flagged). *)

let string_contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i =
    if i + n > h then false
    else if String.sub haystack i n = needle then true
    else scan (i + 1)
  in
  scan 0

module Json = Prelude.Json
module Report = Predictability.Report
module Experiments = Predictability.Experiments
module Regression = Predictability.Regression

(* --- Fabricated results (no experiment run needed). -------------------- *)

let result ~id ~wall_s ~checks =
  let title = "synthetic " ^ id in
  { Experiments.s_id = id; s_title = title; s_status = Report.Completed;
    s_attempts = 1; s_resumed = false;
    s_outcome =
      Some
        { Report.title; body = "body\n";
          checks =
            List.map (fun (label, passed) -> Report.check label passed)
              checks };
    s_timing = { Report.wall_s; cells = 100; evals = 200 } }

let sample_results =
  [ result ~id:"A" ~wall_s:0.5 ~checks:[ ("a1", true); ("a2", true) ];
    result ~id:"B" ~wall_s:2.0 ~checks:[ ("b1", true) ] ]

let sample_doc =
  Experiments.supervised_to_json ~jobs:4 ~elapsed_s:1.25 sample_results

(* --- Report/Experiments -> JSON ---------------------------------------- *)

let test_timing_to_json () =
  let json =
    Json.Obj
      (Report.timing_fields { Report.wall_s = 0.125; cells = 7; evals = 9 })
  in
  Alcotest.(check (option (float 1e-9))) "wall_s" (Some 0.125)
    (Option.bind (Json.member "wall_s" json) Json.float_value);
  Alcotest.(check (option int)) "cells" (Some 7)
    (Option.bind (Json.member "cells" json) Json.int_value);
  Alcotest.(check (option int)) "evals" (Some 9)
    (Option.bind (Json.member "evals" json) Json.int_value)

(* Regression for the `predlab stats` total row: the document must carry
   BOTH the sum of per-experiment wall times (CPU-flavoured under jobs>1,
   where runs overlap) and the separately measured elapsed wall clock —
   the old text table presented only the sum, as if it were wall clock. *)
let test_wall_sum_vs_elapsed () =
  Alcotest.(check (float 1e-9)) "wall_sum sums per-experiment walls" 2.5
    (Experiments.supervised_wall_sum sample_results);
  Alcotest.(check (option int)) "v2 document" (Some 2)
    (Option.bind (Json.member "version" sample_doc) Json.int_value);
  Alcotest.(check (option (float 1e-9))) "wall_sum_s in document" (Some 2.5)
    (Option.bind (Json.member "wall_sum_s" sample_doc) Json.float_value);
  Alcotest.(check (option (float 1e-9)))
    "elapsed_s is its own field, not the sum" (Some 1.25)
    (Option.bind (Json.member "elapsed_s" sample_doc) Json.float_value);
  Alcotest.(check (option int)) "jobs recorded" (Some 4)
    (Option.bind (Json.member "jobs" sample_doc) Json.int_value)

(* --- Full-document round trip over every registered experiment. --------- *)

let test_all_format_json_round_trip () =
  let results, elapsed_s =
    Predictability.Harness.elapsed (fun () -> Experiments.run_supervised ())
  in
  let doc =
    Experiments.supervised_to_json ~jobs:(Prelude.Parallel.default_jobs ())
      ~elapsed_s results
  in
  (* One well-formed document... *)
  let reparsed = Json.parse_exn (Json.to_string doc) in
  Alcotest.(check bool) "compact round trip is lossless" true
    (reparsed = doc);
  let repretty = Json.parse_exn (Json.to_string_pretty doc) in
  Alcotest.(check bool) "pretty round trip is lossless" true (repretty = doc);
  (* ...covering every registered experiment with its instrumentation. *)
  let exps =
    Option.get (Option.bind (Json.member "experiments" reparsed) Json.to_list)
  in
  let ids =
    List.filter_map
      (fun e -> Option.bind (Json.member "id" e) Json.string_value)
      exps
  in
  Alcotest.(check (list string)) "ids in registry order"
    (Experiments.ids ()) ids;
  List.iter
    (fun e ->
       List.iter
         (fun field ->
            Alcotest.(check bool)
              (Printf.sprintf "%s present"
                 field)
              true
              (Json.member field e <> None))
         [ "title"; "status"; "attempts"; "resumed"; "checks"; "wall_s";
           "cells"; "evals" ])
    exps

(* --- The compare gate. -------------------------------------------------- *)

let kinds findings = List.map (fun f -> f.Regression.kind) findings

let test_compare_identical_passes () =
  Alcotest.(check int) "no findings on identical documents" 0
    (List.length
       (Regression.compare_reports ~baseline:sample_doc ~current:sample_doc
          ()))

let test_compare_flags_slowdown () =
  let slow =
    Experiments.supervised_to_json ~jobs:4 ~elapsed_s:2.5
      [ result ~id:"A" ~wall_s:1.0 ~checks:[ ("a1", true); ("a2", true) ];
        result ~id:"B" ~wall_s:2.0 ~checks:[ ("b1", true) ] ]
  in
  (* A went 0.5s -> 1.0s: a 2x slowdown, beyond the default 50% tolerance. *)
  (match Regression.compare_reports ~baseline:sample_doc ~current:slow () with
   | [ { Regression.kind = Regression.Slowdown; subject = "A"; _ } ] -> ()
   | findings ->
     Alcotest.failf "expected one slowdown on A, got: %s"
       (String.concat "; " (List.map Regression.finding_string findings)));
  (* ...but within a 150% tolerance the same documents pass. *)
  Alcotest.(check int) "tolerant compare passes" 0
    (List.length
       (Regression.compare_reports ~tolerance_pct:150. ~baseline:sample_doc
          ~current:slow ()))

let test_compare_flags_check_regression () =
  let broken =
    Experiments.supervised_to_json ~jobs:4 ~elapsed_s:1.25
      [ result ~id:"A" ~wall_s:0.5 ~checks:[ ("a1", true); ("a2", false) ];
        result ~id:"B" ~wall_s:2.0 ~checks:[ ("b1", true) ] ]
  in
  match Regression.compare_reports ~baseline:sample_doc ~current:broken () with
  | [ { Regression.kind = Regression.Check_regression; subject = "A"; detail } ] ->
    Alcotest.(check bool) "detail names the check" true
      (string_contains detail "a2")
  | findings ->
    Alcotest.failf "expected one check regression on A, got: %s"
      (String.concat "; " (List.map Regression.finding_string findings))

let test_compare_flags_missing_experiment () =
  let shrunk =
    Experiments.supervised_to_json ~jobs:4 ~elapsed_s:0.5
      [ result ~id:"A" ~wall_s:0.5 ~checks:[ ("a1", true); ("a2", true) ] ]
  in
  Alcotest.(check bool) "missing experiment flagged" true
    (kinds (Regression.compare_reports ~baseline:sample_doc ~current:shrunk ())
     = [ Regression.Missing ])

let test_compare_noise_floor () =
  (* Sub-10ms baselines never arm the slowdown gate: scheduler jitter on a
     1ms experiment is not a perf regression. *)
  let base =
    Experiments.supervised_to_json ~jobs:1 ~elapsed_s:0.001
      [ result ~id:"A" ~wall_s:0.001 ~checks:[ ("a1", true) ] ]
  in
  let jittery =
    Experiments.supervised_to_json ~jobs:1 ~elapsed_s:0.009
      [ result ~id:"A" ~wall_s:0.009 ~checks:[ ("a1", true) ] ]
  in
  Alcotest.(check int) "9x on a 1ms experiment is noise" 0
    (List.length
       (Regression.compare_reports ~baseline:base ~current:jittery ()))

let test_compare_kernels () =
  let bench ~ns =
    Json.Obj
      [ ("schema", Json.String "predlab/bench");
        ("experiments", Json.List []);
        ("kernels",
         Json.List
           [ Json.Obj
               [ ("name", Json.String "FIG1/inorder");
                 ("ns_per_run", Json.Float ns) ] ]) ]
  in
  (match
     Regression.compare_reports ~baseline:(bench ~ns:100.)
       ~current:(bench ~ns:250.) ()
   with
   | [ { Regression.kind = Regression.Slowdown; subject = "FIG1/inorder"; _ } ]
     -> ()
   | findings ->
     Alcotest.failf "expected one kernel slowdown, got: %s"
       (String.concat "; " (List.map Regression.finding_string findings)));
  (* A current report without a kernels section skips the kernel gate, so a
     fast `predlab stats --format json` run can be compared against a full
     `bench --json` baseline. *)
  let report_only = Json.Obj [ ("experiments", Json.List []) ] in
  Alcotest.(check int) "kernel section optional in current" 0
    (List.length
       (Regression.compare_reports ~baseline:(bench ~ns:100.)
          ~current:report_only ()))

(* Both report schema versions flow through the same gate: v1 (plain
   `predlab stats` output, no "status" fields) and v2 (supervised). *)
let test_compare_versions () =
  let doc ?version exps =
    Json.Obj
      ((match version with
        | Some v -> [ ("version", Json.Int v) ]
        | None -> [])
       @ [ ("experiments", Json.List exps) ])
  in
  let exp ?(extra = []) id =
    Json.Obj
      ([ ("id", Json.String id) ] @ extra
       @ [ ("checks", Json.List []); ("wall_s", Json.Float 0.001) ])
  in
  Alcotest.(check int) "v1 baseline vs completed v2 current passes" 0
    (List.length
       (Regression.compare_reports
          ~baseline:(doc ~version:1 [ exp "A" ])
          ~current:
            (doc ~version:2
               [ exp ~extra:[ ("status", Json.String "completed") ] "A" ])
          ()));
  (* A v2 experiment that crashed while its (v1, implicitly completed)
     baseline counterpart finished is a check regression even though it
     had no checks to lose. *)
  (match
     Regression.compare_reports ~baseline:(doc [ exp "A" ])
       ~current:
         (doc ~version:2
            [ exp
                ~extra:
                  [ ("status", Json.String "crashed");
                    ("error", Json.String "boom") ]
                "A" ])
       ()
   with
   | [ { Regression.kind = Regression.Check_regression; subject = "A";
         detail } ] ->
     Alcotest.(check bool) "detail names the error" true
       (String.length detail > 0)
   | findings ->
     Alcotest.failf "expected one status regression, got: %s"
       (String.concat "; " (List.map Regression.finding_string findings)));
  (* Unknown versions are schema findings before anything is compared. *)
  Alcotest.(check bool) "version 3 rejected" true
    (kinds
       (Regression.compare_reports ~baseline:(doc ~version:3 [])
          ~current:(doc []) ())
     = [ Regression.Schema ])

let test_compare_schema_errors () =
  Alcotest.(check bool) "baseline without experiments is a schema finding"
    true
    (kinds
       (Regression.compare_reports ~baseline:(Json.Obj [])
          ~current:sample_doc ())
     = [ Regression.Schema ]);
  Alcotest.check_raises "negative tolerance rejected"
    (Invalid_argument "Regression.compare_reports: negative tolerance")
    (fun () ->
       ignore
         (Regression.compare_reports ~tolerance_pct:(-1.)
            ~baseline:sample_doc ~current:sample_doc ()))

(* A bench document with a fast-engine kernel is only valid next to a
   passing FIG1.FAST oracle in the same run; the gate checks the current
   document of every comparison. *)
let test_compare_fast_gate () =
  let bench experiments =
    Json.Obj
      [ ("schema", Json.String "predlab/bench");
        ("experiments", Json.List experiments);
        ("kernels",
         Json.List
           [ Json.Obj
               [ ("name", Json.String "FIG1/inorder_T(q,i)");
                 ("engine", Json.String "fast");
                 ("ns_per_run", Json.Float 168.) ] ]) ]
  in
  let fig1_fast passed =
    Json.Obj
      [ ("id", Json.String "FIG1.FAST");
        ("checks",
         Json.List
           [ Json.Obj
               [ ("label", Json.String "exact = fast");
                 ("passed", Json.Bool passed) ] ]) ]
  in
  let gate current =
    Regression.compare_reports ~baseline:(bench []) ~current ()
  in
  (match gate (bench []) with
   | [ { Regression.kind = Regression.Check_regression;
         subject = "FIG1.FAST"; _ } ] -> ()
   | findings ->
     Alcotest.failf "expected one FIG1.FAST finding, got: %s"
       (String.concat "; " (List.map Regression.finding_string findings)));
  Alcotest.(check int) "failing FIG1.FAST does not satisfy the gate" 1
    (List.length (gate (bench [ fig1_fast false ])));
  Alcotest.(check int) "passing FIG1.FAST satisfies the gate" 0
    (List.length (gate (bench [ fig1_fast true ])))

let () =
  Alcotest.run "report"
    [ ("json_conversion",
       [ Alcotest.test_case "timing_to_json" `Quick test_timing_to_json;
         Alcotest.test_case "wall_sum vs elapsed (stats totals)" `Quick
           test_wall_sum_vs_elapsed ]);
      ("document",
       [ Alcotest.test_case "all --format json round trip" `Slow
           test_all_format_json_round_trip ]);
      ("compare",
       [ Alcotest.test_case "identical inputs pass" `Quick
           test_compare_identical_passes;
         Alcotest.test_case "injected 2x slowdown flagged" `Quick
           test_compare_flags_slowdown;
         Alcotest.test_case "check regression flagged" `Quick
           test_compare_flags_check_regression;
         Alcotest.test_case "missing experiment flagged" `Quick
           test_compare_flags_missing_experiment;
         Alcotest.test_case "sub-floor timings are noise" `Quick
           test_compare_noise_floor;
         Alcotest.test_case "kernel section gated when present" `Quick
           test_compare_kernels;
         Alcotest.test_case "v1 and v2 schemas both accepted" `Quick
           test_compare_versions;
         Alcotest.test_case "schema errors and bad tolerance" `Quick
           test_compare_schema_errors;
         Alcotest.test_case "fast kernels need a passing FIG1.FAST" `Quick
           test_compare_fast_gate ]) ]
