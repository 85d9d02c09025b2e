(* Integration tests: every experiment that reproduces a paper artefact must
   run to completion and satisfy all of its reproduction checks ("who wins,
   by roughly what factor"). The heavyweight exhaustive experiments are
   tagged `Slow (they still run under plain `dune runtest`). *)

let experiment_case (id, title, runner) =
  let speed =
    match id with
    | "FIG1" | "FIG1.SOUND" | "RW.CACHE" | "TAB1.R7" -> `Slow
    | _ -> `Quick
  in
  Alcotest.test_case (id ^ ": " ^ title) speed (fun () ->
      let outcome = runner () in
      Alcotest.(check bool) "produces a non-empty report" true
        (String.length outcome.Predictability.Report.body > 0);
      List.iter
        (fun (c : Predictability.Report.check) ->
           Alcotest.(check bool) c.Predictability.Report.label true
             c.Predictability.Report.passed)
        outcome.Predictability.Report.checks)

let test_registry_unique_ids () =
  let ids = Predictability.Experiments.ids () in
  Alcotest.(check int) "no duplicate ids"
    (List.length ids)
    (List.length (Prelude.Listx.uniq Stdlib.compare ids))

let string_contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i =
    if i + n > h then false
    else if String.sub haystack i n = needle then true
    else scan (i + 1)
  in
  scan 0

(* Regression for the bare [Not_found] that used to escape from [run]: the
   error is now typed and self-describing (offending id + valid ids). *)
let test_run_unknown_id () =
  match Predictability.Experiments.run "NOPE" with
  | _ -> Alcotest.fail "run accepted an unknown id"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "message names the offending id" true
        (string_contains msg "\"NOPE\"");
      Alcotest.(check bool) "message lists valid ids" true
        (string_contains msg "EQ4")

let test_lookup () =
  (match Predictability.Experiments.lookup "EQ4" with
   | Ok (id, _, _) -> Alcotest.(check string) "found id" "EQ4" id
   | Error msg -> Alcotest.fail msg);
  match Predictability.Experiments.lookup "NOPE" with
  | Ok _ -> Alcotest.fail "lookup accepted an unknown id"
  | Error msg ->
      (* This message is what `predlab run NOPE` prints before exiting 2. *)
      Alcotest.(check bool) "error names the offending id" true
        (string_contains msg "\"NOPE\"");
      Alcotest.(check bool) "error lists valid ids" true
        (string_contains msg "FIG1")

(* RW.CACHE's three checks would still pass if a fill horizon moved (say,
   PLRU fill = 13 instead of beyond 14), so its whole table is pinned: the
   fast exploration must reproduce the published values and every ">budget"
   cell byte for byte. *)
let test_rw_cache_table () =
  let expected =
    String.concat "\n"
      [ "| policy | ways | evict | fill |";
        "|--------|------|-------|------|";
        "| LRU    | 2    | 2     | 2    |";
        "| FIFO   | 2    | 3     | 5    |";
        "| PLRU   | 2    | 2     | >8   |";
        "| MRU    | 2    | 2     | >8   |";
        "| RR     | 2    | 3     | >8   |";
        "|--------|------|-------|------|";
        "| LRU    | 4    | 4     | 4    |";
        "| FIFO   | 4    | 7     | 11   |";
        "| PLRU   | 4    | 5     | >14  |";
        "| MRU    | 4    | 6     | >14  |";
        "| RR     | 4    | 7     | >14  |";
        "|--------|------|-------|------|";
        "" ]
  in
  Alcotest.(check string) "RW.CACHE body" expected
    (Predictability.Exp_cache_metrics.run ()).Predictability.Report.body

let () =
  Alcotest.run "experiments"
    [ ("registry",
       [ Alcotest.test_case "unique ids" `Quick test_registry_unique_ids;
         Alcotest.test_case "unknown id" `Quick test_run_unknown_id;
         Alcotest.test_case "lookup" `Quick test_lookup;
         Alcotest.test_case "RW.CACHE table pinned" `Quick test_rw_cache_table ]);
      ("reproduction", List.map experiment_case Predictability.Experiments.all) ]
