(* Tests for the predictability core: the quantifiers of Definitions 3-5 and
   their algebraic relationships, domino detection, the evict/fill metrics,
   dynamical-system predictability, Figure-1 measures, the template types
   and the survey data. *)

let ratio = Alcotest.testable Prelude.Ratio.pp Prelude.Ratio.equal

(* --- Quantify ------------------------------------------------------------ *)

let matrix_of_fun states inputs f =
  Predictability.Quantify.evaluate ~states ~inputs ~time:f ()

let test_pr_constant_system () =
  let m = matrix_of_fun [ 0; 1 ] [ 0; 1; 2 ] (fun _ _ -> 42) in
  Alcotest.check ratio "constant time is perfectly predictable"
    Prelude.Ratio.one (Predictability.Quantify.pr m)

let test_pr_known_value () =
  (* Times 10 and 25 -> Pr = 10/25 = 2/5. *)
  let m = matrix_of_fun [ 0 ] [ 0; 1 ] (fun _ i -> if i = 0 then 10 else 25) in
  Alcotest.check ratio "Pr = min/max" (Prelude.Ratio.make 2 5)
    (Predictability.Quantify.pr m)

let test_sipr_vs_iipr_separation () =
  (* Time = state-dependent only: SIPr < 1, IIPr = 1. *)
  let m = matrix_of_fun [ 1; 2 ] [ 0; 1 ] (fun q _ -> 10 * q) in
  Alcotest.check ratio "SIPr reflects state variance" (Prelude.Ratio.make 1 2)
    (Predictability.Quantify.sipr m);
  Alcotest.check ratio "IIPr = 1 (input has no effect)" Prelude.Ratio.one
    (Predictability.Quantify.iipr m);
  (* And symmetrically. *)
  let m' = matrix_of_fun [ 0; 1 ] [ 1; 4 ] (fun _ i -> 5 * i) in
  Alcotest.check ratio "IIPr reflects input variance" (Prelude.Ratio.make 1 4)
    (Predictability.Quantify.iipr m');
  Alcotest.check ratio "SIPr = 1 (state has no effect)" Prelude.Ratio.one
    (Predictability.Quantify.sipr m')

let test_bcet_wcet_times () =
  let m = matrix_of_fun [ 0; 1 ] [ 0; 1 ] (fun q i -> 10 + (3 * q) + i) in
  Alcotest.(check int) "bcet" 10 (Predictability.Quantify.bcet m);
  Alcotest.(check int) "wcet" 14 (Predictability.Quantify.wcet m);
  Alcotest.(check int) "all samples" 4 (List.length (Predictability.Quantify.times m))

let test_evaluate_validation () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty states" true
    (invalid (fun () -> matrix_of_fun [] [ 0 ] (fun _ _ -> 1)));
  Alcotest.(check bool) "empty inputs" true
    (invalid (fun () -> matrix_of_fun [ 0 ] [] (fun _ _ -> 1)));
  Alcotest.(check bool) "non-positive time" true
    (invalid (fun () -> matrix_of_fun [ 0 ] [ 0 ] (fun _ _ -> 0)))

(* Regression: Quantify.iipr [||] used to silently return Ratio.one (the
   fold's neutral element) while sipr [||] raised on reading m.(0), and
   both assumed rectangular rows on ragged input. All quantifiers now
   reject empty and ragged matrices alike, and of_rows (the constructor
   for precomputed timings) enforces the invariant up front. *)
let test_quantifiers_reject_degenerate_matrices () =
  let raises f =
    try ignore (f ()); false with Invalid_argument _ -> true
  in
  let quantifiers =
    [ ("pr", fun m -> ignore (Predictability.Quantify.pr m));
      ("sipr", fun m -> ignore (Predictability.Quantify.sipr m));
      ("iipr", fun m -> ignore (Predictability.Quantify.iipr m)) ]
  in
  let ragged = [| [| 1; 2 |]; [| 3 |] |] in
  List.iter
    (fun (name, q) ->
       Alcotest.(check bool) (name ^ " rejects [||]") true
         (raises (fun () -> q [||]));
       Alcotest.(check bool) (name ^ " rejects [|[||]|]") true
         (raises (fun () -> q [| [||] |]));
       Alcotest.(check bool) (name ^ " rejects ragged rows") true
         (raises (fun () -> q ragged)))
    quantifiers

let test_of_rows () =
  let rows = [| [| 10; 25 |] |] in
  let m = Predictability.Quantify.of_rows rows in
  Alcotest.check ratio "adopted timings quantify" (Prelude.Ratio.make 2 5)
    (Predictability.Quantify.pr m);
  (* Defensive copy: mutating the source after adoption changes nothing. *)
  rows.(0).(0) <- 1000;
  Alcotest.check ratio "copied, not aliased" (Prelude.Ratio.make 2 5)
    (Predictability.Quantify.pr m);
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "rejects empty" true
    (raises (fun () -> Predictability.Quantify.of_rows [||]));
  Alcotest.(check bool) "rejects ragged" true
    (raises (fun () -> Predictability.Quantify.of_rows [| [| 1 |]; [||] |]));
  Alcotest.(check bool) "rejects non-positive times" true
    (raises (fun () -> Predictability.Quantify.of_rows [| [| 1; 0 |] |]))

let time_fun_gen =
  (* Random positive timing matrices as assoc data. *)
  QCheck.(list_of_size (Gen.return 12) (int_range 1 100))

let matrix_of_list values =
  (* 3 states x 4 inputs from a flat list of 12 values. *)
  let arr = Array.of_list values in
  matrix_of_fun [ 0; 1; 2 ] [ 0; 1; 2; 3 ] (fun q i -> arr.((q * 4) + i))

let prop_pr_in_unit_interval =
  QCheck.Test.make ~name:"0 < Pr <= 1" ~count:300 time_fun_gen
    (fun values ->
       let pr = Predictability.Quantify.pr (matrix_of_list values) in
       Prelude.Ratio.(pr > zero && pr <= one))

let prop_pr_lower_bounds_si_ii =
  QCheck.Test.make ~name:"Pr <= SIPr and Pr <= IIPr" ~count:300 time_fun_gen
    (fun values ->
       let m = matrix_of_list values in
       let pr = Predictability.Quantify.pr m in
       Prelude.Ratio.(pr <= Predictability.Quantify.sipr m)
       && Prelude.Ratio.(pr <= Predictability.Quantify.iipr m))

let prop_pr_antimonotone_in_uncertainty =
  QCheck.Test.make ~name:"growing Q or I can only decrease Pr" ~count:200
    time_fun_gen
    (fun values ->
       let arr = Array.of_list values in
       let time q i = arr.((q * 4) + i) in
       let pr states inputs =
         Predictability.Quantify.pr (matrix_of_fun states inputs time)
       in
       Prelude.Ratio.(pr [ 0; 1; 2 ] [ 0; 1; 2; 3 ] <= pr [ 0; 1 ] [ 0; 1 ])
       && Prelude.Ratio.(pr [ 0; 1; 2 ] [ 0; 1; 2; 3 ] <= pr [ 0; 1; 2 ] [ 0; 2 ]))

let prop_pr_equals_bcet_over_wcet =
  QCheck.Test.make ~name:"Pr = BCET/WCET over the explored sets" ~count:300
    time_fun_gen
    (fun values ->
       let m = matrix_of_list values in
       Prelude.Ratio.equal (Predictability.Quantify.pr m)
         (Prelude.Ratio.make (Predictability.Quantify.bcet m)
            (Predictability.Quantify.wcet m)))

(* --- Domino ---------------------------------------------------------------- *)

let test_domino_detects_divergence () =
  let time n q = if q = 0 then 12 * n else (9 * n) + 1 in
  let verdict =
    Predictability.Domino.detect ~time ~q1:0 ~q2:1 ~horizon:16
  in
  Alcotest.(check bool) "diverges" true verdict.Predictability.Domino.diverges;
  Alcotest.(check (option (pair int int))) "rates" (Some (12, 9))
    verdict.Predictability.Domino.per_iteration_rates;
  Alcotest.check ratio "limit 3/4" (Prelude.Ratio.make 3 4)
    (match verdict.Predictability.Domino.ratio_limit with
     | Some r -> r
     | None -> Prelude.Ratio.zero)

let test_domino_rejects_bounded_difference () =
  let time n q = (10 * n) + q in
  let verdict = Predictability.Domino.detect ~time ~q1:0 ~q2:3 ~horizon:16 in
  Alcotest.(check bool) "constant offset is not a domino" false
    verdict.Predictability.Domino.diverges

let test_domino_eq4_bound () =
  Alcotest.check ratio "n=1" (Prelude.Ratio.make 10 12)
    (Predictability.Domino.eq4_bound ~n:1);
  Alcotest.check ratio "n=100" (Prelude.Ratio.make 901 1200)
    (Predictability.Domino.eq4_bound ~n:100)

let test_domino_horizon_validation () =
  Alcotest.(check bool) "horizon >= 8 required" true
    (try
       ignore
         (Predictability.Domino.detect ~time:(fun n _ -> n) ~q1:0 ~q2:1 ~horizon:4);
       false
     with Invalid_argument _ -> true)

(* --- Cache metrics ----------------------------------------------------------- *)

let exact_estimate name expected estimate =
  match estimate with
  | Predictability.Cache_metrics.Exact n -> Alcotest.(check int) name expected n
  | Predictability.Cache_metrics.Beyond _ -> Alcotest.fail (name ^ ": beyond budget")

let test_metrics_lru () =
  exact_estimate "LRU evict k=2" 2
    (Predictability.Cache_metrics.evict Cache.Policy.Lru ~ways:2 ~max_probes:8);
  exact_estimate "LRU fill k=2" 2
    (Predictability.Cache_metrics.fill Cache.Policy.Lru ~ways:2 ~max_probes:8);
  exact_estimate "LRU evict k=4" 4
    (Predictability.Cache_metrics.evict Cache.Policy.Lru ~ways:4 ~max_probes:10)

let test_metrics_fifo () =
  exact_estimate "FIFO evict k=2 is 2k-1" 3
    (Predictability.Cache_metrics.evict Cache.Policy.Fifo ~ways:2 ~max_probes:8);
  exact_estimate "FIFO evict k=4 is 2k-1" 7
    (Predictability.Cache_metrics.evict Cache.Policy.Fifo ~ways:4 ~max_probes:12)

let test_metrics_ordering () =
  (* LRU's horizons are minimal: no policy beats them. *)
  let evict kind =
    match Predictability.Cache_metrics.evict kind ~ways:2 ~max_probes:10 with
    | Predictability.Cache_metrics.Exact n -> n
    | Predictability.Cache_metrics.Beyond n -> n + 1
  in
  let lru = evict Cache.Policy.Lru in
  List.iter
    (fun kind ->
       Alcotest.(check bool)
         (Cache.Policy.kind_name kind ^ " not better than LRU") true
         (evict kind >= lru))
    [ Cache.Policy.Fifo; Cache.Policy.Plru; Cache.Policy.Mru ]

let test_metrics_published_values () =
  (* The exact values published by Reineke et al. for k = 4:
     PLRU evict = k/2 * log2 k + 1 = 5; MRU evict = 2k - 2 = 6;
     FIFO fill = 3k - 1 = 11; and RR behaves like FIFO for evict. *)
  exact_estimate "PLRU evict k=4" 5
    (Predictability.Cache_metrics.evict Cache.Policy.Plru ~ways:4 ~max_probes:10);
  exact_estimate "MRU evict k=4" 6
    (Predictability.Cache_metrics.evict Cache.Policy.Mru ~ways:4 ~max_probes:10);
  exact_estimate "FIFO fill k=4" 11
    (Predictability.Cache_metrics.fill Cache.Policy.Fifo ~ways:4 ~max_probes:12);
  exact_estimate "RR evict k=2" 3
    (Predictability.Cache_metrics.evict Cache.Policy.Round_robin ~ways:2
       ~max_probes:8)

let test_metrics_plru_fill_unbounded () =
  match
    Predictability.Cache_metrics.fill Cache.Policy.Plru ~ways:4 ~max_probes:10
  with
  | Predictability.Cache_metrics.Beyond n ->
    Alcotest.(check int) "beyond the probe budget" 10 n
  | Predictability.Cache_metrics.Exact n ->
    Alcotest.failf "PLRU fill should exceed the budget, got %d" n

(* Eight ways, through the packed exploration: LRU is still minimal and
   PLRU evict is k/2 * log2 k + 1 = 13. The budget of 100 is far past both
   horizons; tags sized for it would need 8 * 7 + 7 = 63 key bits, so this
   also pins that the key width follows the depth being explored. *)
let test_metrics_eight_ways () =
  exact_estimate "LRU evict k=8" 8
    (Predictability.Cache_metrics.evict ~engine:`Fast Cache.Policy.Lru ~ways:8
       ~max_probes:100);
  exact_estimate "LRU fill k=8" 8
    (Predictability.Cache_metrics.fill ~engine:`Fast Cache.Policy.Lru ~ways:8
       ~max_probes:100);
  exact_estimate "PLRU evict k=8" 13
    (Predictability.Cache_metrics.evict ~engine:`Fast Cache.Policy.Plru
       ~ways:8 ~max_probes:100)

let test_domino_nonlinear_no_rates () =
  (* Quadratic growth: divergent but with no steady per-iteration rate. *)
  let time n q = (n * n) + q in
  let verdict = Predictability.Domino.detect ~time ~q1:0 ~q2:5 ~horizon:16 in
  Alcotest.(check (option (pair int int))) "no linear rates" None
    verdict.Predictability.Domino.per_iteration_rates

let test_metrics_estimate_rendering () =
  Alcotest.(check string) "exact" "4"
    (Predictability.Cache_metrics.estimate_to_string
       (Predictability.Cache_metrics.Exact 4));
  Alcotest.(check string) "beyond" ">9"
    (Predictability.Cache_metrics.estimate_to_string
       (Predictability.Cache_metrics.Beyond 9))

(* --- Dynamical ------------------------------------------------------------------ *)

let test_dynamical_rotation_predictable () =
  (* alpha and x0 chosen so the shadow set never straddles the circle's
     wrap point within the horizon (see Dynamical.width_profile). *)
  Alcotest.(check bool) "rotation predictable" true
    (Predictability.Dynamical.predictable
       ~f:(Predictability.Dynamical.rotation ~alpha:0.382) ~x0:0.2 ~delta:1e-4
       ~steps:12)

let test_dynamical_tent_unpredictable () =
  Alcotest.(check bool) "tent unpredictable" false
    (Predictability.Dynamical.predictable ~f:Predictability.Dynamical.tent
       ~x0:0.237 ~delta:1e-4 ~steps:12)

let test_dynamical_width_monotone_inflation () =
  (* Every step inflates by at least 2*delta under an isometry. *)
  let widths =
    Predictability.Dynamical.width_profile
      ~f:(Predictability.Dynamical.rotation ~alpha:0.25) ~x0:0.4 ~delta:0.001
      ~steps:6
  in
  Alcotest.(check int) "profile length" 6 (List.length widths);
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-12 && increasing rest
    | [] | [ _ ] -> true
  in
  Alcotest.(check bool) "widths never shrink under rotation" true
    (increasing widths)

let test_dynamical_maps () =
  Alcotest.(check (float 1e-9)) "tent at 0.25" 0.5 (Predictability.Dynamical.tent 0.25);
  Alcotest.(check (float 1e-9)) "tent at 0.75" 0.5 (Predictability.Dynamical.tent 0.75);
  Alcotest.(check (float 1e-9)) "logistic fixed point" 0.0
    (Predictability.Dynamical.logistic ~r:4.0 0.0);
  let rotated = Predictability.Dynamical.rotation ~alpha:0.75 0.5 in
  Alcotest.(check (float 1e-9)) "rotation wraps" 0.25 rotated

(* --- Measures -------------------------------------------------------------------- *)

let summary = { Predictability.Measures.lb = 80; bcet = 100; wcet = 200; ub = 250 }

let test_measures () =
  Alcotest.(check bool) "well ordered" true
    (Predictability.Measures.well_ordered summary);
  Alcotest.(check int) "state+input variance" 100
    (Predictability.Measures.state_input_variance summary);
  Alcotest.(check int) "abstraction variance" 70
    (Predictability.Measures.abstraction_variance summary);
  Alcotest.check ratio "Thiele-Wilhelm wcet/ub" (Prelude.Ratio.make 4 5)
    (Predictability.Measures.thiele_wilhelm_overestimation summary);
  Alcotest.check ratio "Kirner-Puschner takes the minimum"
    (Prelude.Ratio.make 1 2)
    (Predictability.Measures.kirner_puschner ~pr:(Prelude.Ratio.make 1 2) summary)

let test_measures_ill_ordered () =
  Alcotest.(check bool) "detects violation" false
    (Predictability.Measures.well_ordered
       { Predictability.Measures.lb = 120; bcet = 100; wcet = 200; ub = 250 })

(* --- Template & survey -------------------------------------------------------------- *)

let test_quality_rendering () =
  Alcotest.(check string) "variability" "variability 3/4"
    (Predictability.Template.quality_to_string
       (Predictability.Template.Variability (Prelude.Ratio.make 3 4)));
  Alcotest.(check string) "bound" "observed 5 <= bound 9"
    (Predictability.Template.quality_to_string
       (Predictability.Template.Bound_tightness { observed = 5; bound = 9 }));
  Alcotest.(check string) "unbounded"
    "unbounded"
    (Predictability.Template.quality_to_string
       (Predictability.Template.Boundedness { bound = None }))

let test_quality_score () =
  let score q =
    match Predictability.Template.quality_score q with
    | Some s -> s
    | None -> Alcotest.fail "expected a score"
  in
  Alcotest.(check (float 1e-9)) "variability score" 0.75
    (score (Predictability.Template.Variability (Prelude.Ratio.make 3 4)));
  Alcotest.(check (float 1e-9)) "fraction score" 0.9
    (score (Predictability.Template.Fraction_classified 0.9));
  Alcotest.(check bool) "qualitative has no score" true
    (Predictability.Template.quality_score
       (Predictability.Template.Qualitative "x") = None)

let test_survey_shape () =
  Alcotest.(check int) "Table 1 has 7 rows" 7
    (List.length Predictability.Survey.table1);
  Alcotest.(check int) "Table 2 has 6 rows" 6
    (List.length Predictability.Survey.table2);
  Alcotest.(check int) "13 surveyed approaches" 13
    (List.length Predictability.Survey.all)

let test_survey_experiments_exist () =
  let known = Predictability.Experiments.ids () in
  List.iter
    (fun (i : Predictability.Template.instance) ->
       Alcotest.(check bool)
         (i.Predictability.Template.approach ^ " links to a real experiment")
         true
         (List.mem i.Predictability.Template.experiment known))
    Predictability.Survey.all

let test_survey_renders () =
  let rendered = Predictability.Survey.render Predictability.Survey.table1 in
  Alcotest.(check bool) "non-empty render" true (String.length rendered > 100)

(* --- Composition -------------------------------------------------------------------- *)

let comp label bcet wcet = Predictability.Composition.component ~label ~bcet ~wcet

let test_composition_validation () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bcet > wcet" true (invalid (fun () -> comp "x" 5 3));
  Alcotest.(check bool) "zero bcet" true (invalid (fun () -> comp "x" 0 3));
  Alcotest.(check bool) "empty sequential" true
    (invalid (fun () -> Predictability.Composition.sequential_pr []))

let test_composition_sequential () =
  let parts = [ comp "a" 10 20; comp "b" 30 40 ] in
  Alcotest.check ratio "Pr = 40/60" (Prelude.Ratio.make 2 3)
    (Predictability.Composition.sequential_pr parts);
  Alcotest.check ratio "weakest = 1/2" (Prelude.Ratio.make 1 2)
    (Predictability.Composition.weakest_component parts)

let test_composition_parallel () =
  let parts = [ comp "a" 10 20; comp "b" 30 40 ] in
  Alcotest.check ratio "fork-join Pr = 30/40" (Prelude.Ratio.make 3 4)
    (Predictability.Composition.parallel_pr parts)

let prop_mediant_dominates_weakest =
  QCheck.Test.make ~name:"sequential bound always >= weakest component"
    ~count:300
    QCheck.(list_of_size (Gen.int_range 1 6)
              (pair (int_range 1 50) (int_range 0 50)))
    (fun raw ->
       let parts =
         List.map (fun (b, extra) -> comp "c" b (b + extra)) raw
       in
       Prelude.Ratio.(
         Predictability.Composition.weakest_component parts
         <= Predictability.Composition.sequential_pr parts))

let prop_sequential_pr_sound_for_additive_systems =
  (* If T = sum of independent component times, the interval bound is below
     the true Pr of the composite. *)
  QCheck.Test.make ~name:"interval bound sound for additive systems" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 4)
              (pair (int_range 1 30) (int_range 0 30)))
    (fun raw ->
       let parts = List.map (fun (b, extra) -> comp "c" b (b + extra)) raw in
       let true_bcet =
         Prelude.Listx.sum (List.map (fun (c : Predictability.Composition.component) ->
             c.Predictability.Composition.bcet) parts)
       in
       let true_wcet =
         Prelude.Listx.sum (List.map (fun (c : Predictability.Composition.component) ->
             c.Predictability.Composition.wcet) parts)
       in
       Prelude.Ratio.equal
         (Predictability.Composition.sequential_pr parts)
         (Prelude.Ratio.make true_bcet true_wcet))

let test_composition_of_workload () =
  let w = Isa.Workload.clamp () in
  let c =
    Predictability.Composition.of_workload
      ~states:[ Pipeline.Inorder.state () ] w
  in
  Alcotest.(check bool) "bcet <= wcet" true
    (c.Predictability.Composition.bcet <= c.Predictability.Composition.wcet);
  Alcotest.(check string) "label" "clamp" c.Predictability.Composition.label

(* --- Extent ------------------------------------------------------------------------- *)

let test_extent_profile () =
  let time q i = 10 + q + (2 * i) in
  let levels =
    Predictability.Extent.profile ~states:[ 0; 1; 2 ] ~inputs:[ 0; 1; 2; 3 ]
      ~time
      ~cuts:[ ("known", 1, 1); ("some", 2, 2); ("full", 3, 4) ] ()
  in
  Alcotest.(check int) "three levels" 3 (List.length levels);
  (match levels with
   | first :: _ ->
     Alcotest.check ratio "no uncertainty -> Pr = 1" Prelude.Ratio.one
       first.Predictability.Extent.pr
   | [] -> Alcotest.fail "no levels");
  Alcotest.(check bool) "antitone on a nested chain" true
    (Predictability.Extent.antitone levels)

let test_extent_clamping () =
  let levels =
    Predictability.Extent.profile ~states:[ 0 ] ~inputs:[ 0; 1 ]
      ~time:(fun _ i -> 1 + i)
      ~cuts:[ ("overshoot", 99, 99) ] ()
  in
  match levels with
  | [ l ] ->
    Alcotest.(check int) "states clamped" 1 l.Predictability.Extent.state_count;
    Alcotest.(check int) "inputs clamped" 2 l.Predictability.Extent.input_count
  | _ -> Alcotest.fail "expected one level"

let prop_extent_antitone_on_prefix_chains =
  QCheck.Test.make ~name:"Pr antitone along any prefix chain" ~count:200
    QCheck.(list_of_size (Gen.return 12) (int_range 1 60))
    (fun values ->
       let arr = Array.of_list values in
       let time q i = arr.((q * 4) + i) in
       let levels =
         Predictability.Extent.profile ~states:[ 0; 1; 2 ] ~inputs:[ 0; 1; 2; 3 ]
           ~time
           ~cuts:[ ("a", 1, 1); ("b", 1, 3); ("c", 2, 3); ("d", 3, 4) ] ()
       in
       Predictability.Extent.antitone levels)

(* --- Report ----------------------------------------------------------------------- *)

let test_report_pass_fail () =
  let outcome =
    { Predictability.Report.title = "t"; body = "";
      checks = [ Predictability.Report.check "ok" true ] }
  in
  Alcotest.(check bool) "all passed" true
    (Predictability.Report.all_passed outcome);
  let failing =
    { outcome with
      Predictability.Report.checks =
        [ Predictability.Report.check "ok" true;
          Predictability.Report.check "bad" false ] }
  in
  Alcotest.(check bool) "failure detected" false
    (Predictability.Report.all_passed failing)

let () =
  Alcotest.run "predictability-core"
    [ ("quantify",
       [ Alcotest.test_case "constant system" `Quick test_pr_constant_system;
         Alcotest.test_case "known value" `Quick test_pr_known_value;
         Alcotest.test_case "SIPr/IIPr separation" `Quick
           test_sipr_vs_iipr_separation;
         Alcotest.test_case "bcet/wcet/times" `Quick test_bcet_wcet_times;
         Alcotest.test_case "validation" `Quick test_evaluate_validation;
         Alcotest.test_case "degenerate matrices rejected" `Quick
           test_quantifiers_reject_degenerate_matrices;
         Alcotest.test_case "of_rows" `Quick test_of_rows;
         QCheck_alcotest.to_alcotest prop_pr_in_unit_interval;
         QCheck_alcotest.to_alcotest prop_pr_lower_bounds_si_ii;
         QCheck_alcotest.to_alcotest prop_pr_antimonotone_in_uncertainty;
         QCheck_alcotest.to_alcotest prop_pr_equals_bcet_over_wcet ]);
      ("domino",
       [ Alcotest.test_case "detects divergence" `Quick
           test_domino_detects_divergence;
         Alcotest.test_case "bounded difference accepted" `Quick
           test_domino_rejects_bounded_difference;
         Alcotest.test_case "Equation 4 bound" `Quick test_domino_eq4_bound;
         Alcotest.test_case "non-linear growth has no rates" `Quick
           test_domino_nonlinear_no_rates;
         Alcotest.test_case "horizon validation" `Quick
           test_domino_horizon_validation ]);
      ("cache-metrics",
       [ Alcotest.test_case "LRU optimal" `Quick test_metrics_lru;
         Alcotest.test_case "FIFO 2k-1" `Quick test_metrics_fifo;
         Alcotest.test_case "published values (PLRU/MRU/FIFO/RR)" `Slow
           test_metrics_published_values;
         Alcotest.test_case "PLRU fill unbounded" `Slow
           test_metrics_plru_fill_unbounded;
         Alcotest.test_case "LRU minimal" `Quick test_metrics_ordering;
         Alcotest.test_case "eight-way horizons (packed)" `Slow
           test_metrics_eight_ways;
         Alcotest.test_case "estimate rendering" `Quick
           test_metrics_estimate_rendering ]);
      ("dynamical",
       [ Alcotest.test_case "rotation predictable" `Quick
           test_dynamical_rotation_predictable;
         Alcotest.test_case "tent unpredictable" `Quick
           test_dynamical_tent_unpredictable;
         Alcotest.test_case "width inflation" `Quick
           test_dynamical_width_monotone_inflation;
         Alcotest.test_case "map definitions" `Quick test_dynamical_maps ]);
      ("measures",
       [ Alcotest.test_case "Figure-1 measures" `Quick test_measures;
         Alcotest.test_case "ordering violation" `Quick test_measures_ill_ordered ]);
      ("template+survey",
       [ Alcotest.test_case "quality rendering" `Quick test_quality_rendering;
         Alcotest.test_case "quality scores" `Quick test_quality_score;
         Alcotest.test_case "survey shape" `Quick test_survey_shape;
         Alcotest.test_case "experiment links" `Quick
           test_survey_experiments_exist;
         Alcotest.test_case "survey renders" `Quick test_survey_renders ]);
      ("composition",
       [ Alcotest.test_case "validation" `Quick test_composition_validation;
         Alcotest.test_case "sequential" `Quick test_composition_sequential;
         Alcotest.test_case "parallel" `Quick test_composition_parallel;
         Alcotest.test_case "of_workload" `Quick test_composition_of_workload;
         QCheck_alcotest.to_alcotest prop_mediant_dominates_weakest;
         QCheck_alcotest.to_alcotest prop_sequential_pr_sound_for_additive_systems ]);
      ("extent",
       [ Alcotest.test_case "profile" `Quick test_extent_profile;
         Alcotest.test_case "clamping" `Quick test_extent_clamping;
         QCheck_alcotest.to_alcotest prop_extent_antitone_on_prefix_chains ]);
      ("report",
       [ Alcotest.test_case "pass/fail aggregation" `Quick test_report_pass_fail ]) ]
