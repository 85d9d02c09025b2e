(* Unit and property tests for the prelude: exact rationals, statistics,
   deterministic RNG, histograms, tables, list utilities. *)

let ratio = Alcotest.testable Prelude.Ratio.pp Prelude.Ratio.equal

let check_ratio = Alcotest.check ratio

(* --- Ratio ------------------------------------------------------------ *)

let test_ratio_normalisation () =
  check_ratio "6/8 = 3/4" (Prelude.Ratio.make 3 4) (Prelude.Ratio.make 6 8);
  check_ratio "-6/-8 = 3/4" (Prelude.Ratio.make 3 4) (Prelude.Ratio.make (-6) (-8));
  check_ratio "6/-8 = -3/4" (Prelude.Ratio.make (-3) 4) (Prelude.Ratio.make 6 (-8));
  Alcotest.(check int) "num of 0/5" 0 (Prelude.Ratio.num (Prelude.Ratio.make 0 5));
  Alcotest.(check int) "den of 0/5" 1 (Prelude.Ratio.den (Prelude.Ratio.make 0 5))

let test_ratio_arith () =
  let open Prelude.Ratio in
  check_ratio "1/2 + 1/3 = 5/6" (make 5 6) (add (make 1 2) (make 1 3));
  check_ratio "1/2 - 1/3 = 1/6" (make 1 6) (sub (make 1 2) (make 1 3));
  check_ratio "2/3 * 3/4 = 1/2" (make 1 2) (mul (make 2 3) (make 3 4));
  check_ratio "1/2 / 1/4 = 2" (of_int 2) (div (make 1 2) (make 1 4));
  check_ratio "neg 3/4" (make (-3) 4) (neg (make 3 4));
  check_ratio "inv 3/4 = 4/3" (make 4 3) (inv (make 3 4))

let test_ratio_division_by_zero () =
  Alcotest.check_raises "make _ 0" Division_by_zero
    (fun () -> ignore (Prelude.Ratio.make 1 0));
  Alcotest.check_raises "div by zero" Division_by_zero
    (fun () -> ignore (Prelude.Ratio.div Prelude.Ratio.one Prelude.Ratio.zero));
  Alcotest.check_raises "inv zero" Division_by_zero
    (fun () -> ignore (Prelude.Ratio.inv Prelude.Ratio.zero))

let test_ratio_compare () =
  let open Prelude.Ratio in
  Alcotest.(check bool) "1/3 < 1/2" true (make 1 3 < make 1 2);
  Alcotest.(check bool) "2/4 = 1/2" true (make 2 4 = make 1 2);
  Alcotest.(check bool) "-1/2 < 1/3" true (make (-1) 2 < make 1 3);
  check_ratio "min" (make 1 3) (min (make 1 3) (make 1 2));
  check_ratio "max" (make 1 2) (max (make 1 3) (make 1 2))

let test_ratio_to_string () =
  Alcotest.(check string) "int rendering" "3"
    (Prelude.Ratio.to_string (Prelude.Ratio.of_int 3));
  Alcotest.(check string) "fraction rendering" "3/4"
    (Prelude.Ratio.to_string (Prelude.Ratio.make 3 4))

let small_ratio =
  let open QCheck in
  map
    (fun (n, d) -> Prelude.Ratio.make n (1 + abs d))
    (pair (int_range (-60) 60) (int_range 0 60))

let prop_ratio_add_commutative =
  QCheck.Test.make ~name:"ratio addition commutes" ~count:200
    (QCheck.pair small_ratio small_ratio)
    (fun (a, b) ->
       Prelude.Ratio.equal (Prelude.Ratio.add a b) (Prelude.Ratio.add b a))

let prop_ratio_mul_associative =
  QCheck.Test.make ~name:"ratio multiplication associates" ~count:200
    (QCheck.triple small_ratio small_ratio small_ratio)
    (fun (a, b, c) ->
       Prelude.Ratio.equal
         (Prelude.Ratio.mul a (Prelude.Ratio.mul b c))
         (Prelude.Ratio.mul (Prelude.Ratio.mul a b) c))

let prop_ratio_distributive =
  QCheck.Test.make ~name:"multiplication distributes over addition" ~count:200
    (QCheck.triple small_ratio small_ratio small_ratio)
    (fun (a, b, c) ->
       Prelude.Ratio.equal
         (Prelude.Ratio.mul a (Prelude.Ratio.add b c))
         (Prelude.Ratio.add (Prelude.Ratio.mul a b) (Prelude.Ratio.mul a c)))

let prop_ratio_add_neg =
  QCheck.Test.make ~name:"a + (-a) = 0" ~count:200 small_ratio
    (fun a ->
       Prelude.Ratio.equal Prelude.Ratio.zero
         (Prelude.Ratio.add a (Prelude.Ratio.neg a)))

let prop_ratio_normalised =
  QCheck.Test.make ~name:"results are in lowest terms" ~count:200
    (QCheck.pair small_ratio small_ratio)
    (fun (a, b) ->
       let r = Prelude.Ratio.mul a b in
       let rec gcd x y = if y = 0 then x else gcd y (x mod y) in
       Prelude.Ratio.den r > 0
       && gcd (abs (Prelude.Ratio.num r)) (Prelude.Ratio.den r) <= 1
          || Prelude.Ratio.num r = 0)

(* Regression tests for silent int overflow in ratio arithmetic: operands
   whose naive cross-multiplication wraps around max_int. Pre-fix these
   either produced garbage (wrapped) values or flipped signs; post-fix the
   gcd reduction keeps the exact result representable, and genuinely
   unrepresentable results raise [Overflow]. *)

let test_ratio_overflow_reduced () =
  let open Prelude.Ratio in
  let big = 1 lsl 35 in
  (* Naive denominator big * big = 2^70 wraps; gcd reduction avoids it. *)
  check_ratio "1/2^35 + 1/2^35 = 1/2^34"
    (make 1 (1 lsl 34)) (add (make 1 big) (make 1 big));
  check_ratio "3/2^35 - 1/2^35 = 1/2^34"
    (make 1 (1 lsl 34)) (sub (make 3 big) (make 1 big));
  (* Naive product denominator 2^35 * 2^30 = 2^65 wraps; cross-gcd saves it. *)
  check_ratio "(1/2^35) * (2^35/2^30) = 1/2^30"
    (make 1 (1 lsl 30)) (mul (make 1 big) (make big (1 lsl 30)))

let test_ratio_overflow_raises () =
  let pow32 = 1 lsl 32 and pow32m1 = (1 lsl 32) - 1 in
  let open Prelude.Ratio in
  (* Coprime denominators ~2^32: the reduced common denominator is 2^64-2^32,
     past max_int, so the sum is not representable. *)
  Alcotest.check_raises "add with unrepresentable denominator" Overflow
    (fun () -> ignore (add (make 1 pow32) (make 1 pow32m1)));
  Alcotest.check_raises "sub with unrepresentable denominator" Overflow
    (fun () -> ignore (sub (make 1 pow32m1) (make 1 pow32)));
  Alcotest.check_raises "mul with unrepresentable numerator" Overflow
    (fun () -> ignore (mul (of_int (1 lsl 40)) (of_int (1 lsl 40))))

let test_ratio_compare_exact_near_max () =
  let m1 = max_int - 1 and m2 = max_int - 2 in
  let open Prelude.Ratio in
  (* (max_int-1)/max_int > (max_int-2)/(max_int-1), but the cross products
     overflow: pre-fix compare answered from wrapped values. *)
  let a = make m1 max_int and b = make m2 m1 in
  Alcotest.(check int) "compare near max_int is exact" 1 (compare a b);
  Alcotest.(check int) "flipped" (-1) (compare b a);
  Alcotest.(check int) "reflexive" 0 (compare a a);
  Alcotest.(check bool) "negated ordering flips" true
    (Prelude.Ratio.(neg a < neg b));
  Alcotest.(check bool) "sign split" true (Prelude.Ratio.(neg a < b))

(* Regression: negative/negative comparison used to negate raw numerators,
   and [-min_int] wraps back to min_int, so values with a min_int numerator
   compared through garbage. The floor-division descent never negates. *)
let test_ratio_compare_min_int () =
  let open Prelude.Ratio in
  let mi = make min_int 1 in
  Alcotest.(check int) "min_int/1 = min_int/1" 0 (compare mi (make min_int 1));
  Alcotest.(check int) "min_int/1 < -max_int/1" (-1)
    (compare mi (make (- max_int) 1));
  Alcotest.(check int) "min_int/1 < min_int/2 (reduces to (min_int/2)/1)" (-1)
    (compare mi (make min_int 2));
  (* gcd(|min_int|, 5) = 1 and gcd(|min_int|, 3) = 1: both keep the min_int
     numerator, exercising the fractional descent on both sides. *)
  Alcotest.(check int) "min_int/5 > min_int/3" 1
    (compare (make min_int 5) (make min_int 3));
  Alcotest.(check int) "min_int/3 < min_int/5" (-1)
    (compare (make min_int 3) (make min_int 5));
  Alcotest.(check int) "min_int/max_int > -2/1" 1
    (compare (make min_int max_int) (make (-2) 1));
  Alcotest.(check int) "min_int/1 < 1/2" (-1) (compare mi (make 1 2));
  check_ratio "min picks the wrapped-prone operand" mi (min mi (make (-1) 1));
  check_ratio "max avoids it" (make (-1) 1) (max mi (make (-1) 1))

(* --- Stats ------------------------------------------------------------ *)

let test_stats_basic () =
  let s = Prelude.Stats.summarize_ints [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check int) "count" 5 s.Prelude.Stats.count;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Prelude.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Prelude.Stats.max;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Prelude.Stats.mean;
  Alcotest.(check (float 1e-9)) "median" 3.0 s.Prelude.Stats.median;
  (* Bessel-corrected sample stddev: sum of squared deviations 10 over n-1=4. *)
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) s.Prelude.Stats.stddev

let test_stats_even_median () =
  let s = Prelude.Stats.summarize_ints [ 4; 1; 3; 2 ] in
  Alcotest.(check (float 1e-9)) "median of even count" 2.5 s.Prelude.Stats.median

let test_stats_single () =
  let s = Prelude.Stats.summarize_ints [ 7 ] in
  Alcotest.(check (float 1e-9)) "mean" 7.0 s.Prelude.Stats.mean;
  Alcotest.(check (float 1e-9)) "stddev" 0.0 s.Prelude.Stats.stddev;
  Alcotest.(check (float 1e-9)) "spread" 0.0 (Prelude.Stats.spread s)

let test_stats_empty () =
  Alcotest.check_raises "empty summarize"
    (Invalid_argument "Stats.summarize: empty sample list")
    (fun () -> ignore (Prelude.Stats.summarize []))

let test_min_max_int_list () =
  Alcotest.(check int) "min" (-3) (Prelude.Stats.min_int_list [ 5; -3; 7 ]);
  Alcotest.(check int) "max" 7 (Prelude.Stats.max_int_list [ 5; -3; 7 ])

(* --- Rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Prelude.Rng.make 42 and b = Prelude.Rng.make 42 in
  let xs = List.init 20 (fun _ -> Prelude.Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Prelude.Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_rng_bounds () =
  let rng = Prelude.Rng.make 7 in
  List.iter
    (fun _ ->
       let v = Prelude.Rng.int rng 13 in
       Alcotest.(check bool) "in [0, 13)" true (v >= 0 && v < 13))
    (Prelude.Listx.range 0 200)

let test_rng_pick_shuffle () =
  let rng = Prelude.Rng.make 11 in
  let items = [ 1; 2; 3; 4; 5 ] in
  List.iter
    (fun _ ->
       Alcotest.(check bool) "pick from list" true
         (List.mem (Prelude.Rng.pick rng items) items))
    (Prelude.Listx.range 0 20);
  let shuffled = Prelude.Rng.shuffle rng items in
  Alcotest.(check (list int)) "shuffle is a permutation"
    items (List.sort Stdlib.compare shuffled)

(* Regression for the biased sort-by-random-key shuffle: with a stable sort
   and a small key space, identical keys kept input order, so some
   permutations were unreachable (or strongly under-represented). The
   Fisher-Yates rewrite draws each arrangement with probability 1/n!. *)
let prop_shuffle_uniform_over_permutations =
  QCheck.Test.make ~name:"shuffle reaches all 4! permutations roughly uniformly"
    ~count:5 QCheck.int
    (fun seed ->
       let rng = Prelude.Rng.make seed in
       let trials = 6_000 in
       let tbl = Hashtbl.create 24 in
       for _ = 1 to trials do
         let p = Prelude.Rng.shuffle rng [ 1; 2; 3; 4 ] in
         let n = try Hashtbl.find tbl p with Not_found -> 0 in
         Hashtbl.replace tbl p (n + 1)
       done;
       let expected = trials / 24 in
       Hashtbl.length tbl = 24
       && Hashtbl.fold
            (fun _ c ok -> ok && c > expected / 2 && c < expected * 2)
            tbl true)

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle output is a permutation of its input"
    ~count:200
    QCheck.(pair int (list small_int))
    (fun (seed, xs) ->
       let rng = Prelude.Rng.make seed in
       List.sort Stdlib.compare (Prelude.Rng.shuffle rng xs)
       = List.sort Stdlib.compare xs)

let test_rng_invalid_bound () =
  let rng = Prelude.Rng.make 1 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Prelude.Rng.int rng 0))

let test_rng_split_independent () =
  let rng = Prelude.Rng.make 3 in
  let child = Prelude.Rng.split rng in
  let a = Prelude.Rng.int rng 1000 and b = Prelude.Rng.int child 1000 in
  (* Not a strong statistical test; just check both streams advance. *)
  Alcotest.(check bool) "streams usable" true (a >= 0 && b >= 0)

(* --- Histogram -------------------------------------------------------- *)

let test_histogram_bins () =
  let h = Prelude.Histogram.of_samples ~bins:2 [ 0; 1; 2; 3 ] in
  Alcotest.(check int) "total" 4 (Prelude.Histogram.total h);
  Alcotest.(check int) "min" 0 (Prelude.Histogram.min_sample h);
  Alcotest.(check int) "max" 3 (Prelude.Histogram.max_sample h);
  let counts = List.map (fun (_, _, c) -> c) (Prelude.Histogram.bins h) in
  Alcotest.(check (list int)) "counts" [ 2; 2 ] counts

let test_histogram_single_value () =
  let h = Prelude.Histogram.of_samples ~bins:4 [ 5; 5; 5 ] in
  Alcotest.(check int) "total" 3 (Prelude.Histogram.total h)

let string_contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i =
    if i + n > h then false
    else if String.sub haystack i n = needle then true
    else scan (i + 1)
  in
  scan 0

let test_histogram_render_markers () =
  let h = Prelude.Histogram.of_samples ~bins:2 [ 1; 2; 3; 4 ] in
  let rendered = Prelude.Histogram.render ~markers:[ ("WCET", 4) ] h in
  Alcotest.(check bool) "marker present" true (string_contains rendered "WCET")

let prop_histogram_conserves_samples =
  QCheck.Test.make ~name:"histogram bin counts sum to sample count" ~count:100
    QCheck.(pair (int_range 1 8) (list_of_size (Gen.int_range 1 50) (int_range (-100) 100)))
    (fun (bins, samples) ->
       QCheck.assume (samples <> []);
       let h = Prelude.Histogram.of_samples ~bins samples in
       Prelude.Listx.sum (List.map (fun (_, _, c) -> c) (Prelude.Histogram.bins h))
       = List.length samples)

(* Regression: the displayed upper edge of the last bin used to be the
   nominal lo + (i+1)*width - 1, which exceeds max_sample whenever bins
   doesn't divide the span — Figure-1 bucket ranges overstated the support
   (0..9 in 3 bins rendered a "8..11" bucket). Edges are now clamped. *)
let test_histogram_edge_clamped () =
  let h = Prelude.Histogram.of_samples ~bins:3 (List.init 10 (fun i -> i)) in
  Alcotest.(check (list (triple int int int))) "clamped edges"
    [ (0, 3, 4); (4, 7, 4); (8, 9, 2) ]
    (Prelude.Histogram.bins h);
  let rendered = Prelude.Histogram.render h in
  Alcotest.(check bool) "render never shows an edge beyond max_sample" false
    (string_contains rendered "11");
  (* Trailing bins entirely above the support collapse rather than invent
     out-of-range buckets: span 1..3 in 3 bins of width 1 is exact, but
     1..2 in 3 bins leaves an empty third bin. *)
  let h' = Prelude.Histogram.of_samples ~bins:3 [ 1; 2 ] in
  Alcotest.(check (list (triple int int int))) "degenerate trailing bin"
    [ (1, 1, 1); (2, 2, 1); (2, 2, 0) ]
    (Prelude.Histogram.bins h')

let prop_histogram_edges_bounded =
  QCheck.Test.make ~name:"bin edges stay within [min_sample, max_sample]"
    ~count:200
    QCheck.(pair (int_range 1 8) (list_of_size (Gen.int_range 1 50) (int_range (-100) 100)))
    (fun (bins, samples) ->
       QCheck.assume (samples <> []);
       let h = Prelude.Histogram.of_samples ~bins samples in
       List.for_all
         (fun (lo, hi, _) ->
            lo >= Prelude.Histogram.min_sample h
            && hi <= Prelude.Histogram.max_sample h)
         (Prelude.Histogram.bins h))

(* --- Json -------------------------------------------------------------- *)

let test_json_escaping () =
  let module J = Prelude.Json in
  Alcotest.(check string) "quotes and backslashes"
    {|"a\"b\\c"|} (J.to_string (J.String {|a"b\c|}));
  Alcotest.(check string) "named control escapes"
    {|"a\nb\tc\rd\be\ff"|}
    (J.to_string (J.String "a\nb\tc\rd\be\012f"));
  Alcotest.(check string) "other control chars as \\u00xx"
    {|"\u0000\u0001\u001f"|}
    (J.to_string (J.String "\000\001\031"));
  (* UTF-8 payloads pass through untouched. *)
  Alcotest.(check string) "utf-8 preserved" "\"\xc3\xa9\""
    (J.to_string (J.String "\xc3\xa9"))

let test_json_escaping_round_trip () =
  let module J = Prelude.Json in
  List.iter
    (fun s ->
       Alcotest.(check (option string)) ("round trip " ^ String.escaped s)
         (Some s)
         (J.string_value (J.parse_exn (J.to_string (J.String s)))))
    [ ""; "plain"; {|a"b\c|}; "tab\there"; "nl\nthere"; "\000\031";
      "slash / unescaped"; "\xe2\x82\xac" (* euro sign, 3-byte UTF-8 *) ]

let test_json_float_formatting () =
  let module J = Prelude.Json in
  (* Stability: printing the parsed value reprints the same text. *)
  List.iter
    (fun f ->
       let s = J.float_string f in
       Alcotest.(check string) ("stable " ^ s) s
         (J.float_string (float_of_string s));
       Alcotest.(check bool) ("re-parses as float: " ^ s) true
         (match J.parse_exn s with J.Float _ -> true | _ -> false))
    [ 0.; 1.; -1.; 0.125; 0.1; 3.14159; 1e-9; 6.02e23; 123456.789;
      0.0019600391387939453; Float.max_float; Float.min_float ];
  (* Exact value round trip through parse. *)
  List.iter
    (fun f ->
       Alcotest.(check (option (float 0.))) "exact through parse" (Some f)
         (J.float_value (J.parse_exn (J.float_string f))))
    [ 0.125; 0.1; 1e300; -2.5e-7 ];
  (* Non-finite floats have no JSON representation: the emitter refuses
     them loudly instead of silently writing null (a caller that wants
     null writes Json.Null explicitly, like lib/sampling/estimate.ml). *)
  List.iter
    (fun f ->
       match J.float_string f with
       | s -> Alcotest.failf "emitted %S for a non-finite float" s
       | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  List.iter
    (fun f ->
       match J.to_string (J.Obj [ ("x", J.Float f) ]) with
       | s -> Alcotest.failf "document emitter produced %S" s
       | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* Regression: `1e400` used to parse to [Float infinity] — a value the
   emitter cannot round-trip. Out-of-double-range literals are now parse
   errors; everything representable still gets through. *)
let test_json_overflow_rejected () =
  let module J = Prelude.Json in
  List.iter
    (fun bad ->
       match J.parse bad with
       | Ok j -> Alcotest.failf "accepted %S as %s" bad (J.to_string j)
       | Error message ->
         Alcotest.(check bool)
           (Printf.sprintf "%S error mentions range: %s" bad message)
           true
           (let lowered = String.lowercase_ascii message in
            let contains needle =
              let n = String.length needle and l = String.length lowered in
              let rec go i =
                i + n <= l && (String.sub lowered i n = needle || go (i + 1))
              in
              go 0
            in
            contains "range"))
    [ "1e400"; "-1e400"; "1e999"; "[1e400]"; "{\"x\": -1.5e400}";
      (* An integer literal too wide for both int and double. *)
      "1" ^ String.make 400 '0' ];
  (* The edge of the representable range still parses. *)
  List.iter
    (fun good ->
       match J.parse good with
       | Ok (J.Float f) ->
         Alcotest.(check bool) (good ^ " parses finite") true
           (Float.is_finite f)
       | Ok j -> Alcotest.failf "%S parsed as %s" good (J.to_string j)
       | Error m -> Alcotest.failf "%S rejected: %s" good m)
    [ "1e308"; "1.7976931348623157e308"; "-1e308"; "2.5e-324" ]

let test_json_parser () =
  let module J = Prelude.Json in
  Alcotest.(check bool) "document with every construct" true
    (J.parse_exn
       {| {"null": null, "t": true, "f": false, "int": -42,
           "float": 2.5e-1, "arr": [1, 2, 3], "nested": {"k": "v"},
           "unicode": "é😀", "empty": [], "eobj": {}} |}
     = J.Obj
         [ ("null", J.Null); ("t", J.Bool true); ("f", J.Bool false);
           ("int", J.Int (-42)); ("float", J.Float 0.25);
           ("arr", J.List [ J.Int 1; J.Int 2; J.Int 3 ]);
           ("nested", J.Obj [ ("k", J.String "v") ]);
           ("unicode", J.String "\xc3\xa9\xf0\x9f\x98\x80");
           ("empty", J.List []); ("eobj", J.Obj []) ]);
  List.iter
    (fun bad ->
       match J.parse bad with
       | Ok _ -> Alcotest.failf "accepted malformed input %S" bad
       | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated";
      "\"bad \\x escape\""; "\"\\ud800 unpaired\""; "01x"; "nan" ]

let prop_json_round_trip =
  let module J = Prelude.Json in
  let rec gen_json depth =
    let open QCheck.Gen in
    let scalar =
      oneof
        [ return J.Null;
          map (fun b -> J.Bool b) bool;
          map (fun n -> J.Int n) (int_range (-1000000) 1000000);
          map (fun f -> J.Float f) (float_range (-1e6) 1e6);
          map (fun s -> J.String s) (string_size ~gen:printable (int_range 0 12)) ]
    in
    if depth = 0 then scalar
    else
      oneof
        [ scalar;
          map (fun items -> J.List items)
            (list_size (int_range 0 4) (gen_json (depth - 1)));
          map (fun fields -> J.Obj fields)
            (list_size (int_range 0 4)
               (pair (string_size ~gen:printable (int_range 0 8))
                  (gen_json (depth - 1)))) ]
  in
  QCheck.Test.make ~name:"json parse (to_string j) = j" ~count:200
    (QCheck.make (gen_json 3))
    (fun j ->
       J.parse_exn (J.to_string j) = j
       && J.parse_exn (J.to_string_pretty j) = j)

(* --- Mono ---------------------------------------------------------------
   The monotonic clock behind every deadline and elapsed-time measurement:
   it must never run backwards and its sleep must deliver the full duration
   even when signals interrupt the underlying nanosleep (regression for the
   wall-clock Unix.gettimeofday it replaced, which jumps under NTP). *)

let test_mono_nondecreasing () =
  let last = ref (Prelude.Mono.now ()) in
  for _ = 1 to 10_000 do
    let t = Prelude.Mono.now () in
    if t < !last then
      Alcotest.failf "clock ran backwards: %.9f after %.9f" t !last;
    last := t
  done;
  let a = Prelude.Mono.now_ns () in
  let b = Prelude.Mono.now_ns () in
  Alcotest.(check bool) "now_ns non-decreasing" true (Int64.compare a b <= 0)

let test_mono_sleep_duration () =
  let t0 = Prelude.Mono.now () in
  Prelude.Mono.sleep 0.02;
  let elapsed = Prelude.Mono.now () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "slept the full budget (%.4fs)" elapsed)
    true (elapsed >= 0.02);
  (* Zero and negative durations return immediately. *)
  let t0 = Prelude.Mono.now () in
  Prelude.Mono.sleep 0.;
  Prelude.Mono.sleep (-1.);
  Alcotest.(check bool) "no sleep for <= 0" true
    (Prelude.Mono.now () -. t0 < 0.01)

let test_mono_sleep_eintr () =
  (* Interrupt the sleep with a 5 ms interval timer: every SIGALRM makes
     nanosleep return EINTR. The sleep must absorb the interruptions and
     still deliver the full 60 ms (the naive Unix.sleepf returns short). *)
  let ticks = ref 0 in
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> incr ticks))
  in
  let stop_timer () =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = 0.; it_value = 0. });
    Sys.set_signal Sys.sigalrm previous
  in
  Fun.protect ~finally:stop_timer (fun () ->
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_interval = 0.005; it_value = 0.005 });
      let t0 = Prelude.Mono.now () in
      Prelude.Mono.sleep 0.06;
      let elapsed = Prelude.Mono.now () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "full duration despite %d interrupts (%.4fs)" !ticks
           elapsed)
        true (elapsed >= 0.06);
      Alcotest.(check bool) "the timer actually interrupted the sleep" true
        (!ticks >= 1))

let test_instrument_now_is_monotonic () =
  (* Instrument.now is the chokepoint every deadline reads; it must be the
     monotonic clock, not wall time. The two clocks share an origin only by
     construction, so equality-of-source is checked behaviourally: calls
     are non-decreasing and track Mono.now's scale. *)
  let i0 = Prelude.Instrument.now () in
  let m0 = Prelude.Mono.now () in
  Prelude.Mono.sleep 0.01;
  let i1 = Prelude.Instrument.now () in
  let m1 = Prelude.Mono.now () in
  Alcotest.(check bool) "non-decreasing" true (i1 >= i0);
  let di = i1 -. i0 and dm = m1 -. m0 in
  Alcotest.(check bool)
    (Printf.sprintf "tracks Mono.now (%.4fs vs %.4fs)" di dm)
    true
    (di >= 0.01 && Float.abs (di -. dm) < 0.01)

(* --- Table / Listx ---------------------------------------------------- *)

let test_table_render () =
  let t = Prelude.Table.make ~header:[ "a"; "bb" ] in
  Prelude.Table.add_row t [ "xx"; "y" ];
  Prelude.Table.add_separator t;
  Prelude.Table.add_row t [ "z" ];
  let rendered = Prelude.Table.render t in
  Alcotest.(check bool) "contains header" true
    (String.length rendered > 0 && String.sub rendered 0 1 = "|")

let test_listx_range () =
  Alcotest.(check (list int)) "range 2 5" [ 2; 3; 4 ] (Prelude.Listx.range 2 5);
  Alcotest.(check (list int)) "empty range" [] (Prelude.Listx.range 5 2)

let test_listx_cartesian_pairs () =
  Alcotest.(check int) "cartesian size" 6
    (List.length (Prelude.Listx.cartesian [ 1; 2 ] [ 3; 4; 5 ]));
  Alcotest.(check int) "pairs size" 4
    (List.length (Prelude.Listx.pairs [ 1; 2 ]))

let test_listx_take_uniq_sum () =
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Prelude.Listx.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take beyond" [ 1 ] (Prelude.Listx.take 5 [ 1 ]);
  Alcotest.(check (list int)) "uniq" [ 1; 2; 3 ]
    (Prelude.Listx.uniq Stdlib.compare [ 3; 1; 2; 1; 3 ]);
  Alcotest.(check int) "sum" 6 (Prelude.Listx.sum [ 1; 2; 3 ])

let test_listx_transpose () =
  Alcotest.(check (list (list int))) "transpose"
    [ [ 1; 3 ]; [ 2; 4 ] ]
    (Prelude.Listx.transpose [ [ 1; 2 ]; [ 3; 4 ] ])

(* --- Lineio -------------------------------------------------------------- *)

module Lineio = Prelude.Lineio

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
        List.iter
          (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          [ a; b ])
    (fun () -> f a b)

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

let test_lineio_lines_and_partial () =
  with_socketpair (fun a b ->
      write_all a "one\ntwo\n";
      let r = Lineio.reader b in
      (match Lineio.read_line r with
       | `Line l -> Alcotest.(check string) "first line" "one" l
       | _ -> Alcotest.fail "expected first line");
      (match Lineio.read_line r with
       | `Line l -> Alcotest.(check string) "second line" "two" l
       | _ -> Alcotest.fail "expected second line");
      (* A torn final frame (no newline before the peer hangs up) comes
         back as Partial, then the stream is at Eof. *)
      write_all a "torn";
      Unix.close a;
      (match Lineio.read_line r with
       | `Partial l -> Alcotest.(check string) "torn tail" "torn" l
       | _ -> Alcotest.fail "expected the torn tail as Partial");
      match Lineio.read_line r with
      | `Eof -> ()
      | _ -> Alcotest.fail "expected Eof after the partial tail")

let test_lineio_line_spanning_chunks () =
  (* A line much longer than the reader's internal chunk comes back whole
     (and, under the cap, unharmed). *)
  with_socketpair (fun a b ->
      let long = String.make 20_000 'y' in
      write_all a (long ^ "\n");
      Unix.close a;
      let r = Lineio.reader b in
      match Lineio.read_line r with
      | `Line l ->
        Alcotest.(check int) "full length" 20_000 (String.length l);
        Alcotest.(check string) "bytes preserved" long l
      | _ -> Alcotest.fail "expected the long line")

let test_lineio_oversized_keeps_alignment () =
  (* Discarding an over-cap frame must leave the stream aligned on the
     next newline: the following request is read intact. *)
  with_socketpair (fun a b ->
      write_all a (String.make 64 'x' ^ "\nok\n");
      Unix.close a;
      let r = Lineio.reader b ~max_line:16 in
      (match Lineio.read_line r with
       | `Oversized -> ()
       | _ -> Alcotest.fail "expected Oversized for the 64-byte frame");
      match Lineio.read_line r with
      | `Line l -> Alcotest.(check string) "stream still aligned" "ok" l
      | _ -> Alcotest.fail "expected the next line after the discard")

let test_lineio_idle_budget () =
  with_socketpair (fun a b ->
      let r = Lineio.reader b in
      let t0 = Prelude.Mono.now () in
      (match Lineio.read_line ~idle_s:0.05 r with
       | `Idle ->
         let elapsed = Prelude.Mono.now () -. t0 in
         Alcotest.(check bool)
           (Printf.sprintf "waited the budget (%.4fs)" elapsed)
           true (elapsed >= 0.05)
       | _ -> Alcotest.fail "expected Idle on a silent peer");
      (* The reader survives an idle verdict: data arriving later is read
         normally. *)
      write_all a "late\n";
      match Lineio.read_line ~idle_s:1. r with
      | `Line l -> Alcotest.(check string) "line after idle" "late" l
      | _ -> Alcotest.fail "expected the late line")

let test_lineio_write_line_closed () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  with_socketpair (fun a b ->
      Unix.close b;
      (* The peer is gone; one of the first writes must report Closed
         (the kernel may buffer the very first one). *)
      let rec poke tries =
        match Lineio.write_line a "hello" with
        | Error `Closed -> ()
        | Error `Timeout -> Alcotest.fail "unexpected timeout"
        | Ok () when tries > 0 -> poke (tries - 1)
        | Ok () -> Alcotest.fail "writes to a closed peer kept succeeding"
      in
      poke 10)

let test_lineio_validation () =
  with_socketpair (fun _a b ->
      (match Lineio.reader ~max_line:0 b with
       | exception Invalid_argument _ -> ()
       | _ -> Alcotest.fail "max_line 0 must be rejected");
      let r = Lineio.reader b in
      (match Lineio.read_line ~idle_s:0. r with
       | exception Invalid_argument _ -> ()
       | _ -> Alcotest.fail "idle_s 0 must be rejected");
      match Lineio.write_line ~deadline_s:(-1.) b "x" with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "negative deadline must be rejected")

(* A first close counts nothing; closing the same descriptor again finds
   it closed and counts exactly one. Nothing opens a descriptor between
   the two closes, so the second cannot hit a reused number. *)
let test_lineio_close_counts_ebadf () =
  let fd = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let before = Lineio.bad_closes () in
  Lineio.close fd;
  Alcotest.(check int) "first close counts nothing" before
    (Lineio.bad_closes ());
  Lineio.close fd;
  Alcotest.(check int) "second close counts one" (before + 1)
    (Lineio.bad_closes ())

let () =
  Alcotest.run "prelude"
    [ ("ratio",
       [ Alcotest.test_case "normalisation" `Quick test_ratio_normalisation;
         Alcotest.test_case "arithmetic" `Quick test_ratio_arith;
         Alcotest.test_case "division by zero" `Quick test_ratio_division_by_zero;
         Alcotest.test_case "comparison" `Quick test_ratio_compare;
         Alcotest.test_case "rendering" `Quick test_ratio_to_string;
         QCheck_alcotest.to_alcotest prop_ratio_add_commutative;
         QCheck_alcotest.to_alcotest prop_ratio_mul_associative;
         QCheck_alcotest.to_alcotest prop_ratio_distributive;
         QCheck_alcotest.to_alcotest prop_ratio_add_neg;
         QCheck_alcotest.to_alcotest prop_ratio_normalised;
         Alcotest.test_case "overflow avoided by gcd reduction" `Quick
           test_ratio_overflow_reduced;
         Alcotest.test_case "unrepresentable results raise Overflow" `Quick
           test_ratio_overflow_raises;
         Alcotest.test_case "exact compare near max_int" `Quick
           test_ratio_compare_exact_near_max;
         Alcotest.test_case "exact compare with min_int numerators" `Quick
           test_ratio_compare_min_int ]);
      ("stats",
       [ Alcotest.test_case "basic summary" `Quick test_stats_basic;
         Alcotest.test_case "even median" `Quick test_stats_even_median;
         Alcotest.test_case "single sample" `Quick test_stats_single;
         Alcotest.test_case "empty input" `Quick test_stats_empty;
         Alcotest.test_case "min/max over ints" `Quick test_min_max_int_list ]);
      ("rng",
       [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
         Alcotest.test_case "bounds" `Quick test_rng_bounds;
         Alcotest.test_case "pick and shuffle" `Quick test_rng_pick_shuffle;
         Alcotest.test_case "invalid bound" `Quick test_rng_invalid_bound;
         Alcotest.test_case "split" `Quick test_rng_split_independent;
         QCheck_alcotest.to_alcotest prop_shuffle_uniform_over_permutations;
         QCheck_alcotest.to_alcotest prop_shuffle_is_permutation ]);
      ("histogram",
       [ Alcotest.test_case "binning" `Quick test_histogram_bins;
         Alcotest.test_case "single value" `Quick test_histogram_single_value;
         Alcotest.test_case "marker rendering" `Quick test_histogram_render_markers;
         Alcotest.test_case "edges clamped to max_sample" `Quick
           test_histogram_edge_clamped;
         QCheck_alcotest.to_alcotest prop_histogram_conserves_samples;
         QCheck_alcotest.to_alcotest prop_histogram_edges_bounded ]);
      ("json",
       [ Alcotest.test_case "string escaping" `Quick test_json_escaping;
         Alcotest.test_case "escaping round trip" `Quick
           test_json_escaping_round_trip;
         Alcotest.test_case "float formatting stability" `Quick
           test_json_float_formatting;
         Alcotest.test_case "parser" `Quick test_json_parser;
         Alcotest.test_case "out-of-range numbers rejected" `Quick
           test_json_overflow_rejected;
         QCheck_alcotest.to_alcotest prop_json_round_trip ]);
      ("mono",
       [ Alcotest.test_case "now never runs backwards" `Quick
           test_mono_nondecreasing;
         Alcotest.test_case "sleep delivers the full budget" `Quick
           test_mono_sleep_duration;
         Alcotest.test_case "sleep survives EINTR" `Quick
           test_mono_sleep_eintr;
         Alcotest.test_case "Instrument.now is monotonic" `Quick
           test_instrument_now_is_monotonic ]);
      ("table+listx",
       [ Alcotest.test_case "table render" `Quick test_table_render;
         Alcotest.test_case "range" `Quick test_listx_range;
         Alcotest.test_case "cartesian/pairs" `Quick test_listx_cartesian_pairs;
         Alcotest.test_case "take/uniq/sum" `Quick test_listx_take_uniq_sum;
         Alcotest.test_case "transpose" `Quick test_listx_transpose ]);
      ("lineio",
       [ Alcotest.test_case "lines then torn tail" `Quick
           test_lineio_lines_and_partial;
         Alcotest.test_case "line spanning internal chunks" `Quick
           test_lineio_line_spanning_chunks;
         Alcotest.test_case "oversized discard keeps alignment" `Quick
           test_lineio_oversized_keeps_alignment;
         Alcotest.test_case "idle budget" `Quick test_lineio_idle_budget;
         Alcotest.test_case "write to a closed peer" `Quick
           test_lineio_write_line_closed;
         Alcotest.test_case "parameter validation" `Quick
           test_lineio_validation;
         Alcotest.test_case "a second close counts EBADF" `Quick
           test_lineio_close_counts_ebadf ]) ]
