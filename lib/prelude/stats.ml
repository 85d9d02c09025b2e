type summary = {
  count : int;
  min : float;
  max : float;
  mean : float;
  stddev : float;
  median : float;
}

let summarize samples =
  match samples with
  | [] -> invalid_arg "Stats.summarize: empty sample list"
  | _ :: _ ->
    let sorted = List.sort Float.compare samples in
    let count = List.length sorted in
    let total = List.fold_left ( +. ) 0. sorted in
    let mean = total /. float_of_int count in
    let sq_dev x = (x -. mean) *. (x -. mean) in
    let sq_sum = List.fold_left (fun acc x -> acc +. sq_dev x) 0. sorted in
    (* Sample (Bessel-corrected) standard deviation: the samples are
       observations of a wider behaviour space, not the whole population.
       A single observation carries no spread information: stddev = 0. *)
    let stddev =
      if count < 2 then 0. else sqrt (sq_sum /. float_of_int (count - 1))
    in
    let median =
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      if n mod 2 = 1 then arr.(n / 2)
      else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.
    in
    { count; min = List.nth sorted 0; max = List.nth sorted (count - 1);
      mean; stddev; median }

let summarize_ints samples = summarize (List.map float_of_int samples)

let min_int_list = function
  | [] -> invalid_arg "Stats.min_int_list: empty list"
  | x :: rest -> List.fold_left Stdlib.min x rest

let max_int_list = function
  | [] -> invalid_arg "Stats.max_int_list: empty list"
  | x :: rest -> List.fold_left Stdlib.max x rest

(* Empirical quantile with linear interpolation between order statistics
   (the "type 7" definition shared by R and NumPy): p = 0 is the minimum,
   p = 1 the maximum. [quantile_sorted] assumes its array is already
   sorted ascending — the sampling estimators' bootstrap loops call it per
   resample and must not pay a re-sort each time. *)
let quantile_sorted arr p =
  if Array.length arr = 0 then
    invalid_arg "Stats.quantile: empty sample list";
  if p < 0. || p > 1. || Float.is_nan p then
    invalid_arg "Stats.quantile: p must be within [0, 1]";
  let n = Array.length arr in
  let h = p *. float_of_int (n - 1) in
  let k = int_of_float (Float.floor h) in
  let k' = Stdlib.min (n - 1) (k + 1) in
  arr.(k) +. ((h -. float_of_int k) *. (arr.(k') -. arr.(k)))

let quantile samples p =
  let arr = Array.of_list (List.sort Float.compare samples) in
  quantile_sorted arr p

let spread s = s.max -. s.min
