type spec = {
  n_cells : int;
  per_stratum : int;
  confidence : float;
  resamples : int;
  tail_fraction : float;
  exceed_p : float;
  seed : int;
}

let default =
  { n_cells = 384;
    per_stratum = 32;
    confidence = 0.99;
    resamples = 200;
    tail_fraction = 0.25;
    exceed_p = 0.001;
    seed = 0x5a3d }

let validate spec =
  if spec.n_cells < 2 then
    invalid_arg "Sampler.run: n_cells must be >= 2";
  if spec.per_stratum < 2 then
    invalid_arg "Sampler.run: per_stratum must be >= 2";
  if
    Float.is_nan spec.confidence || spec.confidence <= 0.
    || spec.confidence >= 1.
  then invalid_arg "Sampler.run: confidence must be in (0, 1)";
  if spec.resamples < 0 then
    invalid_arg "Sampler.run: resamples must be >= 0";
  Tail.validate ~tail_fraction:spec.tail_fraction ~exceed_p:spec.exceed_p

type cell = {
  q : int;
  i : int;
  t : int;
}

type result = {
  spec : spec;
  n_states : int;
  n_inputs : int;
  cells : cell array;
  pr : Estimate.t;
  sipr : Estimate.t;
  iipr : Estimate.t;
  mean : Estimate.t;
  bcet_tail : Estimate.t;
  wcet_tail : Estimate.t;
  evals : int;
}

(* Substream keys under the root generator. Every consumer of randomness
   gets its own keyed stream: the drawn cells, each stratum, and each
   bootstrap are mutually independent and — crucially — independent of
   evaluation order, so results are bit-identical for any worker-domain
   count. *)
let key_cells = 1
let key_sipr = 2
let key_iipr = 3
let key_boot_pr = 4
let key_boot_sipr = 5
let key_boot_iipr = 6
let key_boot_bcet = 7
let key_boot_wcet = 8

let check_time t =
  if t <= 0 then
    invalid_arg "Sampler.run: execution times must be positive";
  t

let extremes_ratio times =
  let mn = Array.fold_left Stdlib.min max_int times in
  let mx = Array.fold_left Stdlib.max 0 times in
  float_of_int mn /. float_of_int mx

(* [extremes_ratio] of one with-replacement resample of [times] drawn
   from [rng]: the drawn indices land in [idx] (one buffer per estimate,
   [Array.length times] long), and the min and max run over them instead
   of over a materialised resample array. *)
let[@inline] resampled_ratio rng idx times =
  let n = Array.length times in
  Prelude.Rng.fill rng n idx;
  let mn = ref max_int and mx = ref 0 in
  for k = 0 to n - 1 do
    let x = times.(idx.(k)) in
    if x < !mn then mn := x;
    if x > !mx then mx := x
  done;
  float_of_int !mn /. float_of_int !mx

let ratio_estimate ~rng ~resamples ~confidence times =
  let n = Array.length times in
  if n = 0 then invalid_arg "Sampler.ratio_estimate: empty sample array";
  let idx = Array.make n 0 in
  Estimate.of_replicates ~confidence ~n ~value:(extremes_ratio times)
    (Array.init resamples (fun _ -> resampled_ratio rng idx times))

(* min over strata of (min/max within the stratum) — the sampled analogue
   of Defs. 4 and 5, with the stratum playing the fixed input (SIPr) or
   fixed state (IIPr). *)
let stratified_min_ratio strata =
  Array.fold_left
    (fun acc stratum -> Float.min acc (extremes_ratio stratum))
    1. strata

(* Hierarchical bootstrap: resample within every stratum (the strata
   themselves are exhaustive — one per input or per state — so they are
   not resampled), recompute the min-ratio, repeat. A replicate visits the
   strata in order, so it draws what resampling every stratum up front
   would, in the same order, and folds the same minimum. *)
let stratified_estimate ~rng ~resamples ~confidence strata =
  let idx = Array.map (fun s -> Array.make (Array.length s) 0) strata in
  let replicate _ =
    let acc = ref 1. in
    for s = 0 to Array.length strata - 1 do
      acc := Float.min !acc (resampled_ratio rng idx.(s) strata.(s))
    done;
    !acc
  in
  let n = Array.fold_left (fun acc s -> acc + Array.length s) 0 strata in
  Estimate.of_replicates ~confidence ~n ~value:(stratified_min_ratio strata)
    (Array.init resamples replicate)

let run ?jobs ~spec ~n_states ~n_inputs ~time () =
  validate spec;
  if n_states <= 0 then invalid_arg "Sampler.run: n_states must be positive";
  if n_inputs <= 0 then invalid_arg "Sampler.run: n_inputs must be positive";
  let root = Prelude.Rng.make spec.seed in
  let cell_master = Prelude.Rng.split_key root key_cells in
  let sipr_master = Prelude.Rng.split_key root key_sipr in
  let iipr_master = Prelude.Rng.split_key root key_iipr in
  (* Every coordinate is drawn here, on the caller, from a keyed stream:
     Monte-Carlo cell k (for Pr, the mean and the tails) draws q, then i,
     from stream k of [cell_master]; SIPr enumerates every input i and
     draws [per_stratum] states from stream i of [sipr_master]; IIPr
     enumerates every state q and draws inputs from stream q of
     [iipr_master]. No draw depends on worker identity. *)
  let ps = spec.per_stratum in
  let cell_coords =
    Array.init spec.n_cells (fun k ->
        let rng = Prelude.Rng.split_key cell_master k in
        let q = Prelude.Rng.int rng n_states in
        (q, Prelude.Rng.int rng n_inputs))
  in
  let strata_coords master n_strata bound coord =
    Array.concat
      (List.init n_strata (fun s ->
           let rng = Prelude.Rng.split_key master s in
           Array.init ps (fun _ -> coord s (Prelude.Rng.int rng bound))))
  in
  (* One fan-out evaluates every coordinate, and Parallel.map_array
     delivers the times by input index — the two halves of the cross-jobs
     determinism guarantee. *)
  let times =
    Prelude.Parallel.map_array ?jobs
      (fun (q, i) -> check_time (time q i))
      (Array.concat
         [ cell_coords;
           strata_coords sipr_master n_inputs n_states (fun i q -> (q, i));
           strata_coords iipr_master n_states n_inputs (fun q i -> (q, i)) ])
  in
  let cells =
    Array.mapi (fun k (q, i) -> { q; i; t = times.(k) }) cell_coords
  in
  let cell_times = Array.sub times 0 spec.n_cells in
  let strata at n_strata =
    Array.init n_strata (fun s -> Array.sub times (at + (s * ps)) ps)
  in
  let sipr_strata = strata spec.n_cells n_inputs in
  let iipr_strata = strata (spec.n_cells + (n_inputs * ps)) n_states in
  (* Every estimate below is a sequential fold over data already fixed
     above, with its own keyed bootstrap stream: jobs cannot affect it. *)
  let pr =
    ratio_estimate
      ~rng:(Prelude.Rng.split_key root key_boot_pr)
      ~resamples:spec.resamples ~confidence:spec.confidence cell_times
  in
  let stratified key strata =
    stratified_estimate
      ~rng:(Prelude.Rng.split_key root key)
      ~resamples:spec.resamples ~confidence:spec.confidence strata
  in
  let sipr = stratified key_boot_sipr sipr_strata in
  let iipr = stratified key_boot_iipr iipr_strata in
  let mean =
    Estimate.normal_mean ~confidence:spec.confidence
      (Array.to_list (Array.map float_of_int cell_times))
  in
  let tail side key =
    Tail.estimate
      ~rng:(Prelude.Rng.split_key root key)
      ~resamples:spec.resamples ~confidence:spec.confidence
      ~tail_fraction:spec.tail_fraction ~exceed_p:spec.exceed_p side
      cell_times
  in
  let bcet_tail = tail Tail.Lower key_boot_bcet in
  let wcet_tail = tail Tail.Upper key_boot_wcet in
  { spec; n_states; n_inputs; cells; pr; sipr; iipr; mean; bcet_tail;
    wcet_tail;
    evals = Array.length times }

let spec_to_json spec =
  Prelude.Json.Obj
    [ ("n_cells", Prelude.Json.Int spec.n_cells);
      ("per_stratum", Prelude.Json.Int spec.per_stratum);
      ("confidence", Prelude.Json.Float spec.confidence);
      ("resamples", Prelude.Json.Int spec.resamples);
      ("tail_fraction", Prelude.Json.Float spec.tail_fraction);
      ("exceed_p", Prelude.Json.Float spec.exceed_p);
      ("seed", Prelude.Json.Int spec.seed) ]

let fields r =
  [ ("n_states", Prelude.Json.Int r.n_states);
    ("n_inputs", Prelude.Json.Int r.n_inputs);
    ("seed", Prelude.Json.Int r.spec.seed);
    ("spec", spec_to_json r.spec);
    ("pr", Estimate.to_json r.pr);
    ("sipr", Estimate.to_json r.sipr);
    ("iipr", Estimate.to_json r.iipr);
    ("mean_time", Estimate.to_json r.mean);
    ("bcet_tail", Estimate.to_json r.bcet_tail);
    ("wcet_tail", Estimate.to_json r.wcet_tail);
    ("evals", Prelude.Json.Int r.evals) ]
