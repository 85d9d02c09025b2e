type matrix = int array array  (* indexed [state][input] *)

type ('q, 'i) timer =
  | Scalar of ('q -> 'i -> int)
  | Batched of { grid : 'q array -> 'i array -> int -> int -> int }

(* Below this many cells a batched matrix stays on the calling domain: a
   fan-out spawns and joins its helper domains on every call, about 0.17 ms
   at jobs 2 and 1.5-2 ms at jobs 8 for six rows on a 2-core host, which
   dwarfs the fast-path rows of a small matrix. Scalar matrices (the exact
   reference) always fan out, so that path stays exercised. *)
let inline_cells = 2048

(* Rows on different domains can reject a time at the same moment, and
   Parallel then raises Multiple_failures; keep the documented
   Invalid_argument. *)
let invalid_first f =
  try f () with
  | Prelude.Parallel.Multiple_failures { first = Invalid_argument _ as e; _ } ->
    Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ())

(* The timer as a function of a (state, input) index pair. *)
let cell_of timer states inputs =
  match timer with
  | Scalar time -> fun q i -> time states.(q) inputs.(i)
  | Batched { grid } -> grid states inputs

let evaluate_timer ?jobs ~states ~inputs timer =
  if states = [] then invalid_arg "Quantify.evaluate: empty state set";
  if inputs = [] then invalid_arg "Quantify.evaluate: empty input set";
  let inputs = Array.of_list inputs in
  let states = Array.of_list states in
  let check t =
    if t <= 0 then
      invalid_arg "Quantify.evaluate: execution times must be positive"
  in
  (* Validation happens in place on the worker's own result — one pass over
     freshly produced cells, no second sweep or copy on the caller. *)
  let cell = cell_of timer states inputs in
  let row q =
    Array.init (Array.length inputs) (fun i ->
        let t = cell q i in
        check t;
        t)
  in
  let cells = Array.length states * Array.length inputs in
  (* Rows of the T_p(q, i) matrix are independent, so they may fan out
     across domains. Ordering (and thus every min/max below) is
     deterministic for any job count, inline or fanned out. *)
  let m =
    match timer with
    | Batched _ when cells < inline_cells ->
      Array.init (Array.length states) (fun q ->
          Prelude.Parallel.check_deadline ();
          row q)
    | Scalar _ | Batched _ ->
      invalid_first (fun () ->
          Prelude.Parallel.map_array ?jobs row
            (Array.init (Array.length states) Fun.id))
  in
  Prelude.Instrument.add_cells cells;
  Prelude.Instrument.add_evals cells;
  m

let evaluate ?jobs ~states ~inputs ~time () =
  evaluate_timer ?jobs ~states ~inputs (Scalar time)

(* Sampled evaluation: estimate the quantities from a seeded subset of
   cells instead of materialising Q x I. The sampler draws cells by index,
   so a batched timer's grid serves them — with Harness.inorder_timer that
   is the fast-path engine, whose memo table turns the with-replacement
   draws' repeats into hits. *)
let sample ?jobs ~spec ~states ~inputs timer =
  if states = [] then invalid_arg "Quantify.sample: empty state set";
  if inputs = [] then invalid_arg "Quantify.sample: empty input set";
  let states = Array.of_list states in
  let inputs = Array.of_list inputs in
  let cell = cell_of timer states inputs in
  let time q i =
    let t = cell q i in
    if t <= 0 then
      invalid_arg "Quantify.sample: execution times must be positive";
    t
  in
  let r =
    invalid_first (fun () ->
        Sampling.Sampler.run ?jobs ~spec ~n_states:(Array.length states)
          ~n_inputs:(Array.length inputs) ~time ())
  in
  (* Sampled mode touches [evals] cells, not Q x I: credit what ran. *)
  Prelude.Instrument.add_cells r.Sampling.Sampler.evals;
  Prelude.Instrument.add_evals r.Sampling.Sampler.evals;
  r

let fold_matrix f init m =
  Array.fold_left (fun acc row -> Array.fold_left f acc row) init m

let min_all m = fold_matrix Stdlib.min max_int m
let max_all m = fold_matrix Stdlib.max 0 m

(* Shared by the quantifiers and [of_rows]: Defs. 3-5 are minima over a
   non-empty rectangular T_p(q, i) matrix; an empty or ragged value has no
   meaning (iipr [||] used to return Ratio.one silently while sipr [||]
   raised — now both reject both degeneracies with the same message
   shape). *)
let validate name m =
  if Array.length m = 0 then invalid_arg (name ^ ": empty matrix");
  let input_count = Array.length m.(0) in
  if input_count = 0 then invalid_arg (name ^ ": empty rows");
  Array.iter
    (fun row ->
       if Array.length row <> input_count then
         invalid_arg (name ^ ": ragged matrix"))
    m

let of_rows rows =
  validate "Quantify.of_rows" rows;
  Array.iter
    (Array.iter
       (fun t ->
          if t <= 0 then
            invalid_arg "Quantify.of_rows: execution times must be positive"))
    rows;
  Array.map Array.copy rows

let pr m =
  validate "Quantify.pr" m;
  Prelude.Ratio.make (min_all m) (max_all m)

let column m j = Array.map (fun row -> row.(j)) m

let ratio_of_extremes values =
  let mn = Array.fold_left Stdlib.min max_int values in
  let mx = Array.fold_left Stdlib.max 0 values in
  Prelude.Ratio.make mn mx

let sipr m =
  validate "Quantify.sipr" m;
  let input_count = Array.length m.(0) in
  let per_input = List.init input_count (fun j -> ratio_of_extremes (column m j)) in
  List.fold_left Prelude.Ratio.min Prelude.Ratio.one per_input

let iipr m =
  validate "Quantify.iipr" m;
  let per_state = Array.to_list (Array.map ratio_of_extremes m) in
  List.fold_left Prelude.Ratio.min Prelude.Ratio.one per_state

let bcet = min_all
let wcet = max_all

let times m =
  List.concat_map Array.to_list (Array.to_list m)

let predictability ?jobs ~states ~inputs ~time () =
  let m = evaluate ?jobs ~states ~inputs ~time () in
  (pr m, sipr m, iipr m)
