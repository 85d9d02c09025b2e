type 'a level = {
  label : string;
  state_count : int;
  input_count : int;
  pr : Prelude.Ratio.t;
  sipr : Prelude.Ratio.t;
  iipr : Prelude.Ratio.t;
}

let profile ~states ~inputs ~time ~cuts () =
  if states = [] then invalid_arg "Extent.profile: empty state set";
  if inputs = [] then invalid_arg "Extent.profile: empty input set";
  if cuts = [] then invalid_arg "Extent.profile: no cuts";
  let clamp n limit = Stdlib.max 1 (Stdlib.min n limit) in
  let level (label, n_states, n_inputs) =
    let state_count = clamp n_states (List.length states) in
    let input_count = clamp n_inputs (List.length inputs) in
    (* The cuts are tiny: a pool spawn per cut would dominate them. *)
    let matrix =
      Quantify.evaluate ~jobs:1
        ~states:(Prelude.Listx.take state_count states)
        ~inputs:(Prelude.Listx.take input_count inputs) ~time ()
    in
    { label; state_count; input_count;
      pr = Quantify.pr matrix;
      sipr = Quantify.sipr matrix;
      iipr = Quantify.iipr matrix }
  in
  List.map level cuts

let antitone levels =
  let rec check = function
    | a :: (b :: _ as rest) -> Prelude.Ratio.(b.pr <= a.pr) && check rest
    | [] | [ _ ] -> true
  in
  check levels
