(* EXT.EXTENT — the Section-2 refinement "distinguish the extent of
   uncertainty": partial knowledge about the initial hardware state or the
   program input directly buys predictability. Pr is evaluated along a
   chain of growing uncertainty sets for binary search: from (one known
   state, keys from a narrow band) up to (all sampled states, all keys). *)

let run () =
  let w = Isa.Workload.bsearch ~n:16 in
  let program, _ = Isa.Workload.program w in
  let states = Harness.inorder_states program w in
  (* A nested chain (each level's sets contain the previous level's), so
     antitonicity of Pr is the mathematical expectation, not an accident. *)
  let cuts =
    [ ("state and input known", 1, 1);
      ("input known, 3 possible states", 3, 1);
      ("3 states x 8 keys", 3, 8);
      ("6 states x 8 keys", 6, 8);
      ("full uncertainty", List.length states, List.length w.Isa.Workload.inputs) ]
  in
  let levels =
    Extent.profile ~states ~inputs:w.Isa.Workload.inputs
      ~time:(Harness.inorder_time program) ~cuts ()
  in
  let table =
    Prelude.Table.make
      ~header:[ "uncertainty extent"; "|Q|"; "|I|"; "Pr"; "SIPr"; "IIPr" ]
  in
  List.iter
    (fun (l : _ Extent.level) ->
       Prelude.Table.add_row table
         [ l.Extent.label; string_of_int l.Extent.state_count;
           string_of_int l.Extent.input_count;
           Harness.ratio_string l.Extent.pr;
           Harness.ratio_string l.Extent.sipr;
           Harness.ratio_string l.Extent.iipr ])
    levels;
  let full_pr =
    match List.rev levels with
    | last :: _ -> last.Extent.pr
    | [] -> Prelude.Ratio.one
  in
  let first_pr =
    match levels with
    | first :: _ -> first.Extent.pr
    | [] -> Prelude.Ratio.one
  in
  { Report.id = "EXT.EXTENT";
    title = "Extent of uncertainty: partial knowledge buys predictability";
    body = Prelude.Table.render table;
    checks =
      [ Report.check "no uncertainty means perfect predictability (Pr = 1)"
          (Prelude.Ratio.equal first_pr Prelude.Ratio.one);
        Report.check "Pr is antitone along the growing-uncertainty chain"
          (Extent.antitone levels);
        Report.check "full uncertainty is strictly less predictable"
          Prelude.Ratio.(full_pr < first_pr) ] }
