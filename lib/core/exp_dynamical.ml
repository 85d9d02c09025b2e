(* RW.DYN — Bernardes' predictability of discrete dynamical systems: an
   isometric map (circle rotation) accumulates shadowing error only
   additively and stays predictable; expansive maps (tent, logistic at r=4)
   amplify the error exponentially. *)

let delta = 1e-4
let steps = 16

let run () =
  let systems =
    [ ("rotation(0.382)", Dynamical.rotation ~alpha:0.382, 0.2);
      ("tent", Dynamical.tent, 0.237);
      ("logistic(r=4)", Dynamical.logistic ~r:4.0, 0.237) ]
  in
  let table =
    Prelude.Table.make
      ~header:[ "system"; "width after 4 steps"; "width after 16 steps";
                "linear budget"; "predictable?" ]
  in
  let verdicts =
    List.map
      (fun (name, f, x0) ->
         let profile = Dynamical.width_profile ~f ~x0 ~delta ~steps in
         let at k = List.nth profile (k - 1) in
         let verdict = Dynamical.predictable ~f ~x0 ~delta ~steps in
         Prelude.Table.add_row table
           [ name; Printf.sprintf "%.2e" (at 4); Printf.sprintf "%.2e" (at steps);
             Printf.sprintf "%.2e" (2. *. (2. *. delta *. float_of_int (steps + 1)));
             string_of_bool verdict ];
         (name, verdict))
      systems
  in
  let verdict_of name = List.assoc name verdicts in
  { Report.title = "Bernardes: dynamical-system predictability via delta-shadowing";
    body = Prelude.Table.render table;
    checks =
      [ Report.check "circle rotation is predictable" (verdict_of "rotation(0.382)");
        Report.check "tent map is unpredictable" (not (verdict_of "tent"));
        Report.check "logistic map (r=4) is unpredictable"
          (not (verdict_of "logistic(r=4)")) ] }
