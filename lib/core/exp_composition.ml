(* EXT.COMP — the paper's future work, made executable: derive the
   predictability of a composed execution from per-component bounds, and
   compare against the directly measured predictability of the composition.

   Components are three kernels whose [LB, UB] intervals come from the
   structural analysis (sound over *every* entry hardware state, which is
   what makes composing them legitimate: the intermediate states produced
   by one component are unknown to the next). The composition executes the
   kernels back-to-back with the hardware state carried across.

   Bounds compared:
   - weakest component:  min_j (LB_j / UB_j)           (classic folklore)
   - interval bound:     (Σ LB_j) / (Σ UB_j)           (mediant-dominates it)
   - direct:             exhaustive Pr of the concatenated execution.

   Both bounds must lie below the direct value (soundness); the interval
   bound is the tighter of the two. *)

type machine = Flat_machine | Cached_machine

let parts () =
  [ Isa.Workload.crc ~bits:6;
    Isa.Workload.max_array ~n:6;
    Isa.Workload.fir ~taps:2 ~samples:2 ]

let analysis_config machine =
  match machine with
  | Flat_machine ->
    { Analysis.Wcet.icache = Analysis.Wcet.Flat_fetch 1;
      dmem = Analysis.Wcet.Flat_data 1; unroll = true; budget = None }
  | Cached_machine -> Harness.cached_analysis ~unroll:true

let component_of machine (w : Isa.Workload.t) =
  let _, shapes = Isa.Workload.program w in
  let config = analysis_config machine in
  let ub =
    (Analysis.Wcet.bound config Analysis.Wcet.Upper ~shapes ~entry:"main").Analysis.Wcet.bound
  in
  let lb =
    (Analysis.Wcet.bound { config with unroll = false } Analysis.Wcet.Lower
       ~shapes ~entry:"main").Analysis.Wcet.bound
  in
  Composition.component ~label:w.Isa.Workload.name ~bcet:lb ~wcet:ub

(* Concatenated execution: the final hardware state of one kernel is the
   initial state of the next. *)
let concatenated_time programs_inputs initial_state =
  let step (total, state) (program, input) =
    let outcome = Isa.Exec.run program input in
    let result = Pipeline.Inorder.run program state outcome in
    (total + result.Pipeline.Inorder.cycles, result.Pipeline.Inorder.final)
  in
  fst (List.fold_left step (0, initial_state) programs_inputs)

let direct_pr machine =
  let part_programs =
    List.map (fun w -> (fst (Isa.Workload.program w), w)) (parts ())
  in
  let input_choices =
    List.map
      (fun (_, (w : Isa.Workload.t)) -> Prelude.Listx.take 3 w.Isa.Workload.inputs)
      part_programs
  in
  let triples =
    match input_choices with
    | [ a; b; c ] ->
      List.concat_map
        (fun ia -> List.concat_map (fun ib -> List.map (fun ic -> [ ia; ib; ic ]) c) b)
        a
    | _ -> assert false
  in
  let states =
    match machine with
    | Flat_machine -> [ Pipeline.Inorder.state () ]
    | Cached_machine ->
      (match part_programs with
       | (program, w) :: _ -> Harness.inorder_states program w
       | [] -> assert false)
  in
  let time state inputs =
    concatenated_time
      (List.map2 (fun (program, _) input -> (program, input)) part_programs inputs)
      state
  in
  let matrix = Quantify.evaluate ~states ~inputs:triples ~time () in
  Quantify.pr matrix

let run () =
  let table =
    Prelude.Table.make
      ~header:[ "machine"; "component [LB,UB]"; "weakest-component bound";
                "interval bound"; "direct Pr" ]
  in
  let analyse machine label =
    let components = List.map (component_of machine) (parts ()) in
    let weakest = Composition.weakest_component components in
    let interval = Composition.sequential_pr components in
    let direct = direct_pr machine in
    Prelude.Table.add_row table
      [ label;
        String.concat " "
          (List.map
             (fun (c : Composition.component) ->
                Printf.sprintf "[%d,%d]" c.Composition.bcet c.Composition.wcet)
             components);
        Harness.ratio_string weakest;
        Harness.ratio_string interval;
        Harness.ratio_string direct ];
    (weakest, interval, direct)
  in
  let flat_weakest, flat_interval, flat_direct =
    analyse Flat_machine "flat memory"
  in
  let cached_weakest, cached_interval, cached_direct =
    analyse Cached_machine "LRU caches"
  in
  { Report.title = "Compositional predictability (the paper's future work)";
    body = Prelude.Table.render table;
    checks =
      [ Report.check "mediant inequality: weakest <= interval bound"
          Prelude.Ratio.(flat_weakest <= flat_interval
                         && cached_weakest <= cached_interval);
        Report.check "interval bound sound on the flat machine"
          Prelude.Ratio.(flat_interval <= flat_direct);
        Report.check "interval bound sound on the cached machine"
          Prelude.Ratio.(cached_interval <= cached_direct);
        Report.check "interval composition strictly beats the weakest-component rule"
          Prelude.Ratio.(flat_weakest < flat_interval) ] }
