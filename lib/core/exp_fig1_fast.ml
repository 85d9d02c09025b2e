(* FIG1.FAST — the fast-path equivalence oracle, machine-checked per
   workload: the compositional fast-path engine (block summaries, packed
   replay, memoized cells addressed through a grid) must reproduce the exact
   cycle-accurate T_p(q,i) matrix bit for bit — for every registry
   workload, at jobs 1/2/4/8, with the memo table on and off, and again on
   a warm memo. Any fast-path shortcut that changes a single cell turns
   the whole speedup into a lie; this oracle is the gate that lets the
   experiments and the benchmark suite time cells through
   Harness.inorder_timer instead of the interpreter. Its matrices (at
   most 144 cells) are under Quantify.inline_cells, so they run on the
   calling domain at every job count; test_fastpath pins the pool path of
   batched rows. *)

type row = {
  name : string;
  cells : int;
  engines_agree : bool;   (* fast (memo on) = exact at jobs 1/2/4/8 *)
  unmemoized_agree : bool;
  warm_agree : bool;      (* re-evaluation through a warm memo *)
}

let jobs_grid = [ 1; 2; 4; 8 ]

let measure (name, make) =
  let w : Isa.Workload.t = make () in
  let program, _ = Isa.Workload.program w in
  let states = Harness.inorder_states program w in
  let inputs = Prelude.Listx.take Sampled.input_cap w.Isa.Workload.inputs in
  let exact =
    Quantify.evaluate ~jobs:1 ~states ~inputs
      ~time:(Harness.inorder_time program) ()
  in
  let fast_matrix ~memo jobs timer_opt =
    let timer =
      match timer_opt with
      | Some t -> t
      | None -> Harness.inorder_timer ~memo program
    in
    (Quantify.evaluate_timer ~jobs ~states ~inputs timer, timer)
  in
  let engines_agree, warm_agree =
    List.fold_left
      (fun (agree, warm) jobs ->
         let m, timer = fast_matrix ~memo:true jobs None in
         (* The same timer again: every cell now answers from the memo. *)
         let m', _ = fast_matrix ~memo:true jobs (Some timer) in
         (agree && m = exact, warm && m' = exact))
      (true, true) jobs_grid
  in
  let unmemoized_agree =
    List.for_all
      (fun jobs -> fst (fast_matrix ~memo:false jobs None) = exact)
      jobs_grid
  in
  { name; cells = List.length states * List.length inputs;
    engines_agree; unmemoized_agree; warm_agree }

let run () =
  let rows = Prelude.Parallel.map measure Isa.Workload.registry in
  let table =
    Prelude.Table.make
      ~header:[ "workload"; "cells"; "fast = exact (jobs 1/2/4/8)";
                "memo off"; "warm memo" ]
  in
  let yn b = if b then "yes" else "NO" in
  List.iter
    (fun r ->
       Prelude.Table.add_row table
         [ r.name; string_of_int r.cells; yn r.engines_agree;
           yn r.unmemoized_agree; yn r.warm_agree ])
    rows;
  { Report.id = "FIG1.FAST";
    title = "Fast-path equivalence oracle: engines produce bit-identical matrices";
    body = Prelude.Table.render table;
    checks =
      [ Report.check
          "fast matrix = exact matrix for every workload at jobs 1/2/4/8"
          (List.for_all (fun r -> r.engines_agree) rows);
        Report.check "agreement holds with the memo table disabled"
          (List.for_all (fun r -> r.unmemoized_agree) rows);
        Report.check "re-evaluation through a warm memo is unchanged"
          (List.for_all (fun r -> r.warm_agree) rows) ] }
