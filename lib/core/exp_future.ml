(* TAB1.R7 — Wilhelm et al., recommendations for future time-critical
   architectures: prefer compositional cores (in-order, no domino effects)
   with LRU caches over out-of-order cores with less analysable replacement
   policies. Here the same workload runs on both: the recommended machine
   shows strictly less state-induced timing variability, and its timing
   model is compositional by construction (per-instruction costs sum). *)

type recommended_state = Pipeline.Inorder.state

type conventional_state = {
  mem : Pipeline.Mem_system.t;
  units : int * int;
}

let run () =
  let w = Isa.Workload.crc ~bits:10 in
  let program, _ = Isa.Workload.program w in
  (* Machine A: in-order, LRU instruction/data caches, static BTFN. *)
  let recommended_states : recommended_state list =
    Harness.inorder_states program w
  in
  let matrix_a =
    Quantify.evaluate ~states:recommended_states ~inputs:w.Isa.Workload.inputs
      ~time:(Pipeline.Inorder.time program) ()
  in
  (* Machine B: greedy dual-unit OoO with FIFO caches. *)
  let fifo_config =
    { Harness.icache_config with Cache.Set_assoc.kind = Cache.Policy.Fifo }
  in
  let fifo_dconfig =
    { Harness.dcache_config with Cache.Set_assoc.kind = Cache.Policy.Fifo }
  in
  let instr_universe = Harness.instruction_universe program in
  let data_universe =
    match Harness.data_universe w with
    | [] -> [ Isa.Workload.data_base ]
    | u -> u
  in
  let icaches =
    Cache.Set_assoc.state_samples fifo_config ~universe:instr_universe
      ~count:5 ~seed:0xf1f0
  in
  let dcaches =
    Cache.Set_assoc.state_samples fifo_dconfig ~universe:data_universe
      ~count:5 ~seed:0xd1f0
  in
  let unit_states = [ (0, 0); (4, 1); (1, 6); (5, 5); (2, 0); (0, 3) ] in
  let conventional_states =
    List.map2
      (fun (icache, dcache) units ->
         { mem =
             { Pipeline.Mem_system.imem =
                 Pipeline.Mem_system.Cached
                   { cache = icache; hit = Harness.icache_hit;
                     miss = Harness.icache_miss };
               dmem =
                 Pipeline.Mem_system.Cached
                   { cache = dcache; hit = Harness.dcache_hit;
                     miss = Harness.dcache_miss } };
           units })
      (List.combine icaches dcaches)
      unit_states
  in
  let matrix_b =
    Quantify.evaluate ~states:conventional_states ~inputs:w.Isa.Workload.inputs
      ~time:(fun q input ->
          let config = Pipeline.Ooo.trace_config ~mem:q.mem () in
          Pipeline.Ooo.time config ~init:q.units program input) ()
  in
  let table =
    Prelude.Table.make ~header:[ "architecture"; "SIPr"; "Pr"; "BCET"; "WCET" ]
  in
  let row name matrix =
    Prelude.Table.add_row table
      [ name; Harness.ratio_string (Quantify.sipr matrix);
        Harness.ratio_string (Quantify.pr matrix);
        string_of_int (Quantify.bcet matrix);
        string_of_int (Quantify.wcet matrix) ]
  in
  row "recommended: in-order + LRU caches (compositional)" matrix_a;
  row "conventional: greedy OoO + FIFO caches" matrix_b;
  let body =
    Prelude.Table.render table
    ^ "domino effects: the greedy OoO dispatcher admits them (see EQ4); the\n\
       in-order machine cannot — its per-instruction costs sum, so state\n\
       differences are absorbed, never amplified.\n"
  in
  { Report.title = "Future architectures: compositional in-order + LRU vs OoO + FIFO";
    body;
    checks =
      [ Report.check "recommended architecture has higher SIPr"
          Prelude.Ratio.(Quantify.sipr matrix_a >= Quantify.sipr matrix_b);
        Report.check "recommended architecture has higher overall Pr"
          Prelude.Ratio.(Quantify.pr matrix_a >= Quantify.pr matrix_b) ] }
