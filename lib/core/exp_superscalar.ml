(* TAB1.R2 — Rochange-Sainrat time-predictable execution mode: regulating
   the instruction flow at basic-block boundaries removes all timing
   dependencies between blocks, so a WCET analysis sees exactly one pipeline
   state at every block entry instead of one per reachable occupancy. The
   kernel below keeps a long-latency multiply in flight across the loop
   back-edge, which is precisely the cross-block state regulation kills. *)

let kernel_workload () =
  let open Isa.Instr in
  let r1 = Isa.Reg.r1 and r3 = Isa.Reg.r3 and r4 = Isa.Reg.r4
  and r5 = Isa.Reg.r5 and r6 = Isa.Reg.r6 and r7 = Isa.Reg.r7 in
  let body =
    Isa.Ast.Seq
      [ Isa.Ast.Block [ Li (r3, Isa.Workload.data_base); Li (r7, 0) ];
        Isa.Ast.Loop
          { count = 8; counter = r1;
            body =
              Isa.Ast.Block
                [ Alu (Add, r7, r7, r5);     (* consumes last iteration's Mul *)
                  Ld (r4, r3, 0);
                  Mul (r5, r4, r6);          (* in flight across the latch *)
                  Alui (Add, r3, r3, 1) ] } ]
  in
  let input magnitude seed =
    let rng = Prelude.Rng.make seed in
    Isa.Exec.input
      ~regs:[ (r6, magnitude) ]
      ~mem:(List.init 8 (fun i -> (Isa.Workload.data_base + i, Prelude.Rng.int rng 500)))
      ()
  in
  { Isa.Workload.name = "mul_chain_8";
    description = "loop with a multiply in flight across the back-edge";
    funcs = [ { Isa.Ast.name = "main"; body } ];
    inputs = [ input 2 1; input 300 2; input 70000 3 ];
    result_regs = [ r7 ] }

let initial_occupancies =
  [ [];
    [ (Isa.Reg.r5, 4) ];
    [ (Isa.Reg.r5, 6); (Isa.Reg.r6, 2) ];
    [ (Isa.Reg.r6, 5) ] ]

let run () =
  let w = kernel_workload () in
  let program, _shapes = Isa.Workload.program w in
  let evaluate regulate =
    let config = { Pipeline.Superscalar.width = 2; regulate } in
    (* Quantify.evaluate may call [time] from several worker domains, so the
       side-channel accumulator is mutex-guarded. Accumulation order varies
       with scheduling, but distinct_entry_signatures is a set cardinality,
       so the reported count is identical for any job count. *)
    let mu = Mutex.create () in
    let results = ref [] in
    let time init input =
      let result = Pipeline.Superscalar.run config ~init (Isa.Exec.run program input) in
      Mutex.lock mu;
      results := result :: !results;
      Mutex.unlock mu;
      result.Pipeline.Superscalar.cycles
    in
    let matrix =
      Quantify.evaluate ~states:initial_occupancies ~inputs:w.Isa.Workload.inputs
        ~time ()
    in
    (matrix, Pipeline.Superscalar.distinct_entry_signatures !results)
  in
  let plain_matrix, plain_signatures = evaluate false in
  let reg_matrix, reg_signatures = evaluate true in
  let table =
    Prelude.Table.make
      ~header:[ "mode"; "SIPr"; "WCET (cycles)"; "distinct BB-entry pipeline states" ]
  in
  let row name matrix signatures =
    Prelude.Table.add_row table
      [ name; Harness.ratio_string (Quantify.sipr matrix);
        string_of_int (Quantify.wcet matrix); string_of_int signatures ]
  in
  row "free-running (width 2)" plain_matrix plain_signatures;
  row "regulated at BB boundaries" reg_matrix reg_signatures;
  { Report.title = "Time-predictable superscalar execution mode (flow regulation)";
    body = Prelude.Table.render table;
    checks =
      [ Report.check "regulation leaves exactly one BB-entry pipeline state"
        (reg_signatures = 1);
        Report.check
          (Printf.sprintf
             "free-running pipeline has more BB-entry states (%d > 1)"
             plain_signatures)
          (plain_signatures > 1);
        Report.check "regulation does not decrease SIPr"
          Prelude.Ratio.(Quantify.sipr reg_matrix >= Quantify.sipr plain_matrix);
        Report.check "regulation costs throughput (WCET does not improve)"
          (Quantify.wcet reg_matrix >= Quantify.wcet plain_matrix) ] }
