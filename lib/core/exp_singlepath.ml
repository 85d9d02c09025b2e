(* TAB2.R6 — Single-path paradigm (Puschner-Burns): if-convert every
   input-dependent branch so all executions follow one instruction sequence.
   On a machine without value-dependent latencies the execution time becomes
   a constant: input-induced predictability IIPr rises to exactly 1, while
   the functional results are unchanged. *)

let machine = Pipeline.Inorder.state ()  (* perfect memory, static BTFN *)

let equivalent program_a program_b (w : Isa.Workload.t) input =
  let a = Isa.Exec.run program_a input and b = Isa.Exec.run program_b input in
  List.for_all
    (fun r -> Isa.Exec.result_reg a r = Isa.Exec.result_reg b r)
    w.Isa.Workload.result_regs

let analyse (w : Isa.Workload.t) =
  let sp = Singlepath.Transform.transform w in
  let program, _ = Isa.Workload.program w in
  let sp_program, _ = Isa.Workload.program sp in
  let times prog =
    List.map
      (fun input -> Pipeline.Inorder.time prog machine input)
      w.Isa.Workload.inputs
  in
  let orig_times = times program and sp_times = times sp_program in
  let iipr samples =
    Prelude.Ratio.make
      (Prelude.Stats.min_int_list samples) (Prelude.Stats.max_int_list samples)
  in
  let all_equivalent =
    List.for_all (equivalent program sp_program w) w.Isa.Workload.inputs
  in
  let single_path =
    List.for_all
      (fun (f : Isa.Ast.func) -> Singlepath.Transform.is_single_path f.Isa.Ast.body)
      sp.Isa.Workload.funcs
  in
  (w, iipr orig_times, iipr sp_times,
   Prelude.Stats.max_int_list orig_times, Prelude.Stats.max_int_list sp_times,
   all_equivalent, single_path)

let run () =
  let workloads =
    [ Isa.Workload.max_array ~n:12; Isa.Workload.clamp ();
      Isa.Workload.crc ~bits:8 ]
  in
  let rows = List.map analyse workloads in
  let table =
    Prelude.Table.make
      ~header:[ "workload"; "IIPr before"; "IIPr after"; "WCET before";
                "WCET after"; "results preserved" ]
  in
  let checks = ref [] in
  List.iter
    (fun (w, iipr_orig, iipr_sp, wcet_orig, wcet_sp, equivalent, single_path) ->
       let name = w.Isa.Workload.name in
       Prelude.Table.add_row table
         [ name; Harness.ratio_string iipr_orig; Harness.ratio_string iipr_sp;
           string_of_int wcet_orig; string_of_int wcet_sp;
           string_of_bool equivalent ];
       checks :=
         Report.check (name ^ ": transformed code is single-path") single_path
         :: Report.check (name ^ ": IIPr = 1 after transformation")
           (Prelude.Ratio.equal iipr_sp Prelude.Ratio.one)
         :: Report.check (name ^ ": IIPr < 1 before transformation")
           Prelude.Ratio.(iipr_orig < Prelude.Ratio.one)
         :: Report.check (name ^ ": functional results preserved") equivalent
         :: !checks)
    rows;
  { Report.title = "Single-path paradigm: input-induced variability eliminated";
    body = Prelude.Table.render table;
    checks = List.rev !checks }
