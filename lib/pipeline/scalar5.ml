type state = Inorder.state = {
  mem : Mem_system.t;
  predictor : Branchpred.Predictor.t;
}

let state = Inorder.state

type result = {
  cycles : int;
  final : state;
  stalls : int;
  mispredictions : int;
}

(* Recurrences (all of the form max/plus, hence monotone in every input,
   which is what makes the machine anomaly-free):

   d_i : delivery of instruction i by the front end
         d_i = max(d_{i-1}, flush_barrier) + fetch_cost_i
   e_i : entry into EX
         e_i = max(d_i + 1, e_{i-1} + occ_{i-1}, operand constraints)
   occ_i : EX/MEM occupancy = execute latency, plus the data-memory stall
           for loads/stores.
   Completion of the program = e_last + occ_last + 2 (MEM + WB of the last
   instruction). *)
let run ?(start_delay = 0) program st outcome =
  let trace = outcome.Isa.Exec.trace in
  let n = Array.length trace in
  if n = 0 then
    { cycles = start_delay; final = st; stalls = 0; mispredictions = 0 }
  else begin
    let mem = ref st.mem in
    let predictor = ref st.predictor in
    let mispredictions = ref 0 in
    let reg_ready = Array.make Isa.Reg.count 0 in
    let loaded_by = Array.make Isa.Reg.count false in
    let stalls = ref 0 in
    let deliver = ref start_delay in
    let ex_free = ref 0 in
    let flush_barrier = ref 0 in
    let last_completion = ref 0 in
    Array.iter
      (fun (ev : Isa.Exec.event) ->
         let fetch_cost, mem' =
           Mem_system.fetch !mem (Isa.Program.instr_address program ev.pc)
         in
         mem := mem';
         let data_cost, mem' =
           match ev.addr with
           | Some addr -> Mem_system.data !mem addr
           | None -> (0, !mem)
         in
         mem := mem';
         let d = Stdlib.max !deliver !flush_barrier + fetch_cost in
         deliver := d;
         (* Operand readiness, with forwarding: ALU results forward into EX,
            loaded values become available one stage later. *)
         let operands_ready =
           List.fold_left
             (fun acc r ->
                let idx = Isa.Reg.index r in
                let ready =
                  reg_ready.(idx) + if loaded_by.(idx) then 1 else 0
                in
                Stdlib.max acc ready)
             0 (Isa.Instr.uses ev.ins)
         in
         let ideal = d + 1 in
         let e = Stdlib.max ideal (Stdlib.max !ex_free operands_ready) in
         stalls := !stalls + (e - ideal);
         let occ =
           Latency.base ~operand:ev.operand ev.ins
           + Stdlib.max 0 (data_cost - 1)
         in
         ex_free := e + occ;
         List.iter
           (fun r ->
              let idx = Isa.Reg.index r in
              reg_ready.(idx) <- e + occ;
              loaded_by.(idx) <-
                (match ev.ins with Isa.Instr.Ld _ -> true | _ -> false))
           (Isa.Instr.defs ev.ins);
         (* Control flow resolved in EX: redirect the front end. *)
         (match Trace_util.branch_event program ev, ev.ins with
          | Some event, _ ->
            let correct =
              Branchpred.Predictor.predict !predictor event = event.taken
            in
            predictor := Branchpred.Predictor.update !predictor event;
            if not correct then begin
              incr mispredictions;
              flush_barrier := e + occ + Latency.branch_mispredict_penalty - 1;
              stalls := !stalls + Latency.branch_mispredict_penalty
            end
          | None, (Isa.Instr.Jmp _ | Isa.Instr.Call _ | Isa.Instr.Ret) ->
            (* Target known in ID: one slot lost. *)
            flush_barrier := e;
            incr stalls
          | None, _ -> ());
         last_completion := Stdlib.max !last_completion (e + occ + 2))
      trace;
    { cycles = !last_completion;
      final = { mem = !mem; predictor = !predictor };
      stalls = !stalls;
      mispredictions = !mispredictions }
  end

let time program st input =
  let outcome = Isa.Exec.run program input in
  (run program st outcome).cycles
