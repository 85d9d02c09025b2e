type state = {
  mem : Mem_system.t;
  predictor : Branchpred.Predictor.t;
}

let state ?(mem = Mem_system.perfect)
    ?(predictor = Branchpred.Predictor.static Branchpred.Predictor.Btfn) () =
  { mem; predictor }

type result = {
  cycles : int;
  final : state;
  mispredictions : int;
  fetch_cycles : int;
  data_cycles : int;
}

let run program st outcome =
  let step (cycles, st, mispred, fetch_total, data_total) (ev : Isa.Exec.event) =
    let fetch_cost, mem = Mem_system.fetch st.mem (Isa.Program.instr_address program ev.pc) in
    let exec_cost = Latency.base ~operand:ev.operand ev.ins in
    let data_cost, mem =
      match ev.addr with
      | Some addr -> Mem_system.data mem addr
      | None -> (0, mem)
    in
    let branch_cost, predictor, mispred =
      match Trace_util.branch_event program ev with
      | Some event ->
        let correct =
          Branchpred.Predictor.predict st.predictor event = event.taken
        in
        let predictor = Branchpred.Predictor.update st.predictor event in
        ((if correct then 0 else Latency.branch_mispredict_penalty),
         predictor, if correct then mispred else mispred + 1)
      | None -> (0, st.predictor, mispred)
    in
    (cycles + fetch_cost + exec_cost + data_cost + branch_cost,
     { mem; predictor },
     mispred, fetch_total + fetch_cost, data_total + data_cost)
  in
  let cycles, final, mispredictions, fetch_cycles, data_cycles =
    Array.fold_left step (0, st, 0, 0, 0) outcome.Isa.Exec.trace
  in
  { cycles; final; mispredictions; fetch_cycles; data_cycles }

let time program st input =
  let outcome = Isa.Exec.run program input in
  (run program st outcome).cycles
