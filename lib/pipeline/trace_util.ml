let branch_event program (ev : Isa.Exec.event) =
  match ev.ins, ev.taken with
  | Isa.Instr.Br (_, _, _, target), Some taken ->
    Some { Branchpred.Predictor.pc = ev.pc;
           backward = Isa.Program.resolve program target <= ev.pc;
           taken }
  | _, _ -> None

let branch_events program outcome =
  List.filter_map (branch_event program) (Array.to_list outcome.Isa.Exec.trace)

let is_boundary (ev : Isa.Exec.event) = Isa.Instr.is_control ev.ins

let block_signature outcome =
  let finish (blocks, current) = List.rev (if current > 0 then current :: blocks else blocks) in
  let step (blocks, current) ev =
    if is_boundary ev then (current + 1 :: blocks, 0) else (blocks, current + 1)
  in
  finish (Array.fold_left step ([], 0) outcome.Isa.Exec.trace)
