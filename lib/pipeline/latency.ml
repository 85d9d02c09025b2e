(* Iterative multiply/divide: the cycle count grows with the magnitude of
   the second operand. *)
let mul_latency operand =
  let magnitude = abs operand in
  if magnitude < 16 then 2 else if magnitude < 256 then 4 else 6

let div_latency operand =
  let magnitude = abs operand in
  if magnitude < 16 then 8 else if magnitude < 256 then 10 else 12

let mul_latency_max = 6
let div_latency_max = 12

let control_flow_cost = 2

let base ~operand ins =
  match ins with
  | Isa.Instr.Mul _ -> mul_latency operand
  | Isa.Instr.Div _ -> div_latency operand
  | Isa.Instr.Jmp _ | Isa.Instr.Call _ | Isa.Instr.Ret -> control_flow_cost
  | Isa.Instr.Nop | Isa.Instr.Alu _ | Isa.Instr.Alui _ | Isa.Instr.Li _
  | Isa.Instr.Ld _ | Isa.Instr.St _ | Isa.Instr.Sel _ | Isa.Instr.Br _
  | Isa.Instr.Halt -> 1

let base_worst ins =
  match ins with
  | Isa.Instr.Mul _ -> mul_latency_max
  | Isa.Instr.Div _ -> div_latency_max
  | Isa.Instr.Jmp _ | Isa.Instr.Call _ | Isa.Instr.Ret -> control_flow_cost
  | Isa.Instr.Nop | Isa.Instr.Alu _ | Isa.Instr.Alui _ | Isa.Instr.Li _
  | Isa.Instr.Ld _ | Isa.Instr.St _ | Isa.Instr.Sel _ | Isa.Instr.Br _
  | Isa.Instr.Halt -> 1

let base_best ins =
  match ins with
  | Isa.Instr.Mul _ -> mul_latency 0
  | Isa.Instr.Div _ -> div_latency 0
  | Isa.Instr.Jmp _ | Isa.Instr.Call _ | Isa.Instr.Ret -> control_flow_cost
  | Isa.Instr.Nop | Isa.Instr.Alu _ | Isa.Instr.Alui _ | Isa.Instr.Li _
  | Isa.Instr.Ld _ | Isa.Instr.St _ | Isa.Instr.Sel _ | Isa.Instr.Br _
  | Isa.Instr.Halt -> 1

let branch_mispredict_penalty = 2
