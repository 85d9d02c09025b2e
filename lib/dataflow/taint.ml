type env = {
  regs : int;   (* bitmask over Isa.Reg.index: register may depend on taint *)
  mem : bool;   (* some data-memory cell may depend on taint *)
}

let bottom = { regs = 0; mem = false }

module Env_lattice = struct
  type t = env

  let equal a b = a.regs = b.regs && a.mem = b.mem
  let join a b = { regs = a.regs lor b.regs; mem = a.mem || b.mem }

  (* Finite lattice (2^17 elements): join is its own widening. *)
  let widen _old next = next
end

let reg_bit r = 1 lsl Isa.Reg.index r
let reg_tainted env r = env.regs land reg_bit r <> 0
let mem_tainted env = env.mem

(* Transfer of one instruction. [implicit] is the control taint of the
   enclosing block: inside the influence region of a tainted branch,
   whether a write executes at all depends on the secret, so every
   definition is tainted regardless of its operands (implicit flow).
   Writes of untainted values outside such regions kill the destination
   bit (a strong update — sound because registers are not aliased, and
   monotone because the killed value does not depend on the state).
   Stores only ever weaken: the single [mem] bit stands for the whole
   data region, so an untainted store cannot untaint other cells. *)
let transfer_instr ~implicit env ins =
  let set rd v =
    if v then { env with regs = env.regs lor reg_bit rd }
    else { env with regs = env.regs land lnot (reg_bit rd) }
  in
  match ins with
  | Isa.Instr.Nop | Isa.Instr.Br _ | Isa.Instr.Jmp _ | Isa.Instr.Call _
  | Isa.Instr.Ret | Isa.Instr.Halt -> env
  | Isa.Instr.Alu (_, rd, ra, rb) | Isa.Instr.Mul (rd, ra, rb)
  | Isa.Instr.Div (rd, ra, rb) ->
    set rd (implicit || reg_tainted env ra || reg_tainted env rb)
  | Isa.Instr.Alui (_, rd, ra, _) -> set rd (implicit || reg_tainted env ra)
  | Isa.Instr.Li (rd, _) -> set rd implicit
  | Isa.Instr.Ld (rd, ra, _) ->
    set rd (implicit || reg_tainted env ra || env.mem)
  | Isa.Instr.St (rs, ra, _) ->
    if implicit || reg_tainted env rs || reg_tainted env ra then
      { env with mem = true }
    else env
  | Isa.Instr.Sel (rd, rc, ra, rb) ->
    set rd
      (implicit || reg_tainted env rc || reg_tainted env ra
       || reg_tainted env rb)

type result = {
  cfg : Cfg.t;
  in_states : env option array;
  ctl : bool array;  (* per block: in the influence region of a tainted Br *)
  seeds : env;
}

module S = Solver.Make (Env_lattice)

let block_out cfg ctl block env =
  List.fold_left
    (fun e (_, ins) -> transfer_instr ~implicit:ctl.(block.Cfg.id) e ins)
    env (Cfg.instrs cfg block)

let analyze ?(seeds = bottom) program =
  let cfg = Cfg.build program in
  let blocks = Cfg.blocks cfg in
  let n = Array.length blocks in
  let pdom = Cfg.postdominators cfg in
  let ctl = Array.make n false in
  let solve () =
    let transfer block env =
      let out = block_out cfg ctl block env in
      List.map (fun succ -> (succ, out)) block.Cfg.succs
    in
    S.solve ~cfg ~init:seeds ~transfer ()
  in
  (* Outer fixpoint over the control-taint marks. A branch whose operands
     are tainted makes everything in its influence region control-tainted;
     the extra implicit flows can taint further branch operands, so
     re-solve until the mark set is stable. Marks only ever grow and the
     set is finite, so this terminates; each round's dataflow solve is
     monotone in the marks, so the final state is a sound fixpoint. *)
  let rec fix () =
    let in_states = solve () in
    let grew = ref false in
    Array.iter
      (fun b ->
         match (in_states.(b.Cfg.id), Cfg.terminator cfg b) with
         | Some env, (_, Isa.Instr.Br (_, ra, rb, _)) ->
           let env = block_out cfg ctl b env in
           if reg_tainted env ra || reg_tainted env rb then begin
             let region = Cfg.influence_region cfg ~pdom b.Cfg.id in
             Array.iteri
               (fun d inside ->
                  if inside && not ctl.(d) then begin
                    ctl.(d) <- true;
                    grew := true
                  end)
               region
           end
         | _ -> ())
      blocks;
    if !grew then fix () else in_states
  in
  let in_states = fix () in
  { cfg; in_states; ctl; seeds }

let control_tainted t pc = t.ctl.(Cfg.block_of_pc t.cfg pc)

let instr_envs t =
  let collect block =
    match t.in_states.(block.Cfg.id) with
    | None -> []
    | Some env ->
      let _, acc =
        List.fold_left
          (fun (env, acc) (pc, ins) ->
             ( transfer_instr ~implicit:t.ctl.(block.Cfg.id) env ins,
               (pc, ins, env) :: acc ))
          (env, []) (Cfg.instrs t.cfg block)
      in
      List.rev acc
  in
  List.concat_map collect (Array.to_list (Cfg.blocks t.cfg))

let final_env t =
  let halts =
    List.filter_map
      (fun block ->
         match (Cfg.terminator t.cfg block, t.in_states.(block.Cfg.id)) with
         | (_, Isa.Instr.Halt), Some env ->
           Some (block_out t.cfg t.ctl block env)
         | _, _ -> None)
      (Array.to_list (Cfg.blocks t.cfg))
  in
  match halts with
  | [] -> { regs = (1 lsl Isa.Reg.count) - 1; mem = true }
  | first :: rest -> List.fold_left Env_lattice.join first rest

(* --- Time channels ------------------------------------------------------ *)

type channel =
  | Branch   (* tainted conditional-branch outcome: path/predictor channel *)
  | Latency  (* tainted second operand of Mul/Div: value-dependent latency *)
  | Address  (* tainted effective address of Ld/St: data-cache channel *)

type leak = {
  pc : int;
  ins : Isa.Instr.t;
  channel : channel;
}

let channel_name = function
  | Branch -> "branch"
  | Latency -> "latency"
  | Address -> "address"

let leaks t =
  let of_instr (pc, ins, env) =
    match ins with
    | Isa.Instr.Br (_, ra, rb, _) ->
      if reg_tainted env ra || reg_tainted env rb then
        [ { pc; ins; channel = Branch } ]
      else []
    (* The in-order model's Mul/Div latency depends only on the second
       source operand (Exec records [operand = rb]; Latency.base consumes
       it), so a tainted [ra] alone does not leak through latency. *)
    | Isa.Instr.Mul (_, _, rb) | Isa.Instr.Div (_, _, rb) ->
      if reg_tainted env rb then [ { pc; ins; channel = Latency } ] else []
    | Isa.Instr.Ld (_, ra, _) | Isa.Instr.St (_, ra, _) ->
      if reg_tainted env ra then [ { pc; ins; channel = Address } ] else []
    | _ -> []
  in
  List.concat_map of_instr (instr_envs t)

(* --- Workload seeding --------------------------------------------------- *)

(* A register (or the data region) is uncertain exactly when its initial
   value varies across the workload's admissible input set I — the paper's
   input-dependence source. Input lists follow Exec's conventions: absent
   bindings read 0 and the last binding wins. *)
let input_reg_value (input : Isa.Exec.input) r =
  List.fold_left
    (fun acc (r', v) -> if Isa.Reg.equal r' r then v else acc)
    0 input.Isa.Exec.regs

let canonical_mem (input : Isa.Exec.input) =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (a, v) -> Hashtbl.replace tbl a v) input.Isa.Exec.mem;
  let cells = Hashtbl.fold (fun a v acc -> (a, v) :: acc) tbl [] in
  List.sort compare (List.filter (fun (_, v) -> v <> 0) cells)

let seeds_of_inputs inputs =
  match inputs with
  | [] | [ _ ] -> bottom
  | first :: rest ->
    let mentioned =
      List.concat_map (fun (i : Isa.Exec.input) -> List.map fst i.regs) inputs
    in
    let varies r =
      let v0 = input_reg_value first r in
      List.exists (fun i -> input_reg_value i r <> v0) rest
    in
    let regs =
      List.fold_left
        (fun m r -> if varies r then m lor reg_bit r else m)
        0 mentioned
    in
    let m0 = canonical_mem first in
    let mem = List.exists (fun i -> canonical_mem i <> m0) rest in
    { regs; mem }

let of_workload (w : Isa.Workload.t) =
  let program, _shapes = Isa.Workload.program w in
  analyze ~seeds:(seeds_of_inputs w.inputs) program
