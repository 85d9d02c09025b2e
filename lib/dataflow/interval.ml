type itv = {
  lo : int;
  hi : int;
}

let ninf = min_int
let pinf = max_int

(* Finite bounds are kept within [-limit, limit]; anything larger widens to
   the corresponding infinity (for [hi]) or is clamped inward (for [lo],
   which may only move down — both directions of the clamp are sound
   overapproximations). The margin below [max_int] means sums of two
   finite bounds can never wrap the native integers. *)
let limit = 1 lsl 50

let clamp_lo v =
  if v <= -limit then ninf else if v >= limit then limit else v

let clamp_hi v =
  if v >= limit then pinf else if v <= -limit then -limit else v

let norm lo hi = { lo = clamp_lo lo; hi = clamp_hi hi }

let top = { lo = ninf; hi = pinf }
let const n = norm n n

let make lo hi =
  if lo > hi then invalid_arg "Interval.make: lo > hi" else norm lo hi

(* The sentinels are min_int/max_int, so plain comparisons do the right
   thing: min_int <= v and v <= max_int always hold. *)
let mem v itv = itv.lo <= v && v <= itv.hi
let is_const itv = itv.lo = itv.hi
let join_itv a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let meet a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

let widen_itv old next =
  { lo = (if next.lo < old.lo then ninf else old.lo);
    hi = (if next.hi > old.hi then pinf else old.hi) }

let bound_string v =
  if v = ninf then "-oo" else if v = pinf then "+oo" else string_of_int v

let to_string itv =
  if itv.lo = ninf && itv.hi = pinf then "top"
  else Printf.sprintf "[%s, %s]" (bound_string itv.lo) (bound_string itv.hi)

(* --- Abstract arithmetic ---------------------------------------------- *)

let add_lo a b = if a = ninf || b = ninf then ninf else a + b
let add_hi a b = if a = pinf || b = pinf then pinf else a + b
(* Exec.alu_eval's addition wraps the native integers, so a sum that may
   pass an infinite bound answers top: +oo beside a positive upper bound,
   or -oo beside a negative lower bound. Every other sum stays in range. *)
let add a b =
  let may_wrap x y = (x = pinf && y > 0) || (x = ninf && y < 0) in
  if may_wrap a.hi b.hi || may_wrap b.hi a.hi || may_wrap a.lo b.lo
     || may_wrap b.lo a.lo
  then top
  else norm (add_lo a.lo b.lo) (add_hi a.hi b.hi)

(* Exec.alu_eval negates min_int to min_int, so a lower bound of -oo
   answers top rather than an upper bound of +oo. *)
let neg itv =
  if itv.lo = ninf then top
  else norm (if itv.hi = pinf then ninf else -itv.hi) (-itv.lo)

let sub a b = add a (neg b)

let finite itv = itv.lo <> ninf && itv.hi <> pinf

let corners f a b =
  let vs = [ f a.lo b.lo; f a.lo b.hi; f a.hi b.lo; f a.hi b.hi ] in
  norm (List.fold_left min max_int vs) (List.fold_left max min_int vs)

let mul a b =
  let small itv =
    finite itv && abs itv.lo <= 1 lsl 30 && abs itv.hi <= 1 lsl 30
  in
  if a = const 0 || b = const 0 then const 0
  else if small a && small b then corners ( * ) a b
  else top

let div a b =
  if mem 0 b || not (finite a) || not (finite b) then top
  else corners ( / ) a b

let nonneg itv = itv.lo >= 0

let band a b =
  if is_const a && is_const b && finite a && finite b then
    const (a.lo land b.lo)
  else if nonneg a && nonneg b then norm 0 (min a.hi b.hi)
  else top

let bor a b =
  if is_const a && is_const b && finite a && finite b then
    const (a.lo lor b.lo)
  else if nonneg a && nonneg b then
    (* For x, y >= 0: max(x, y) <= x lor y <= x + y. *)
    norm (max a.lo b.lo) (add_hi a.hi b.hi)
  else top

let bxor a b =
  if is_const a && is_const b && finite a && finite b then
    const (a.lo lxor b.lo)
  else if nonneg a && nonneg b then norm 0 (add_hi a.hi b.hi)
  else top

(* Shift amounts follow Exec.alu_eval: masked with [land 31]. *)
let mask31 k =
  if is_const k && finite k then const (k.lo land 31)
  else if k.lo >= 0 && k.hi <= 31 then k
  else make 0 31

let asr_bound v s = if v = ninf || v = pinf then v else v asr s

(* [x lsl s] is monotone in [x] and, for fixed sign of [x], monotone in
   [s]; [x asr s] likewise. Corner evaluation over the bound pairs is
   therefore sound. *)
let shift_corners f a k =
  let vs =
    [ f a.lo k.lo; f a.lo k.hi; f a.hi k.lo; f a.hi k.hi ]
  in
  norm (List.fold_left min max_int vs) (List.fold_left max min_int vs)

(* Exec.alu_eval shifts left without a check, so once [|x| > max_int asr
   (s + 1)] the result wraps the native integers and can land anywhere,
   either sign: a shift that may overflow is [top]. *)
let shl a k =
  let k = mask31 k in
  let fits v = abs v <= max_int asr (k.hi + 1) in
  if finite a && fits a.lo && fits a.hi then shift_corners ( lsl ) a k
  else top

let shr a k = shift_corners asr_bound a (mask31 k)

let slt a b =
  if a.hi < b.lo then const 1
  else if a.lo >= b.hi then const 0
  else make 0 1

let alu op a b =
  match op with
  | Isa.Instr.Add -> add a b
  | Isa.Instr.Sub -> sub a b
  | Isa.Instr.And -> band a b
  | Isa.Instr.Or -> bor a b
  | Isa.Instr.Xor -> bxor a b
  | Isa.Instr.Shl -> shl a b
  | Isa.Instr.Shr -> shr a b
  | Isa.Instr.Slt -> slt a b

(* --- Environments ------------------------------------------------------ *)

type env = itv array

let reg env r = env.(Isa.Reg.index r)

let env_equal a b =
  Array.for_all2 (fun x y -> x.lo = y.lo && x.hi = y.hi) a b

module Env_lattice = struct
  type t = env

  let equal = env_equal
  let join = Array.map2 join_itv
  let widen = Array.map2 widen_itv
end

let set env r v =
  let e = Array.copy env in
  e.(Isa.Reg.index r) <- v;
  e

let transfer_instr env ins =
  let get r = reg env r in
  match ins with
  | Isa.Instr.Nop | Isa.Instr.St _ | Isa.Instr.Br _ | Isa.Instr.Jmp _
  | Isa.Instr.Call _ | Isa.Instr.Ret | Isa.Instr.Halt -> env
  | Isa.Instr.Alu (op, rd, ra, rb) -> set env rd (alu op (get ra) (get rb))
  | Isa.Instr.Alui (op, rd, ra, imm) -> set env rd (alu op (get ra) (const imm))
  | Isa.Instr.Li (rd, imm) -> set env rd (const imm)
  | Isa.Instr.Mul (rd, ra, rb) -> set env rd (mul (get ra) (get rb))
  | Isa.Instr.Div (rd, ra, rb) -> set env rd (div (get ra) (get rb))
  | Isa.Instr.Ld (rd, _, _) -> set env rd top
  | Isa.Instr.Sel (rd, rc, ra, rb) ->
    let c = get rc in
    let v =
      if not (mem 0 c) then get ra
      else if is_const c then get rb
      else join_itv (get ra) (get rb)
    in
    set env rd v

let bpred v = if v = ninf || v = pinf then v else v - 1
let bsucc v = if v = ninf || v = pinf then v else v + 1

let exclude c itv =
  if is_const itv && itv.lo = c then None
  else if itv.lo = c then Some { itv with lo = c + 1 }
  else if itv.hi = c then Some { itv with hi = c - 1 }
  else Some itv

(* Refine the operand intervals of a taken comparison; [None] = the
   comparison cannot hold, i.e. the edge is infeasible. When [ra] and [rb]
   name the same register the second update wins, which is still an
   overapproximation. *)
let refine env cmp ra rb =
  let a = reg env ra and b = reg env rb in
  let pair a' b' = Some (set (set env ra a') rb b') in
  match cmp with
  | Isa.Instr.Eq ->
    (match meet a b with None -> None | Some m -> pair m m)
  | Isa.Instr.Ne ->
    if is_const a && is_const b && a.lo = b.lo then None
    else
      let a' = if is_const b && finite b then exclude b.lo a else Some a in
      let b' = if is_const a && finite a then exclude a.lo b else Some b in
      (match a', b' with
       | Some a', Some b' -> pair a' b'
       | None, _ | _, None -> None)
  | Isa.Instr.Lt ->
    let a_hi = min a.hi (bpred b.hi) and b_lo = max b.lo (bsucc a.lo) in
    if a.lo > a_hi || b_lo > b.hi then None
    else pair { a with hi = a_hi } { b with lo = b_lo }
  | Isa.Instr.Ge ->
    let a_lo = max a.lo b.lo and b_hi = min b.hi a.hi in
    if a_lo > a.hi || b.lo > b_hi then None
    else pair { a with lo = a_lo } { b with hi = b_hi }

type result = {
  cfg : Cfg.t;
  in_states : env option array;
}

module S = Solver.Make (Env_lattice)

let block_out cfg env block =
  List.fold_left
    (fun e (_, ins) -> transfer_instr e ins)
    env (Cfg.instrs cfg block)

let branch_edges cfg env' pc cmp ra rb target =
  let program = Cfg.program cfg in
  let taken_id = Cfg.block_of_pc cfg (Isa.Program.resolve program target) in
  let taken =
    match refine env' cmp ra rb with
    | Some e -> [ (taken_id, e) ]
    | None -> []
  in
  let fallthrough =
    if pc + 1 >= Isa.Program.length program then []
    else
      match refine env' (Isa.Instr.negate_cmp cmp) ra rb with
      | Some e -> [ (Cfg.block_of_pc cfg (pc + 1), e) ]
      | None -> []
  in
  taken @ fallthrough

let analyze program =
  let cfg = Cfg.build program in
  let transfer block env =
    let env' = block_out cfg env block in
    match Cfg.terminator cfg block with
    | pc, Isa.Instr.Br (cmp, ra, rb, target) ->
      branch_edges cfg env' pc cmp ra rb target
    | _, Isa.Instr.Halt -> []
    | _, _ -> List.map (fun succ -> (succ, env')) block.Cfg.succs
  in
  let init = Array.make Isa.Reg.count top in
  let in_states = S.solve ~cfg ~init ~transfer () in
  { cfg; in_states }

let cfg t = t.cfg

let instr_envs t =
  let collect block =
    match t.in_states.(block.Cfg.id) with
    | None -> []
    | Some env ->
      let _, acc =
        List.fold_left
          (fun (env, acc) (pc, ins) ->
             (transfer_instr env ins, (pc, ins, env) :: acc))
          (env, []) (Cfg.instrs t.cfg block)
      in
      List.rev acc
  in
  List.concat_map collect (Array.to_list (Cfg.blocks t.cfg))

let final_env t =
  let halts =
    List.filter_map
      (fun block ->
         match Cfg.terminator t.cfg block, t.in_states.(block.Cfg.id) with
         | (_, Isa.Instr.Halt), Some env -> Some (block_out t.cfg env block)
         | _, _ -> None)
      (Array.to_list (Cfg.blocks t.cfg))
  in
  match halts with
  | [] -> Array.make Isa.Reg.count top
  | first :: rest -> List.fold_left Env_lattice.join first rest

let dead_edges t =
  let of_block block =
    match Cfg.terminator t.cfg block, t.in_states.(block.Cfg.id) with
    | (pc, Isa.Instr.Br (cmp, ra, rb, _)), Some env ->
      let env' = block_out t.cfg env block in
      let dead_taken =
        match refine env' cmp ra rb with None -> [ (pc, `Taken) ] | Some _ -> []
      in
      let dead_fall =
        if pc + 1 >= Isa.Program.length (Cfg.program t.cfg) then []
        else
          match refine env' (Isa.Instr.negate_cmp cmp) ra rb with
          | None -> [ (pc, `Fallthrough) ]
          | Some _ -> []
      in
      dead_taken @ dead_fall
    | _, _ -> []
  in
  List.concat_map of_block (Array.to_list (Cfg.blocks t.cfg))
