let all_regs = (1 lsl Isa.Reg.count) - 1

let mask_of regs =
  List.fold_left (fun m r -> m lor (1 lsl Isa.Reg.index r)) 0 regs

let mem_mask r m = m land (1 lsl Isa.Reg.index r) <> 0

let is_halt = function Isa.Instr.Halt -> true | _ -> false

(* gen/kill per block, computed by a backward walk so a use after a def in
   the same block does not make the register upward-exposed. *)
let gen_kill cfg block =
  List.fold_left
    (fun (gen, kill) (_, ins) ->
       let uses = mask_of (Isa.Instr.uses ins) in
       let defs = mask_of (Isa.Instr.defs ins) in
       ((gen land lnot defs) lor uses, kill lor defs))
    (0, 0)
    (List.rev (Cfg.instrs cfg block))

let live_out cfg =
  let blocks = Cfg.blocks cfg in
  let n = Array.length blocks in
  let gens = Array.make n 0 and kills = Array.make n 0 in
  Array.iter
    (fun b ->
       let g, k = gen_kill cfg b in
       gens.(b.Cfg.id) <- g;
       kills.(b.Cfg.id) <- k)
    blocks;
  let live_in = Array.make n 0 and live_out = Array.make n 0 in
  let halt_mask b =
    if is_halt (snd (Cfg.terminator cfg b)) then all_regs else 0
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for id = n - 1 downto 0 do
      let b = blocks.(id) in
      let out =
        List.fold_left (fun m s -> m lor live_in.(s)) (halt_mask b) b.Cfg.succs
      in
      let inn = gens.(id) lor (out land lnot kills.(id)) in
      if out <> live_out.(id) || inn <> live_in.(id) then begin
        live_out.(id) <- out;
        live_in.(id) <- inn;
        changed := true
      end
    done
  done;
  live_out

let written_to_halt cfg =
  let blocks = Cfg.blocks cfg in
  let n = Array.length blocks in
  let reach = Cfg.reachable cfg in
  (* Blocks from which some Halt-terminated block is reachable. *)
  let to_halt = Array.make n false in
  let rec visit id =
    if not to_halt.(id) then begin
      to_halt.(id) <- true;
      List.iter visit blocks.(id).Cfg.preds
    end
  in
  Array.iter
    (fun b -> if is_halt (snd (Cfg.terminator cfg b)) then visit b.Cfg.id)
    blocks;
  Array.fold_left
    (fun m b ->
       if reach.(b.Cfg.id) && to_halt.(b.Cfg.id) then
         List.fold_left
           (fun m (_, ins) -> m lor mask_of (Isa.Instr.defs ins))
           m (Cfg.instrs cfg b)
       else m)
    0 blocks

let dead_stores cfg =
  let out = live_out cfg in
  let reach = Cfg.reachable cfg in
  let of_block block =
    if not reach.(block.Cfg.id) then []
    else
      let _, found =
        List.fold_left
          (fun (liv, found) (pc, ins) ->
             let defs = Isa.Instr.defs ins in
             let found =
               List.fold_left
                 (fun acc r ->
                    if mem_mask r liv then acc else (pc, r) :: acc)
                 found defs
             in
             let liv =
               (liv land lnot (mask_of defs)) lor mask_of (Isa.Instr.uses ins)
             in
             (liv, found))
          (out.(block.Cfg.id), [])
          (List.rev (Cfg.instrs cfg block))
      in
      found
  in
  List.sort compare
    (List.concat_map of_block (Array.to_list (Cfg.blocks cfg)))

(* Must-assigned masks: meet is intersection, so join = land; the lattice
   is finite, so no widening beyond join is needed. *)
module Mask_lattice = struct
  type t = int

  let equal = Int.equal
  let join = ( land )
  let widen _ next = next
end

module S = Solver.Make (Mask_lattice)

let maybe_uninitialized cfg ~inputs =
  let transfer block m =
    let m' =
      List.fold_left
        (fun m (_, ins) -> m lor mask_of (Isa.Instr.defs ins))
        m (Cfg.instrs cfg block)
    in
    List.map (fun succ -> (succ, m')) block.Cfg.succs
  in
  let assigned =
    S.solve ~cfg ~init:(mask_of inputs) ~transfer ()
  in
  let of_block block =
    match assigned.(block.Cfg.id) with
    | None -> []
    | Some m ->
      let _, found =
        List.fold_left
          (fun (m, found) (pc, ins) ->
             let found =
               List.fold_left
                 (fun acc r -> if mem_mask r m then acc else (pc, r) :: acc)
                 found (Isa.Instr.uses ins)
             in
             (m lor mask_of (Isa.Instr.defs ins), found))
          (m, [])
          (Cfg.instrs cfg block)
      in
      List.rev found
  in
  let all =
    List.sort compare
      (List.concat_map of_block (Array.to_list (Cfg.blocks cfg)))
  in
  (* First offending read per register. *)
  let seen = ref 0 in
  List.filter
    (fun (_, r) ->
       if mem_mask r !seen then false
       else begin
         seen := !seen lor mask_of [ r ];
         true
       end)
    all
