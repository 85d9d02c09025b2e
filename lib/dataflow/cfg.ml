type block = {
  id : int;
  start_pc : int;
  len : int;
  succs : int list;
  preds : int list;
}

type t = {
  program : Isa.Program.t;
  blocks : block array;
  entry : int;
  block_index : int array;  (* pc -> block id *)
}

let build program =
  let n = Isa.Program.length program in
  let leader = Array.make n false in
  leader.(Isa.Program.entry program) <- true;
  List.iter
    (fun (_, (start, _)) -> leader.(start) <- true)
    (Isa.Program.functions program);
  let mark pc = if pc >= 0 && pc < n then leader.(pc) <- true in
  for pc = 0 to n - 1 do
    match Isa.Program.instr program pc with
    | Isa.Instr.Br (_, _, _, target) ->
      mark (Isa.Program.resolve program target);
      mark (pc + 1)
    | Isa.Instr.Jmp target ->
      mark (Isa.Program.resolve program target);
      mark (pc + 1)
    | Isa.Instr.Call name ->
      mark (Isa.Program.resolve program name);
      mark (pc + 1)
    | Isa.Instr.Ret | Isa.Instr.Halt -> mark (pc + 1)
    | Isa.Instr.Nop | Isa.Instr.Alu _ | Isa.Instr.Alui _ | Isa.Instr.Li _
    | Isa.Instr.Mul _ | Isa.Instr.Div _ | Isa.Instr.Ld _ | Isa.Instr.St _
    | Isa.Instr.Sel _ -> ()
  done;
  (* Block extents from the leader set; every pc lands in exactly one
     block, reachable or not, so blocks partition the program. *)
  let starts =
    List.filter (fun pc -> leader.(pc)) (List.init n (fun pc -> pc))
  in
  let extents =
    let rec widths = function
      | [] -> []
      | [ start ] -> [ (start, n - start) ]
      | start :: (next :: _ as rest) -> (start, next - start) :: widths rest
    in
    widths starts
  in
  let block_index = Array.make n (-1) in
  List.iteri
    (fun id (start, len) ->
       for pc = start to start + len - 1 do block_index.(pc) <- id done)
    extents;
  (* Return sites, per function: the instruction after every call. *)
  let return_sites name =
    let sites = ref [] in
    for pc = n - 1 downto 0 do
      match Isa.Program.instr program pc with
      | Isa.Instr.Call callee when callee = name && pc + 1 < n ->
        sites := block_index.(pc + 1) :: !sites
      | _ -> ()
    done;
    !sites
  in
  let succs_of (start, len) =
    let last = start + len - 1 in
    let fallthrough () = if last + 1 < n then [ block_index.(last + 1) ] else [] in
    match Isa.Program.instr program last with
    | Isa.Instr.Br (_, _, _, target) ->
      let taken = block_index.(Isa.Program.resolve program target) in
      taken :: List.filter (fun s -> s <> taken) (fallthrough ())
    | Isa.Instr.Jmp target ->
      [ block_index.(Isa.Program.resolve program target) ]
    | Isa.Instr.Call name -> [ block_index.(Isa.Program.resolve program name) ]
    | Isa.Instr.Ret ->
      (match Isa.Program.function_of_pc program last with
       | name -> return_sites name
       | exception Not_found -> [])
    | Isa.Instr.Halt -> []
    | Isa.Instr.Nop | Isa.Instr.Alu _ | Isa.Instr.Alui _ | Isa.Instr.Li _
    | Isa.Instr.Mul _ | Isa.Instr.Div _ | Isa.Instr.Ld _ | Isa.Instr.St _
    | Isa.Instr.Sel _ -> fallthrough ()
  in
  let blocks =
    Array.of_list
      (List.mapi
         (fun id (start, len) ->
            { id; start_pc = start; len; succs = succs_of (start, len);
              preds = [] })
         extents)
  in
  Array.iter
    (fun b ->
       List.iter
         (fun s ->
            blocks.(s) <- { (blocks.(s)) with preds = b.id :: blocks.(s).preds })
         b.succs)
    blocks;
  Array.iteri
    (fun i b -> blocks.(i) <- { b with preds = List.rev b.preds })
    blocks;
  { program; blocks; entry = block_index.(Isa.Program.entry program);
    block_index }

let program t = t.program
let blocks t = t.blocks
let entry t = t.entry

let block_of_pc t pc =
  if pc < 0 || pc >= Array.length t.block_index then
    invalid_arg (Printf.sprintf "Cfg.block_of_pc: pc %d out of range" pc)
  else t.block_index.(pc)

let instrs t b =
  List.init b.len (fun k ->
      let pc = b.start_pc + k in
      (pc, Isa.Program.instr t.program pc))

let terminator t b =
  let pc = b.start_pc + b.len - 1 in
  (pc, Isa.Program.instr t.program pc)

let reachable t =
  let seen = Array.make (Array.length t.blocks) false in
  let rec visit id =
    if not seen.(id) then begin
      seen.(id) <- true;
      List.iter visit t.blocks.(id).succs
    end
  in
  visit t.entry;
  seen

(* Blocks from which some exit block (no successors) is reachable. Blocks
   that can only loop forever have no postdominators in the classical
   sense; [influence_region] falls back to plain reachability for them. *)
let reaches_exit t =
  let seen = Array.make (Array.length t.blocks) false in
  let rec visit id =
    if not seen.(id) then begin
      seen.(id) <- true;
      List.iter visit t.blocks.(id).preds
    end
  in
  Array.iter (fun b -> if b.succs = [] then visit b.id) t.blocks;
  seen

let postdominators t =
  let n = Array.length t.blocks in
  (* pdom.(b).(d) <=> d postdominates b. Start at top (everything
     postdominates everything) and shrink by intersection over successors;
     exit blocks are pinned to {self}. *)
  let pdom =
    Array.init n (fun id ->
        if t.blocks.(id).succs = [] then Array.init n (fun d -> d = id)
        else Array.make n true)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for id = n - 1 downto 0 do
      let b = t.blocks.(id) in
      if b.succs <> [] then begin
        let meet = Array.make n true in
        List.iter
          (fun s ->
             for d = 0 to n - 1 do
               meet.(d) <- meet.(d) && pdom.(s).(d)
             done)
          b.succs;
        meet.(id) <- true;
        for d = 0 to n - 1 do
          if meet.(d) <> pdom.(id).(d) then begin
            pdom.(id).(d) <- meet.(d);
            changed := true
          end
        done
      end
    done
  done;
  pdom

let influence_region t ~pdom id =
  let n = Array.length t.blocks in
  let region = Array.make n false in
  let exits = reaches_exit t in
  (* The region ends where every outcome of the branch has re-converged:
     at the strict postdominators of the branch block that lie in its own
     function. A postdominator in another function is no such point: when
     both arms call the same function, its entry postdominates the branch
     in this context-insensitive graph, yet what follows each call is
     reached only through the callee's return. When the branch cannot
     reach an exit its postdominator set is a fixpoint artifact
     (all-true), so fall back to everything reachable from its successors
     — a sound overapproximation. *)
  let home = Isa.Program.function_of_pc t.program t.blocks.(id).start_pc in
  let skip d =
    exits.(id) && d <> id && pdom.(id).(d)
    && Isa.Program.function_of_pc t.program t.blocks.(d).start_pc = home
  in
  let rec visit d =
    if (not region.(d)) && not (skip d) then begin
      region.(d) <- true;
      List.iter visit t.blocks.(d).succs
    end
  in
  List.iter visit t.blocks.(id).succs;
  region

let reverse_postorder t =
  let seen = Array.make (Array.length t.blocks) false in
  let order = ref [] in
  let rec visit id =
    if not seen.(id) then begin
      seen.(id) <- true;
      List.iter visit t.blocks.(id).succs;
      order := id :: !order
    end
  in
  visit t.entry;
  !order
