type icache_model =
  | Flat_fetch of int
  | Cached_fetch of { config : Cache.Set_assoc.config; hit : int; miss : int }
  | Spm_fetch of { spm : Cache.Scratchpad.t; hit : int; backing : int }

type dmem_model =
  | Flat_data of int
  | Range_data of { best : int; worst : int }

type config = {
  icache : icache_model;
  dmem : dmem_model;
  unroll : bool;
  budget : int option;
}

type bound_kind = Upper | Lower

type observation = {
  pc : int;
  classification : Must_may.classification;
}

type result = {
  bound : int;
  observations : observation list;
}

exception Unsupported of string

(* The abstract machine state threaded through the structural walk. *)
type walk_state = {
  cache : Must_may.t option;
  obs : observation list;  (* reversed *)
}

let instr_addr pc = pc * 4

let state_join a b =
  let cache =
    match a.cache, b.cache with
    | Some ca, Some cb -> Some (Must_may.join ca cb)
    | None, None -> None
    | Some _, None | None, Some _ -> assert false
  in
  (* [b] is always the later-walked state, so its observation list is the
     superset. *)
  { cache; obs = b.obs }

let state_equal a b =
  match a.cache, b.cache with
  | Some ca, Some cb -> Must_may.equal ca cb
  | None, None -> true
  | Some _, None | None, Some _ -> false

let bound ?(site_filter = fun _ -> true) config kind ~shapes ~entry =
  let fetch_cost st pc =
    match config.icache with
    | Flat_fetch lat -> (lat, st)
    | Spm_fetch { spm; hit; backing } ->
      ((if Cache.Scratchpad.contains spm (instr_addr pc) then hit else backing), st)
    | Cached_fetch { config = _; hit; miss } ->
      (match st.cache with
       | None -> assert false
       | Some cache ->
         let classification = Must_may.classify cache (instr_addr pc) in
         let cache = Must_may.access cache (instr_addr pc) in
         let cache =
           match config.budget with
           | Some max_tracked -> Must_may.restrict cache ~max_tracked
           | None -> cache
         in
         let cost =
           match kind, classification with
           | Upper, Must_may.Always_hit -> hit
           | Upper, (Must_may.Always_miss | Must_may.Unclassified) -> miss
           | Lower, Must_may.Always_miss -> miss
           | Lower, (Must_may.Always_hit | Must_may.Unclassified) -> hit
         in
         (cost,
          { cache = Some cache; obs = { pc; classification } :: st.obs }))
  in
  let data_cost ins =
    if not (Isa.Instr.is_memory ins) then 0
    else
      match config.dmem, kind with
      | Flat_data lat, _ -> lat
      | Range_data { worst; _ }, Upper -> worst
      | Range_data { best; _ }, Lower -> best
  in
  let exec_cost ins =
    match kind with
    | Upper -> Pipeline.Latency.base_worst ins
    | Lower -> Pipeline.Latency.base_best ins
  in
  let branch_cost ins =
    match ins, kind with
    | Isa.Instr.Br _, Upper -> Pipeline.Latency.branch_mispredict_penalty
    | Isa.Instr.Br _, Lower -> 0
    | _, _ -> 0
  in
  let instr_cost st (pc, ins) =
    let fetch, st = fetch_cost st pc in
    (* Sites outside the filter contribute no cost, but their cache-state
       effects (and observations) still happen: the certifier bounds the
       spread of the filtered sites against the true abstract cache
       evolution, not against a cache that magically skips them. *)
    let cost =
      if site_filter pc then
        fetch + exec_cost ins + data_cost ins + branch_cost ins
      else 0
    in
    (cost, st)
  in
  let block_cost st pairs =
    List.fold_left
      (fun (cost, st) pair ->
         let c, st = instr_cost st pair in
         (cost + c, st))
      (0, st) pairs
  in
  let pick a b = match kind with Upper -> Stdlib.max a b | Lower -> Stdlib.min a b in
  let rec walk visiting st shape =
    match shape with
    | Isa.Ast.SBlock pairs -> block_cost st pairs
    | Isa.Ast.SSeq shapes ->
      List.fold_left
        (fun (cost, st) s ->
           let c, st = walk visiting st s in
           (cost + c, st))
        (0, st) shapes
    | Isa.Ast.SIf { branch; then_; jump; else_ } ->
      let branch_c, st0 = instr_cost st branch in
      let then_c, st_then = walk visiting st0 then_ in
      let jump_c, st_then = instr_cost st_then jump in
      let else_c, st_else = walk visiting { st0 with obs = st_then.obs } else_ in
      let arm = pick (then_c + jump_c) else_c in
      (branch_c + arm, state_join st_then st_else)
    | Isa.Ast.SLoop { count; init; body; latch } ->
      let init_c, st0 = block_cost st init in
      let iter st =
        let body_c, st = walk visiting st body in
        let latch_c, st = block_cost st latch in
        (body_c + latch_c, st)
      in
      let rec fix st fuel =
        if fuel = 0 then raise (Unsupported "loop fixpoint did not converge")
        else begin
          let _, st' = iter st in
          let joined = state_join st st' in
          if state_equal joined st then st else fix joined (fuel - 1)
        end
      in
      if config.unroll && count >= 1 then begin
        let first_c, st1 = iter st0 in
        if count = 1 then (init_c + first_c, st1)
        else begin
          let stfix = fix st1 1000 in
          let steady_c, st_out = iter stfix in
          (init_c + first_c + ((count - 1) * steady_c), st_out)
        end
      end
      else begin
        let stfix = fix st0 1000 in
        let steady_c, st_out = iter stfix in
        (init_c + (count * steady_c), st_out)
      end
    | Isa.Ast.SWhile { bound = iter_bound; guard; body; back } ->
      let iter st =
        let guard_c, st = instr_cost st guard in
        let body_c, st = walk visiting st body in
        let back_c, st = instr_cost st back in
        (guard_c + body_c + back_c, st)
      in
      let rec fix st fuel =
        if fuel = 0 then raise (Unsupported "while fixpoint did not converge")
        else begin
          let _, st' = iter st in
          let joined = state_join st st' in
          if state_equal joined st then st else fix joined (fuel - 1)
        end
      in
      (match kind with
       | Lower ->
         (* Zero iterations: a single failing guard evaluation. *)
         let guard_c, st_exit = instr_cost st guard in
         (guard_c, st_exit)
       | Upper ->
         let stfix = fix st 1000 in
         let steady_c, _ = iter stfix in
         let final_guard_c, st_exit = instr_cost stfix guard in
         ((iter_bound * steady_c) + final_guard_c, st_exit))
    | Isa.Ast.SCall { site; callee } ->
      if List.mem callee visiting then
        raise (Unsupported (Printf.sprintf "recursive call to %S" callee));
      let site_c, st = instr_cost st site in
      (match List.assoc_opt callee shapes with
       | None -> raise (Unsupported (Printf.sprintf "unknown callee %S" callee))
       | Some callee_shape ->
         let callee_c, st = walk (callee :: visiting) st callee_shape in
         (site_c + callee_c, st))
  in
  let initial_cache =
    match config.icache with
    | Flat_fetch _ | Spm_fetch _ -> None
    | Cached_fetch { config = cache_config; _ } ->
      Some (Must_may.unknown cache_config)
  in
  let entry_shape =
    match List.assoc_opt entry shapes with
    | Some s -> s
    | None -> raise (Unsupported (Printf.sprintf "unknown entry %S" entry))
  in
  let total, st = walk [ entry ] { cache = initial_cache; obs = [] } entry_shape in
  { bound = total; observations = List.rev st.obs }

let bracket ?site_filter ~upper ~lower ~shapes ~entry () =
  ( bound ?site_filter upper Upper ~shapes ~entry,
    bound ?site_filter lower Lower ~shapes ~entry )

let classified_fraction result =
  match result.observations with
  | [] -> None
  | obs ->
    let classified =
      List.length
        (List.filter
           (fun o -> o.classification <> Must_may.Unclassified)
           obs)
    in
    Some (float_of_int classified /. float_of_int (List.length obs))
