(* TAB2.R1 — Method cache (Schoeberl; Metzlaff's function scratchpad):
   caching whole functions means misses can occur only at calls and
   returns, so an analysis needs to reason about a handful of program
   points and a small method-occupancy state instead of per-access cache
   states. The conventional instruction cache is the baseline. *)

let method_cache_config = { Cache.Method_cache.blocks = 8; block_size = 8 }

let icache_config =
  { Cache.Set_assoc.sets = 4; ways = 2; line = 16; kind = Cache.Policy.Lru }

(* Replay the dynamic stream against the method cache: requests happen at
   calls (for the callee) and returns (for the function returned into). *)
let replay_method_cache program outcome =
  let sizes = Isa.Program.functions program in
  let size_of name =
    match List.assoc_opt name sizes with
    | Some (_, len) -> len
    | None -> 0
  in
  let cache = ref (Cache.Method_cache.make method_cache_config) in
  let stack = ref [] in
  let misses = ref 0 in
  let miss_sites = ref [] in
  let states = ref [ !cache ] in
  let request ~site name =
    let fit, cache' =
      Cache.Method_cache.request !cache ~name ~size:(size_of name)
    in
    cache := cache';
    if not (List.exists (Cache.Method_cache.equal cache') !states) then
      states := cache' :: !states;
    if not fit.Cache.Method_cache.hit then begin
      incr misses;
      if not (List.mem site !miss_sites) then miss_sites := site :: !miss_sites
    end
  in
  (* The entry function is loaded first. *)
  request ~site:(-1) (Isa.Program.function_of_pc program (Isa.Program.entry program));
  Array.iter
    (fun (ev : Isa.Exec.event) ->
       match ev.ins with
       | Isa.Instr.Call callee ->
         stack := Isa.Program.function_of_pc program ev.pc :: !stack;
         request ~site:ev.pc callee
       | Isa.Instr.Ret ->
         (match !stack with
          | caller :: rest ->
            stack := rest;
            request ~site:ev.pc caller
          | [] -> ())
       | _ -> ())
    outcome.Isa.Exec.trace;
  (!misses, List.length !miss_sites, List.length !states)

let replay_icache program outcome =
  let cache = ref (Cache.Set_assoc.make icache_config) in
  let misses = ref 0 in
  let miss_sites = ref [] in
  let states = ref [ !cache ] in
  Array.iter
    (fun (ev : Isa.Exec.event) ->
       let hit, cache' =
         Cache.Set_assoc.access !cache (Isa.Program.instr_address program ev.pc)
       in
       cache := cache';
       if not (List.exists (Cache.Set_assoc.equal cache') !states) then
         states := cache' :: !states;
       if not hit then begin
         incr misses;
         if not (List.mem ev.pc !miss_sites) then miss_sites := ev.pc :: !miss_sites
       end)
    outcome.Isa.Exec.trace;
  (!misses, List.length !miss_sites, List.length !states)

let run () =
  let w = Isa.Workload.call_chain ~calls:4 ~rounds:6 in
  let program, _ = Isa.Workload.program w in
  let outcome =
    match Harness.outcomes program w.Isa.Workload.inputs with
    | o :: _ -> o
    | [] -> assert false
  in
  let call_ret_sites =
    Array.to_list outcome.Isa.Exec.trace
    |> List.filter_map (fun (ev : Isa.Exec.event) ->
        match ev.ins with
        | Isa.Instr.Call _ | Isa.Instr.Ret -> Some ev.pc
        | _ -> None)
    |> Prelude.Listx.uniq Stdlib.compare
    |> List.length
  in
  let m_misses, m_sites, m_states = replay_method_cache program outcome in
  let i_misses, i_sites, i_states = replay_icache program outcome in
  let table =
    Prelude.Table.make
      ~header:[ "organisation"; "misses"; "distinct miss program points";
                "distinct cache states (analysis burden)" ]
  in
  Prelude.Table.add_row table
    [ "method cache (whole functions, FIFO)"; string_of_int m_misses;
      string_of_int m_sites; string_of_int m_states ];
  Prelude.Table.add_row table
    [ "conventional I-cache (LRU)"; string_of_int i_misses;
      string_of_int i_sites; string_of_int i_states ];
  let body =
    Prelude.Table.render table
    ^ Printf.sprintf "call/return program points in the trace: %d\n"
        call_ret_sites
  in
  { Report.title = "Method cache: misses only at calls/returns, small analysis state";
    body;
    checks =
      [ Report.check "method-cache miss points are confined to call/return sites"
          (m_sites <= call_ret_sites + 1);
        Report.check "I-cache spreads misses over more program points"
          (i_sites > m_sites);
        Report.check "method cache has fewer distinct states to analyse"
          (m_states < i_states) ] }
