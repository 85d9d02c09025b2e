(* TAB2.R2 — Split caches (Schoeberl et al.): heap addresses are rarely
   statically known; in a unified set-indexed cache one unknown-address
   access may touch *any* set, so the must-analysis loses a guarantee in
   every set. Routing heap data to its own small fully-associative cache
   confines the damage and keeps static/stack accesses classifiable. *)

type access =
  | Known of int            (* statically known address *)
  | Unknown_heap            (* heap access with unknown address *)

let static_addr k = 100 + k
let stack_addr k = 500 + k

(* A loop-shaped access stream: the same static/stack working set revisited
   each round, with heap accesses interleaved. *)
let stream ~rounds =
  List.concat
    (List.init rounds (fun _ ->
         [ Known (static_addr 0); Known (stack_addr 0); Unknown_heap;
           Known (static_addr 1); Known (stack_addr 1); Unknown_heap;
           Known (static_addr 0); Known (stack_addr 2); Known (stack_addr 0) ]))

let cache_config =
  { Cache.Set_assoc.sets = 4; ways = 2; line = 2; kind = Cache.Policy.Lru }

let classify_stream ~split accesses =
  (* [split = false]: one abstract cache sees everything, heap accesses age
     every must entry. [split = true]: static/stack tracked in their own
     caches; heap traffic never touches them. *)
  let unified = ref (Analysis.Must_may.unknown cache_config) in
  let classified = ref 0 and known_total = ref 0 in
  List.iter
    (fun access ->
       match access with
       | Known addr ->
         incr known_total;
         (match Analysis.Must_may.classify !unified addr with
          | Analysis.Must_may.Always_hit | Analysis.Must_may.Always_miss ->
            incr classified
          | Analysis.Must_may.Unclassified -> ());
         unified := Analysis.Must_may.access !unified addr
       | Unknown_heap ->
         if not split then unified := Analysis.Must_may.access_unknown !unified)
    accesses;
  float_of_int !classified /. float_of_int !known_total

let concrete_hits ~rounds =
  let accesses = stream ~rounds in
  let rng = Prelude.Rng.make 0x4ea9 in
  let classify_region addr =
    if addr >= 500 then Cache.Split.Stack
    else if addr >= 100 then Cache.Split.Static
    else Cache.Split.Heap
  in
  let split_cache =
    ref
      (Cache.Split.make ~static_cfg:cache_config ~stack_cfg:cache_config
         ~heap_ways:4 ~heap_line:2)
  in
  let unified_cache = ref (Cache.Set_assoc.make cache_config) in
  let split_hits = ref 0 and unified_hits = ref 0 in
  List.iter
    (fun access ->
       let addr =
         match access with
         | Known a -> a
         | Unknown_heap -> Prelude.Rng.int rng 64  (* heap region: 0..63 *)
       in
       let hit_s, sc = Cache.Split.access !split_cache classify_region addr in
       split_cache := sc;
       if hit_s then incr split_hits;
       let hit_u, uc = Cache.Set_assoc.access !unified_cache addr in
       unified_cache := uc;
       if hit_u then incr unified_hits)
    accesses;
  (!split_hits, !unified_hits)

let run () =
  let rounds = 6 in
  let accesses = stream ~rounds in
  let unified_fraction = classify_stream ~split:false accesses in
  let split_fraction = classify_stream ~split:true accesses in
  let split_hits, unified_hits = concrete_hits ~rounds in
  let table =
    Prelude.Table.make
      ~header:[ "organisation"; "% of known accesses statically classified";
                "concrete hits (simulated)" ]
  in
  Prelude.Table.add_row table
    [ "unified data cache"; Printf.sprintf "%.1f%%" (100. *. unified_fraction);
      string_of_int unified_hits ];
  Prelude.Table.add_row table
    [ "split caches (fully-assoc heap)";
      Printf.sprintf "%.1f%%" (100. *. split_fraction);
      string_of_int split_hits ];
  { Report.title = "Split caches: unknown heap addresses stop destroying must-information";
    body = Prelude.Table.render table;
    checks =
      [ Report.check "split organisation classifies strictly more accesses"
          (split_fraction > unified_fraction);
        Report.check "split classification is high (>= 80%)"
          (split_fraction >= 0.8) ] }
