(* RW.CACHE — Reineke et al., cache replacement policy metrics: evict and
   fill horizons computed by exhaustive state-space exploration. LRU attains
   the minimum (evict = fill = associativity); FIFO, PLRU and MRU need
   strictly longer access sequences to restore may/must information, which
   caps the precision of any analysis for those policies. *)

let policies =
  [ Cache.Policy.Lru; Cache.Policy.Fifo; Cache.Policy.Plru; Cache.Policy.Mru;
    Cache.Policy.Round_robin ]

let run () =
  let table =
    Prelude.Table.make
      ~header:[ "policy"; "ways"; "evict"; "fill" ]
  in
  let results = ref [] in
  List.iter
    (fun ways ->
       List.iter
         (fun kind ->
            let max_probes = (3 * ways) + 2 in
            (* Packed exploration where the policy supports it (gated by
               the fastpath test suite): identical estimates. *)
            let evict = Cache_metrics.evict ~engine:`Fast kind ~ways ~max_probes in
            let fill = Cache_metrics.fill ~engine:`Fast kind ~ways ~max_probes in
            results := ((kind, ways), (evict, fill)) :: !results;
            Prelude.Table.add_row table
              [ Cache.Policy.kind_name kind; string_of_int ways;
                Cache_metrics.estimate_to_string evict;
                Cache_metrics.estimate_to_string fill ])
         policies;
       Prelude.Table.add_separator table)
    [ 2; 4 ];
  let lookup kind ways = List.assoc (kind, ways) !results in
  let exact = function Cache_metrics.Exact n -> Some n | Cache_metrics.Beyond _ -> None in
  let lru_optimal ways =
    match lookup Cache.Policy.Lru ways with
    | Cache_metrics.Exact e, Cache_metrics.Exact f -> e = ways && f = ways
    | _, _ -> false
  in
  let fifo_evict_known ways =
    match lookup Cache.Policy.Fifo ways with
    | Cache_metrics.Exact e, _ -> e = (2 * ways) - 1
    | Cache_metrics.Beyond _, _ -> false
  in
  let lru_minimal ways =
    let lru_evict = exact (fst (lookup Cache.Policy.Lru ways)) in
    match lru_evict with
    | None -> false
    | Some le ->
      List.for_all
        (fun kind ->
           match exact (fst (lookup kind ways)) with
           | Some e -> e >= le
           | None -> true  (* beyond the probe budget: certainly >= *)
        )
        policies
  in
  { Report.title = "Cache replacement policy metrics: evict/fill by state exploration";
    body = Prelude.Table.render table;
    checks =
      [ Report.check "LRU attains evict = fill = ways (k=2 and k=4)"
          (lru_optimal 2 && lru_optimal 4);
        Report.check "FIFO needs 2k-1 distinct accesses to evict (k=2 and k=4)"
          (fifo_evict_known 2 && fifo_evict_known 4);
        Report.check "LRU has the smallest evict horizon of all policies"
          (lru_minimal 2 && lru_minimal 4) ] }
