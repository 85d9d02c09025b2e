(* EXT.BUDGET — the Section-2 refinement "take into account the
   complexity/cost of the analysis": restrict the must-cache abstract
   domain to k tracked blocks per set and sweep k. Every budget yields a
   sound bound (UB_k >= WCET); richer budgets yield tighter bounds; and the
   gap between UB_k and the exhaustive WCET separates what is inherent to
   the system from what is a limitation of the (bounded) analysis —
   exactly the distinction the paper's inherence requirement draws. *)

(* A small icache (2 sets) so the hot loop spans several blocks per set and
   the budget gradient is visible: k = 1 can hold one hot block's guarantee
   per set, k = 2 both. *)
let tight_icache =
  { Cache.Set_assoc.sets = 2; ways = 2; line = 16; kind = Cache.Policy.Lru }

let run () =
  let w = Isa.Workload.fir ~taps:3 ~samples:4 in
  let program, shapes = Isa.Workload.program w in
  let instr_universe = Harness.instruction_universe program in
  let states =
    List.map
      (fun icache ->
         { Pipeline.Inorder.mem =
             { Pipeline.Mem_system.imem =
                 Pipeline.Mem_system.Cached
                   { cache = icache; hit = Harness.icache_hit;
                     miss = Harness.icache_miss };
               dmem =
                 Pipeline.Mem_system.Cached
                   { cache = Cache.Set_assoc.make Harness.dcache_config;
                     hit = Harness.dcache_hit; miss = Harness.dcache_miss } };
           predictor = Branchpred.Predictor.static Branchpred.Predictor.Btfn })
      (Cache.Set_assoc.state_samples tight_icache ~universe:instr_universe
         ~count:4 ~seed:0xb6d)
  in
  let matrix =
    Quantify.evaluate ~states ~inputs:w.Isa.Workload.inputs
      ~time:(Pipeline.Inorder.time program) ()
  in
  let wcet = Quantify.wcet matrix in
  let config budget =
    { Analysis.Wcet.icache =
        Analysis.Wcet.Cached_fetch
          { config = tight_icache; hit = Harness.icache_hit;
            miss = Harness.icache_miss };
      dmem =
        Analysis.Wcet.Range_data
          { best = Harness.dcache_hit; worst = Harness.dcache_miss };
      unroll = true; budget }
  in
  let budgets = [ Some 0; Some 1; Some 2; None ] in
  let rows =
    List.map
      (fun budget ->
         let result =
           Analysis.Wcet.bound (config budget) Analysis.Wcet.Upper ~shapes
             ~entry:"main"
         in
         (budget, result.Analysis.Wcet.bound,
          Analysis.Wcet.classified_fraction result))
      budgets
  in
  let table =
    Prelude.Table.make
      ~header:[ "analysis budget (tracked blocks/set)"; "UB";
                "fetches classified"; "UB/WCET" ]
  in
  List.iter
    (fun (budget, ub, fraction) ->
       Prelude.Table.add_row table
         [ (match budget with Some k -> string_of_int k | None -> "unbounded");
           string_of_int ub;
           (match fraction with
            | Some f -> Printf.sprintf "%.0f%%" (100. *. f)
            | None -> "n/a");
           Printf.sprintf "%.2f" (float_of_int ub /. float_of_int wcet) ])
    rows;
  let bounds = List.map (fun (_, ub, _) -> ub) rows in
  let monotone_tightening =
    let rec decreasing = function
      | a :: (b :: _ as rest) -> a >= b && decreasing rest
      | [] | [ _ ] -> true
    in
    decreasing bounds
  in
  let body =
    Prelude.Table.render table
    ^ Printf.sprintf "exhaustive WCET over the explored Q x I: %d\n" wcet
  in
  { Report.title = "Analysis-complexity budgets: inherent vs analysis-bound predictability";
    body;
    checks =
      [ Report.check "every budget's bound is sound (UB_k >= WCET)"
          (List.for_all (fun ub -> ub >= wcet) bounds);
        Report.check "bounds tighten monotonically with the budget"
          monotone_tightening;
        Report.check "the budget matters (zero-budget UB strictly looser)"
          (match bounds with
           | worst :: _ ->
             (match List.rev bounds with
              | best :: _ -> worst > best
              | [] -> false)
           | [] -> false) ] }
