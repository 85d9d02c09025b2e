module IntSet = Set.Make (Int)

type machine = {
  label : string;
  upper : Wcet.config;
  lower : Wcet.config;
  dynamic_predictor : bool;
}

type state_channel = Icache | Dcache | Predictor

let state_channel_name = function
  | Icache -> "icache"
  | Dcache -> "dcache"
  | Predictor -> "predictor"

type verdict = Invariant | Bounded

let verdict_name = function
  | Invariant -> "invariant"
  | Bounded -> "bounded"

type certificate = {
  workload : string;
  machine : string;
  verdict : verdict;
  lb : int;
  ub : int;
  spread_ub : int;
  varying_sites : int;
  leaks : Dataflow.Taint.leak list;
  state_channels : state_channel list;
}

let cached_fetch m =
  match m.upper.Wcet.icache with Wcet.Cached_fetch _ -> true | _ -> false

let cached_data m =
  match m.upper.Wcet.dmem with Wcet.Range_data _ -> true | _ -> false

(* Leaks that can actually move this machine's clock. Branch leaks always
   count (a tainted outcome changes the executed path, whatever the
   predictor); latency leaks always count (Mul/Div latency is
   value-dependent on every machine model); address leaks only matter
   when data accesses go through a cache — on flat data memory every
   address costs the same. *)
let machine_leaks m taint =
  List.filter
    (fun (l : Dataflow.Taint.leak) ->
       match l.Dataflow.Taint.channel with
       | Dataflow.Taint.Address -> cached_data m
       | Dataflow.Taint.Branch | Dataflow.Taint.Latency -> true)
    (Dataflow.Taint.leaks taint)

let certify machine (w : Isa.Workload.t) =
  let program, shapes = Isa.Workload.program w in
  let entry =
    match w.Isa.Workload.funcs with
    | f :: _ -> f.Isa.Ast.name
    | [] -> invalid_arg "Certify.certify: workload with no functions"
  in
  let taint = Dataflow.Taint.of_workload w in
  let envs = Dataflow.Taint.instr_envs taint in
  let leaks = machine_leaks machine taint in
  let leak_pcs =
    List.fold_left
      (fun s (l : Dataflow.Taint.leak) -> IntSet.add l.Dataflow.Taint.pc s)
      IntSet.empty leaks
  in
  (* Full bracket: the machine's [LB, UB] on execution time, and (for a
     cached fetch) the set of accesses the must/may analysis could not
     classify — those costs vary with the unknown initial cache. *)
  let ub_full, lb_full =
    Wcet.bracket ~upper:machine.upper ~lower:machine.lower ~shapes ~entry ()
  in
  let unclassified =
    List.fold_left
      (fun s (o : Wcet.observation) ->
         if o.Wcet.classification = Must_may.Unclassified then
           IntSet.add o.Wcet.pc s
         else s)
      IntSet.empty
      (ub_full.Wcet.observations @ lb_full.Wcet.observations)
  in
  let reachable_memory =
    List.exists (fun (_, ins, _) -> Isa.Instr.is_memory ins) envs
  in
  let reachable_branch =
    List.exists (fun (_, ins, _) -> Isa.Instr.is_branch ins) envs
  in
  (* Hardware-state channels: timing variation over Q that exists even
     with a fixed input — the Pr side of the template, as opposed to the
     input taint's SIPr side. *)
  let state_channels =
    (if cached_fetch machine && not (IntSet.is_empty unclassified) then
       [ Icache ]
     else [])
    @ (if cached_data machine && reachable_memory then [ Dcache ] else [])
    @
    if machine.dynamic_predictor && reachable_branch then [ Predictor ]
    else []
  in
  (* A site's contribution can differ between two runs iff its execution
     count can vary (it sits in a taint-controlled region) or its
     per-visit cost can vary (an input leak at that pc, an unclassified
     fetch, a cached data access, or a stateful predictor at a branch).
     Everything else contributes identically to every run, so the spread
     of total times is bounded by UB - LB of the walks restricted to the
     varying sites. *)
  let varies pc =
    Dataflow.Taint.control_tainted taint pc
    || IntSet.mem pc leak_pcs
    || (cached_fetch machine && IntSet.mem pc unclassified)
    || (cached_data machine
        && Isa.Instr.is_memory (Isa.Program.instr program pc))
    || (machine.dynamic_predictor
        && Isa.Instr.is_branch (Isa.Program.instr program pc))
  in
  let ub_f, lb_f =
    Wcet.bracket ~site_filter:varies ~upper:machine.upper
      ~lower:machine.lower ~shapes ~entry ()
  in
  let varying_sites =
    let n = Isa.Program.length program in
    let count = ref 0 in
    for pc = 0 to n - 1 do
      if varies pc then incr count
    done;
    !count
  in
  let verdict =
    if leaks = [] && state_channels = [] then Invariant else Bounded
  in
  { workload = w.Isa.Workload.name;
    machine = machine.label;
    verdict;
    lb = lb_full.Wcet.bound;
    ub = ub_full.Wcet.bound;
    spread_ub = ub_f.Wcet.bound - lb_f.Wcet.bound;
    varying_sites;
    leaks;
    state_channels }
