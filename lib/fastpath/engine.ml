(* One cache level of the packed working machine state. *)
type level_replay =
  | Lpure of Pipeline.Mem_system.level
  | Lcached of { rep : Cache.Set_assoc.replay; hit : int; miss : int }

(* Per-row working state: templates seeded once from [q], working copies
   reset by blitting before every cell. *)
type prepared = {
  imem_t : level_replay;
  dmem_t : level_replay;
  pred_t : Branchpred.Predictor.replay;
  imem_w : level_replay;
  dmem_w : level_replay;
  pred_w : Branchpred.Predictor.replay;
  pure : bool array;
  ctx : string;
}

(* Per-domain scratch: the last state the domain worked on, with its key
   and (once a cell of it missed the memo) its prepared replay, plus the
   last input [time] was called with and its compiled trace. [time] calls
   pass the same state along a row and often the same input repeatedly,
   so a physical-equality hit skips re-packing the state (state key,
   prepare) and re-marshalling the input (trace keying); a grid keeps its
   own keys and traces and takes only the prepared replay from the slot.
   Domain-local by construction — prepared working arrays are mutated
   during a cell, so they must never be shared across domains.

   There is one slot per domain, under one module-level key, whatever the
   number of engines: OCaml never frees a domain-local key, so a key per
   engine would keep every engine's last state, prepared context and trace
   reachable from every long-lived domain for the life of the process. The
   slot names the engine it serves by [id] rather than holding it, and is
   cleared when another engine takes it over, so all it ever retains is
   the last cell's state, input and their derived data. *)
type slot = {
  mutable owner : int;
  mutable s_state : Pipeline.Inorder.state option;
  mutable s_skey : string;
  mutable s_prep : prepared option;
  mutable s_input : Isa.Exec.input option;
  mutable s_trace : Trace.compiled option;
}

let empty_slot () =
  { owner = -1; s_state = None; s_skey = ""; s_prep = None; s_input = None;
    s_trace = None }

let slot = Domain.DLS.new_key empty_slot

let next_id = Atomic.make 0

(* The memo table, optionally size-bounded for resident use (the serve
   daemon): [order] remembers insertion order and the oldest entries are
   evicted first once [bound] is exceeded. FIFO rather than LRU on
   purpose — eviction happens under the engine mutex on the insert path,
   and promoting entries on every hit would turn the cheap lookup into a
   queue splice. Unbounded engines skip the queue entirely. *)
type memo_table = {
  cells : (string, int) Hashtbl.t;
  order : string Queue.t;
  bound : int option;
}

type t = {
  id : int;
  program : Isa.Program.t;
  digest : int;
  cfg : Dataflow.Cfg.t;
  memo : memo_table option;
  traces : (string, Trace.compiled) Hashtbl.t;
  summaries : (string, Summary.t) Hashtbl.t;
  classes : (Classify.features, bool array) Hashtbl.t;
  mu : Mutex.t;
}

let create ?(memo = true) ?memo_bound program =
  (match memo_bound with
   | Some b when b < 1 ->
     invalid_arg "Fastpath.Engine.create: memo_bound must be >= 1"
   | _ -> ());
  { id = Atomic.fetch_and_add next_id 1;
    program;
    digest = Isa.Program.digest program;
    cfg = Dataflow.Cfg.build program;
    memo =
      (if memo then
         Some
           { cells = Hashtbl.create 1024; order = Queue.create ();
             bound = memo_bound }
       else None);
    traces = Hashtbl.create 64;
    summaries = Hashtbl.create 64;
    classes = Hashtbl.create 8;
    mu = Mutex.create () }

let memoized t = t.memo <> None

let memo_bound t = Option.bind t.memo (fun m -> m.bound)

let with_lock t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
    Mutex.unlock t.mu;
    v
  | exception exn ->
    Mutex.unlock t.mu;
    raise exn

(* Shared tables are filled under the engine mutex. Values are pure
   functions of their keys, so a racing double-compute (compile outside the
   lock, last insert wins) is benign: any stored value is the value. *)

let trace_for t input =
  let key = Trace.input_key input in
  match with_lock t (fun () -> Hashtbl.find_opt t.traces key) with
  | Some tr -> tr
  | None ->
    let tr = Trace.compile t.program input in
    with_lock t (fun () -> Hashtbl.replace t.traces key tr);
    tr

let pure_for t feats =
  match with_lock t (fun () -> Hashtbl.find_opt t.classes feats) with
  | Some flags -> flags
  | None ->
    let flags = Classify.pure_pcs t.cfg feats in
    with_lock t (fun () -> Hashtbl.replace t.classes feats flags);
    flags

let summary_for t ~ctx ~pure st (tr : Trace.compiled) =
  let key = ctx ^ "#" ^ tr.Trace.key in
  match with_lock t (fun () -> Hashtbl.find_opt t.summaries key) with
  | Some s -> s
  | None ->
    let s = Summary.build ~pure st tr in
    with_lock t (fun () -> Hashtbl.replace t.summaries key s);
    s

(* --- Packed machine state ------------------------------------------------ *)

let level_replay = function
  | (Pipeline.Mem_system.Flat _ | Pipeline.Mem_system.Spm _) as level ->
    Lpure level
  | Pipeline.Mem_system.Cached { cache; hit; miss } ->
    Lcached { rep = Cache.Set_assoc.replay cache; hit; miss }

let level_copy = function
  | Lpure _ as l -> l
  | Lcached c -> Lcached { c with rep = Cache.Set_assoc.replay_copy c.rep }

let level_reset ~dst ~src =
  match dst, src with
  | Lpure _, Lpure _ -> ()
  | Lcached d, Lcached s ->
    Cache.Set_assoc.replay_reset ~dst:d.rep ~src:s.rep
  | (Lpure _ | Lcached _), _ -> assert false

let level_cost l addr =
  match l with
  | Lpure level -> (
      match level with
      | Pipeline.Mem_system.Flat lat -> lat
      | Pipeline.Mem_system.Spm { spm; hit; backing } ->
        if Cache.Scratchpad.contains spm addr then hit else backing
      | Pipeline.Mem_system.Cached _ -> assert false)
  | Lcached { rep; hit; miss } ->
    if Cache.Set_assoc.replay_access rep addr then hit else miss

let level_pack = function
  | Pipeline.Mem_system.Flat lat -> [ 0; lat ]
  | Pipeline.Mem_system.Cached { cache; hit; miss } ->
    1 :: hit :: miss :: Cache.Set_assoc.pack cache
  | Pipeline.Mem_system.Spm { spm; hit; backing } ->
    [ 2; hit; backing; Cache.Scratchpad.base spm; Cache.Scratchpad.size spm ]

let state_key t (st : Pipeline.Inorder.state) =
  Summary.key_of_ints
    (t.digest
     :: (level_pack st.mem.Pipeline.Mem_system.imem
         @ level_pack st.mem.Pipeline.Mem_system.dmem
         @ Branchpred.Predictor.pack st.predictor))

let prepare t (st : Pipeline.Inorder.state) =
  let imem_t = level_replay st.mem.Pipeline.Mem_system.imem in
  let dmem_t = level_replay st.mem.Pipeline.Mem_system.dmem in
  let pred_t = Branchpred.Predictor.replay st.predictor in
  { imem_t; dmem_t; pred_t;
    imem_w = level_copy imem_t;
    dmem_w = level_copy dmem_t;
    pred_w = Branchpred.Predictor.replay_copy pred_t;
    pure = pure_for t (Classify.features st);
    ctx = Summary.context_key st }

(* The residual interpreter: summaries skip context-free runs, everything
   else steps the packed machine state cycle-accurately, mirroring
   [Pipeline.Inorder.run] term for term. *)
let run_cell p (sum : Summary.t) (tr : Trace.compiled) =
  level_reset ~dst:p.imem_w ~src:p.imem_t;
  level_reset ~dst:p.dmem_w ~src:p.dmem_t;
  Branchpred.Predictor.replay_reset ~dst:p.pred_w ~src:p.pred_t;
  let cyc = ref 0 in
  let k = ref 0 in
  let n = tr.Trace.events in
  while !k < n do
    let nxt = sum.Summary.seg_next.(!k) in
    if nxt > !k then begin
      cyc := !cyc + sum.Summary.seg_cost.(!k);
      k := nxt
    end
    else begin
      cyc := !cyc + level_cost p.imem_w tr.Trace.iaddr.(!k);
      cyc := !cyc + tr.Trace.base.(!k);
      let da = tr.Trace.daddr.(!k) in
      if da >= 0 then cyc := !cyc + level_cost p.dmem_w da;
      if tr.Trace.br.(!k) then begin
        let ev =
          { Branchpred.Predictor.pc = tr.Trace.pcs.(!k);
            backward = tr.Trace.br_backward.(!k);
            taken = tr.Trace.br_taken.(!k) }
        in
        if not (Branchpred.Predictor.replay_correct p.pred_w ev) then
          cyc := !cyc + Pipeline.Latency.branch_mispredict_penalty
      end;
      incr k
    end
  done;
  !cyc

let memo_size t =
  match t.memo with
  | None -> 0
  | Some m -> with_lock t (fun () -> Hashtbl.length m.cells)

let memo_insert m key v =
  if not (Hashtbl.mem m.cells key) then begin
    Hashtbl.replace m.cells key v;
    match m.bound with
    | None -> ()
    | Some bound ->
      Queue.push key m.order;
      while Hashtbl.length m.cells > bound do
        Hashtbl.remove m.cells (Queue.pop m.order)
      done
  end

(* The domain's slot, claimed for [t] and holding [st]. [key t st] must
   give [st]'s state key; it runs only when the slot held another state.
   This is the one place that keeps [s_skey] the key of [s_state]. *)
let claim t st key =
  let s = Domain.DLS.get slot in
  if s.owner <> t.id then begin
    s.owner <- t.id;
    s.s_state <- None;
    s.s_input <- None;
    s.s_trace <- None
  end;
  (match s.s_state with
   | Some st' when st' == st -> ()
   | _ ->
     let skey = key t st in
     s.s_state <- Some st;
     s.s_skey <- skey;
     s.s_prep <- None);
  s

(* A memo miss: the prepared replay of [st] comes from the domain's slot,
   built there on the first miss of a state. *)
let replay t ~skey st tr =
  let s = claim t st (fun _ _ -> skey) in
  let p =
    match s.s_prep with
    | Some p -> p
    | None ->
      let p = prepare t st in
      s.s_prep <- Some p;
      p
  in
  run_cell p (summary_for t ~ctx:p.ctx ~pure:p.pure st tr) tr

(* One cell through the memo, looked up on [skey] (the packed state) before
   anything is prepared, so a hit never packs the replay state. *)
let cell t ~skey st tr =
  match t.memo with
  | None -> replay t ~skey st tr
  | Some memo -> (
      let key = skey ^ "#" ^ tr.Trace.key in
      match with_lock t (fun () -> Hashtbl.find_opt memo.cells key) with
      | Some v ->
        Prelude.Instrument.add_memo_hits 1;
        v
      | None ->
        Prelude.Instrument.add_memo_misses 1;
        let v = replay t ~skey st tr in
        with_lock t (fun () -> memo_insert memo key v);
        v)

let time t st input =
  let s = claim t st state_key in
  let tr =
    match s.s_input, s.s_trace with
    | Some i', Some tr when i' == input -> tr
    | _ ->
      let tr = trace_for t input in
      s.s_input <- Some input;
      s.s_trace <- Some tr;
      tr
  in
  cell t ~skey:s.s_skey st tr

(* The callers' arrays are the intern table: a state's key and an input's
   trace are computed on the first cell that uses the index. Domains that
   share a grid may race to fill the same index; the values are pure, so
   either write is the value. *)
let grid t states inputs =
  let keys = Array.make (Array.length states) None in
  let traces = Array.make (Array.length inputs) None in
  fun q i ->
    let st = states.(q) in
    let skey =
      match keys.(q) with
      | Some k -> k
      | None ->
        let k = state_key t st in
        keys.(q) <- Some k;
        k
    in
    let tr =
      match traces.(i) with
      | Some tr -> tr
      | None ->
        let tr = trace_for t inputs.(i) in
        traces.(i) <- Some tr;
        tr
    in
    cell t ~skey st tr
