(* One cache level of the packed working machine state. *)
type level_replay =
  | Lpure of Pipeline.Mem_system.level
  | Lcached of { rep : Cache.Set_assoc.replay; hit : int; miss : int }

type t = {
  program : Isa.Program.t;
  digest : int;
  memo : (string, int) Hashtbl.t option;
  traces : (string, Trace.compiled) Hashtbl.t;
  mu : Mutex.t;
}

let create ?(memo = true) program =
  { program;
    digest = Isa.Program.digest program;
    memo = (if memo then Some (Hashtbl.create 1024) else None);
    traces = Hashtbl.create 64;
    mu = Mutex.create () }

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

(* --- Packed machine state ------------------------------------------------ *)

let level_replay = function
  | (Pipeline.Mem_system.Flat _ | Pipeline.Mem_system.Spm _) as level ->
    Lpure level
  | Pipeline.Mem_system.Cached { cache; hit; miss } ->
    Lcached { rep = Cache.Set_assoc.replay cache; hit; miss }

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

let key_of_ints ints =
  let buf = Buffer.create 64 in
  List.iter
    (fun v ->
       Buffer.add_string buf (string_of_int v);
       Buffer.add_char buf ',')
    ints;
  Buffer.contents buf

let state_key t (st : Pipeline.Inorder.state) =
  key_of_ints
    (t.digest
     :: (level_pack st.mem.Pipeline.Mem_system.imem
         @ level_pack st.mem.Pipeline.Mem_system.dmem
         @ Branchpred.Predictor.pack st.predictor))

(* One cell: the packed replay of [st] is built here and dropped on return;
   every event of the trace steps it cycle-accurately, mirroring
   [Pipeline.Inorder.run] term for term. *)
let run_cell (st : Pipeline.Inorder.state) (tr : Trace.compiled) =
  let imem = level_replay st.mem.Pipeline.Mem_system.imem in
  let dmem = level_replay st.mem.Pipeline.Mem_system.dmem in
  let pred = Branchpred.Predictor.replay st.predictor in
  let cyc = ref 0 in
  for k = 0 to tr.Trace.events - 1 do
    cyc := !cyc + level_cost imem tr.Trace.iaddr.(k);
    cyc := !cyc + tr.Trace.base.(k);
    let da = tr.Trace.daddr.(k) in
    if da >= 0 then cyc := !cyc + level_cost dmem da;
    if tr.Trace.br.(k) then begin
      let ev =
        { Branchpred.Predictor.pc = tr.Trace.pcs.(k);
          backward = tr.Trace.br_backward.(k);
          taken = tr.Trace.br_taken.(k) }
      in
      if not (Branchpred.Predictor.replay_correct pred ev) then
        cyc := !cyc + Pipeline.Latency.branch_mispredict_penalty
    end
  done;
  !cyc

let memo_size t =
  match t.memo with
  | None -> 0
  | Some m -> with_lock t (fun () -> Hashtbl.length m)

(* One cell through the memo, looked up on [skey] (the packed state), so a
   hit never builds the replay. *)
let cell t ~skey st tr =
  match t.memo with
  | None -> run_cell st tr
  | Some memo -> (
      let key = skey ^ "#" ^ tr.Trace.key in
      match with_lock t (fun () -> Hashtbl.find_opt memo key) with
      | Some v ->
        Prelude.Instrument.add_memo_hits 1;
        v
      | None ->
        Prelude.Instrument.add_memo_misses 1;
        let v = run_cell st tr in
        with_lock t (fun () -> Hashtbl.replace memo key v);
        v)

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

let time t st input = grid t [| st |] [| input |] 0 0
