module Json = Prelude.Json
module Counter = Prelude.Counter
module Lineio = Prelude.Lineio
module Faults = Prelude.Faults

type config = {
  socket : string;
  jobs : int;
  deadline_s : float option;
  memo_bound : int;
  conns : int;
  queue : int;
  idle_s : float option;
  drain_s : float;
  max_frame : int;
}

let default_memo_bound = 65536
let default_conns = 4
let default_queue = 16
let default_idle_s = Some 30.
let default_drain_s = 5.
let default_max_frame = Lineio.default_max_line

exception Busy of string

(* One resident engine per workload: the engine owns the compiled traces,
   block summaries and the bounded T_p memo; the arrays pin the standard
   uncertainty sets so eval requests address cells by index, through one
   grid over them that packs each state and input once. *)
type entry = {
  e_engine : Fastpath.Engine.t;
  e_states : Pipeline.Inorder.state array;
  e_inputs : Isa.Exec.input array;
  e_cell : int -> int -> int;
}

(* Shared across the accept domain and all worker domains. Locking
   discipline:
   - [engines_mu] guards the engines table (lookup-or-build, stats fold);
     engine *calls* need no table lock — each engine is internally
     mutex-guarded.
   - [queue_mu]/[queue_cond] guard [pending] and order the shed decision
     against worker pops; [active_conns] is bumped inside the same
     critical section as the pop so "all workers busy" is judged against
     a consistent queue+workers picture.
   - [live_mu] guards [live], the registry of connection fds eligible for
     a forced [Unix.shutdown] at drain time; a worker deregisters its fd
     under [live_mu] *before* closing it, so the drain path can never
     shut down a recycled descriptor.
   - Everything else shared is a {!Prelude.Counter} (atomic) or
     [Atomic.t]; plain mutable fields would be data races under domains. *)
type t = {
  config : config;
  listener : Unix.file_descr;
  engines : (string, entry) Hashtbl.t;
  engines_mu : Mutex.t;
  started : float;  (* Mono.now at listen time *)
  served : Counter.t;
  errors : Counter.t;
  in_flight : Counter.t;
  active_conns : Counter.t;
  shed : Counter.t;
  reaped_idle : Counter.t;
  oversized_frames : Counter.t;
  (* Instrument counters live in domain-local storage; each request's
     delta is folded in here so stats aggregate across workers. *)
  c_evals : Counter.t;
  c_cells : Counter.t;
  c_memo_hits : Counter.t;
  c_memo_misses : Counter.t;
  stopping : bool Atomic.t;
  queue_mu : Mutex.t;
  queue_cond : Condition.t;
  pending : Unix.file_descr Queue.t;
  live_mu : Mutex.t;
  live : (Unix.file_descr, unit) Hashtbl.t;
}

let entry_for t name =
  let build () =
    let w = Ops.workload name () in
    let program, _ = Isa.Workload.program w in
    let engine =
      Fastpath.Engine.create ~memo:true ~memo_bound:t.config.memo_bound
        program
    in
    let states =
      Array.of_list (Predictability.Harness.inorder_states program w)
    in
    let inputs =
      Array.of_list
        (Prelude.Listx.take Predictability.Sampled.input_cap
           w.Isa.Workload.inputs)
    in
    let e =
      { e_engine = engine; e_states = states; e_inputs = inputs;
        e_cell = Fastpath.Engine.grid engine states inputs }
    in
    Hashtbl.replace t.engines name e;
    e
  in
  Mutex.lock t.engines_mu;
  let result =
    match Hashtbl.find_opt t.engines name with
    | Some e -> e
    | None -> ( try build () with exn -> Mutex.unlock t.engines_mu; raise exn)
  in
  Mutex.unlock t.engines_mu;
  result

(* --- Daemon-only request handlers ----------------------------------------

   Each returns a complete response envelope. The ops the CLI shares
   (run/sample/lint/certify/compare) are not here: they go through
   {!Ops}, the same table entries the one-shot CLI prints from. *)

let handle_eval t ~workload ~state ~input =
  let e = entry_for t workload in
  let n_states = Array.length e.e_states
  and n_inputs = Array.length e.e_inputs in
  if state < 0 || state >= n_states then
    Protocol.error ~op:"eval"
      (Printf.sprintf "state index %d out of range (workload %S has %d \
                       states)" state workload n_states)
  else if input < 0 || input >= n_inputs then
    Protocol.error ~op:"eval"
      (Printf.sprintf "input index %d out of range (workload %S has %d \
                       inputs)" input workload n_inputs)
  else begin
    (* The instrument counters are domain-local, and this whole request
       runs on one worker domain, so the delta is this call's alone even
       with siblings evaluating concurrently. *)
    let before = Prelude.Instrument.snapshot () in
    let time = e.e_cell state input in
    let after = Prelude.Instrument.snapshot () in
    let cached =
      after.Prelude.Instrument.memo_hits > before.Prelude.Instrument.memo_hits
    in
    Protocol.ok ~op:"eval"
      (Json.Obj
         [ ("schema", Json.String "predlab/serve-eval");
           ("version", Json.Int 1);
           ("workload", Json.String workload);
           ("state", Json.Int state);
           ("input", Json.Int input);
           ("time_cycles", Json.Int time);
           ("cached", Json.Bool cached) ])
  end

let queue_depth t =
  Mutex.lock t.queue_mu;
  let n = Queue.length t.pending in
  Mutex.unlock t.queue_mu;
  n

let handle_stats t =
  Mutex.lock t.engines_mu;
  let engines =
    Hashtbl.fold
      (fun name e acc ->
         (name,
          Json.Obj
            [ ("workload", Json.String name);
              ("memo_cells", Json.Int (Fastpath.Engine.memo_size e.e_engine));
              ("states", Json.Int (Array.length e.e_states));
              ("inputs", Json.Int (Array.length e.e_inputs)) ])
         :: acc)
      t.engines []
  in
  let memo_cells =
    Hashtbl.fold
      (fun _ e acc -> acc + Fastpath.Engine.memo_size e.e_engine)
      t.engines 0
  in
  Mutex.unlock t.engines_mu;
  let engines =
    List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) engines)
  in
  Protocol.ok ~op:"stats"
    (Json.Obj
       [ ("schema", Json.String "predlab/serve-stats");
         ("version", Json.Int 2);
         ("uptime_s", Json.Float (Prelude.Mono.now () -. t.started));
         ("jobs", Json.Int t.config.jobs);
         ("conns", Json.Int t.config.conns);
         ("queue_bound", Json.Int t.config.queue);
         ("served", Json.Int (Counter.get t.served));
         ("errors", Json.Int (Counter.get t.errors));
         ("in_flight", Json.Int (Counter.get t.in_flight));
         ("active_connections", Json.Int (Counter.get t.active_conns));
         ("queue_depth", Json.Int (queue_depth t));
         ("shed", Json.Int (Counter.get t.shed));
         ("reaped_idle", Json.Int (Counter.get t.reaped_idle));
         ("oversized_frames", Json.Int (Counter.get t.oversized_frames));
         ("draining", Json.Bool (Atomic.get t.stopping));
         ("memo_hits", Json.Int (Counter.get t.c_memo_hits));
         ("memo_misses", Json.Int (Counter.get t.c_memo_misses));
         ("evals", Json.Int (Counter.get t.c_evals));
         ("cells", Json.Int (Counter.get t.c_cells));
         ("memo_cells", Json.Int memo_cells);
         ("memo_bound", Json.Int t.config.memo_bound);
         ("engines", Json.List engines) ])

let handle_shutdown t =
  Protocol.ok ~op:"shutdown"
    (Json.Obj
       [ ("schema", Json.String "predlab/serve-shutdown");
         ("version", Json.Int 1);
         ("stopping", Json.Bool true);
         ("served", Json.Int (Counter.get t.served + 1));
         ("uptime_s", Json.Float (Prelude.Mono.now () -. t.started)) ])

(* --- Dispatch ------------------------------------------------------------

   Every request runs under the daemon's (or the request's) cooperative
   deadline: the daemon-only ops here, the shared ops inside their {!Ops}
   entry. An overrun — detected at a Parallel checkpoint or post-hoc —
   becomes a [timed_out] error envelope, and an unknown name a [usage]
   one; neither is a daemon death. *)

let dispatch t (request, deadline_override) =
  let op = Protocol.op_name request in
  let deadline_s =
    match deadline_override with
    | Some _ as d -> d
    | None -> t.config.deadline_s
  in
  let timed_out after_s =
    Protocol.error ~op
      ~fields:
        [ ("status", Json.String "timed_out");
          ("after_s", Json.Float after_s) ]
      "timed_out"
  in
  match
    match request with
    | Protocol.Eval { workload; state; input } ->
      Ops.guarded deadline_s (fun () -> handle_eval t ~workload ~state ~input)
    | Protocol.Stats -> Ops.guarded deadline_s (fun () -> handle_stats t)
    | Protocol.Shutdown -> handle_shutdown t
    | request ->
      let entry = Option.get (Ops.find op) in
      Protocol.ok ~op
        (entry.Ops.document ~jobs:t.config.jobs ~deadline_s request)
  with
  | response -> response
  | exception Ops.Usage message ->
    Protocol.error ~op ~fields:[ ("status", Json.String "usage") ] message
  | exception Prelude.Parallel.Deadline_exceeded { elapsed_s; _ } ->
    timed_out elapsed_s
  | exception Prelude.Faults.Forced_timeout _ ->
    timed_out (Option.value ~default:0. deadline_s)
  | exception Invalid_argument message -> Protocol.error ~op message
  | exception exn -> Protocol.error ~op (Printexc.to_string exn)

let is_error = function
  | Json.Obj fields -> List.assoc_opt "ok" fields = Some (Json.Bool false)
  | _ -> false

(* One request line in, one response line out. Returns [true] when the
   daemon should stop (a shutdown response is about to be flushed). *)
let process t line =
  let response, stop =
    match Json.parse line with
    | Error message -> (Protocol.error ("parse error: " ^ message), false)
    | Ok json -> (
        match Protocol.request_of_json json with
        | Error message -> (Protocol.error message, false)
        | Ok ((request, _) as parsed) ->
          Counter.incr t.in_flight;
          let before = Prelude.Instrument.snapshot () in
          let response =
            Fun.protect
              ~finally:(fun () ->
                Counter.decr t.in_flight;
                let a = Prelude.Instrument.snapshot ()
                and b = before in
                let open Prelude.Instrument in
                Counter.add t.c_evals (a.evals - b.evals);
                Counter.add t.c_cells (a.cells - b.cells);
                Counter.add t.c_memo_hits (a.memo_hits - b.memo_hits);
                Counter.add t.c_memo_misses (a.memo_misses - b.memo_misses))
              (fun () -> dispatch t parsed)
          in
          (response, request = Protocol.Shutdown && not (is_error response)))
  in
  if is_error response then Counter.incr t.errors
  else Counter.incr t.served;
  (Json.to_string response, stop)

(* --- Connections ---------------------------------------------------------

   Each connection is owned by exactly one worker domain for its whole
   life. All reads go through the bounded Lineio reader (max_frame cap,
   idle budget); all writes get the same budget so a peer that stops
   draining its socket cannot park the worker. *)

let register_live t fd =
  Mutex.lock t.live_mu;
  Hashtbl.replace t.live fd ();
  Mutex.unlock t.live_mu

let deregister_live t fd =
  Mutex.lock t.live_mu;
  Hashtbl.remove t.live fd;
  Mutex.unlock t.live_mu

let stop t =
  Atomic.set t.stopping true;
  Mutex.lock t.queue_mu;
  Condition.broadcast t.queue_cond;
  Mutex.unlock t.queue_mu

let serve_connection t fd =
  register_live t fd;
  let reader = Lineio.reader ~max_line:t.config.max_frame fd in
  let write line = Lineio.write_line ?deadline_s:t.config.idle_s fd line in
  let rec loop () =
    if Atomic.get t.stopping then ()
    else begin
      Faults.point "serve.read";
      match Lineio.read_line ?idle_s:t.config.idle_s reader with
      | `Eof -> ()
      | `Idle ->
        (* Wedged or slowloris peer: reap it. The notice write gets a
           short budget of its own — a peer too wedged to read it just
           loses the connection a moment sooner. *)
        Counter.incr t.reaped_idle;
        ignore
          (Lineio.write_line ~deadline_s:1.0 fd
             (Json.to_string
                (Protocol.error
                   ~fields:[ ("status", Json.String "idle_timeout") ]
                   "idle timeout: no complete request frame arrived in \
                    time")))
      | `Oversized ->
        Counter.incr t.oversized_frames;
        Counter.incr t.errors;
        let line =
          Json.to_string (Protocol.oversized ~max_frame:t.config.max_frame)
        in
        (match write line with Ok () -> loop () | Error _ -> ())
      | `Partial line | `Line line when String.trim line = "" -> loop ()
      | `Partial line | `Line line ->
        let response, stop = process t line in
        Faults.point "serve.write";
        (match write response with
         | Ok () -> if stop then stop_daemon () else loop ()
         | Error _ -> ())
    end
  and stop_daemon () = stop t in
  (* A connection dying mid-request (EPIPE/ECONNRESET, or an armed
     serve.read/serve.write fault) must never take the worker down — it
     closes this connection and serves the next. *)
  (try loop ()
   with
   | Sys_error _ | Unix.Unix_error _ | Faults.Injected _
   | Faults.Forced_timeout _ -> ());
  deregister_live t fd;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* --- Worker pool and backpressure --------------------------------------- *)

let worker_loop t =
  let rec next () =
    Mutex.lock t.queue_mu;
    let rec wait () =
      if not (Queue.is_empty t.pending) then begin
        let fd = Queue.pop t.pending in
        (* Inside the critical section, so the shed decision sees queue
           and busy-workers as one consistent picture. *)
        Counter.incr t.active_conns;
        Some fd
      end
      else if Atomic.get t.stopping then None
      else begin
        Condition.wait t.queue_cond t.queue_mu;
        wait ()
      end
    in
    let job = wait () in
    Mutex.unlock t.queue_mu;
    match job with
    | None -> ()
    | Some fd ->
      Fun.protect
        ~finally:(fun () -> Counter.decr t.active_conns)
        (fun () -> serve_connection t fd);
      next ()
  in
  next ()

let shed_connection t fd =
  Counter.incr t.shed;
  let line =
    Json.to_string
      (Protocol.overloaded ~conns:t.config.conns ~queue:t.config.queue)
  in
  ignore (Lineio.write_line ~deadline_s:1.0 fd line);
  try Unix.close fd with Unix.Unix_error _ -> ()

let enqueue t fd =
  Mutex.lock t.queue_mu;
  let shed =
    Queue.length t.pending >= t.config.queue
    && Counter.get t.active_conns >= t.config.conns
  in
  if not shed then begin
    Queue.push fd t.pending;
    Condition.signal t.queue_cond
  end;
  Mutex.unlock t.queue_mu;
  if shed then shed_connection t fd

let rec accept_loop t =
  if Atomic.get t.stopping then ()
  else begin
    (* A finite select tick keeps the loop responsive to SIGTERM/SIGINT
       (whose handlers only flip [stopping]) and to a shutdown op served
       on a worker domain. *)
    match Unix.select [ t.listener ] [] [] 0.1 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t
    | [], _, _ -> accept_loop t
    | _ -> (
        match Unix.accept t.listener with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t
        | exception Unix.Unix_error _ when Atomic.get t.stopping -> ()
        | fd, _ ->
          (match Faults.point "serve.accept" with
           | () -> enqueue t fd
           | exception (Faults.Injected _ | Faults.Forced_timeout _) ->
             (* An injected accept fault costs that client its
                connection; the daemon accepts the next one. *)
             (try Unix.close fd with Unix.Unix_error _ -> ()));
          accept_loop t)
  end

(* --- Drain ---------------------------------------------------------------

   Stop accepting, shed everything still queued (it never started), let
   in-flight connections finish under the drain budget, then force-reset
   the stragglers so workers unblock, and join the pool. *)

let drain t workers =
  stop t;
  Mutex.lock t.queue_mu;
  let queued = List.of_seq (Queue.to_seq t.pending) in
  Queue.clear t.pending;
  Condition.broadcast t.queue_cond;
  Mutex.unlock t.queue_mu;
  List.iter (fun fd -> shed_connection t fd) queued;
  let deadline = Prelude.Mono.now () +. t.config.drain_s in
  let live_count () =
    Mutex.lock t.live_mu;
    let n = Hashtbl.length t.live in
    Mutex.unlock t.live_mu;
    n
  in
  while live_count () > 0 && Prelude.Mono.now () < deadline do
    Prelude.Mono.sleep 0.01
  done;
  (* Stragglers blew the drain budget: reset their sockets so blocked
     reads return Eof. Workers deregister before closing, so every fd
     seen here is still the connection's. *)
  Mutex.lock t.live_mu;
  Hashtbl.iter
    (fun fd () ->
       try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    t.live;
  Mutex.unlock t.live_mu;
  List.iter Domain.join workers

(* --- Socket setup -------------------------------------------------------- *)

(* Claiming the socket path is guarded twice:
   - an fcntl lock on [socket ^ ".lock"], held for the daemon's lifetime,
     serialises *processes* racing for the path (the probe-then-unlink
     TOCTOU of the naive scheme);
   - a connect probe distinguishes a live daemon from a stale socket file
     and also catches a second daemon in the same process, which fcntl
     locks (per-process by design) cannot.
   The listener binds a unique temp path and is renamed over the socket,
   so the advertised path never exists in a non-listening state. The tiny
   lockfile is deliberately left behind on shutdown: unlinking it would
   reintroduce the race on the lock itself. *)
let listen config =
  let lock_path = config.socket ^ ".lock" in
  let lock_fd =
    Unix.openfile lock_path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ]
      0o600
  in
  let give_up exn =
    (try Unix.close lock_fd with Unix.Unix_error _ -> ());
    raise exn
  in
  (match Unix.lockf lock_fd Unix.F_TLOCK 0 with
   | () -> ()
   | exception Unix.Unix_error _ ->
     give_up (Busy (config.socket ^ ": a daemon is already starting or \
                                    listening")));
  if Sys.file_exists config.socket then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX config.socket) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      give_up (Busy (config.socket ^ ": a daemon is already listening"));
    try Unix.unlink config.socket with Unix.Unix_error _ | Sys_error _ -> ()
  end;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let tmp = Printf.sprintf "%s.%d.tmp" config.socket (Unix.getpid ()) in
  (try
     (try Unix.unlink tmp with Unix.Unix_error _ -> ());
     Unix.bind fd (Unix.ADDR_UNIX tmp);
     Unix.listen fd 64;
     Unix.rename tmp config.socket
   with exn ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Unix.unlink tmp with Unix.Unix_error _ | Sys_error _ -> ());
     give_up exn);
  (fd, lock_fd)

let validate config =
  if config.jobs < 1 then
    invalid_arg "Serve.Daemon.run: jobs must be >= 1";
  if config.memo_bound < 1 then
    invalid_arg "Serve.Daemon.run: memo_bound must be >= 1";
  if config.conns < 1 then
    invalid_arg "Serve.Daemon.run: conns must be >= 1";
  if config.queue < 0 then
    invalid_arg "Serve.Daemon.run: queue must be >= 0";
  if config.drain_s <= 0. then
    invalid_arg "Serve.Daemon.run: drain must be > 0";
  if config.max_frame < 1 then
    invalid_arg "Serve.Daemon.run: max-frame must be >= 1";
  (match config.idle_s with
   | Some d when d <= 0. -> invalid_arg "Serve.Daemon.run: idle must be > 0"
   | _ -> ());
  match config.deadline_s with
  | Some d when d <= 0. ->
    invalid_arg "Serve.Daemon.run: deadline must be > 0"
  | _ -> ()

let run ?(on_ready = fun () -> ()) config =
  validate config;
  (* Writing to a client that hung up raises EPIPE; without this the
     default SIGPIPE disposition kills the process instead. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listener, lock_fd = listen config in
  let t =
    { config; listener;
      engines = Hashtbl.create 8;
      engines_mu = Mutex.create ();
      started = Prelude.Mono.now ();
      served = Counter.make (); errors = Counter.make ();
      in_flight = Counter.make (); active_conns = Counter.make ();
      shed = Counter.make (); reaped_idle = Counter.make ();
      oversized_frames = Counter.make ();
      c_evals = Counter.make (); c_cells = Counter.make ();
      c_memo_hits = Counter.make (); c_memo_misses = Counter.make ();
      stopping = Atomic.make false;
      queue_mu = Mutex.create ();
      queue_cond = Condition.create ();
      pending = Queue.create ();
      live_mu = Mutex.create ();
      live = Hashtbl.create 16 }
  in
  (* The handlers only flip the flag; the accept loop's 0.1 s select tick
     notices it. No locking or allocation in signal context. *)
  let install signum =
    match Sys.signal signum (Sys.Signal_handle (fun _ ->
        Atomic.set t.stopping true))
    with
    | old -> Some (signum, old)
    | exception (Invalid_argument _ | Sys_error _) -> None
  in
  let saved = List.filter_map install [ Sys.sigterm; Sys.sigint ] in
  let workers =
    List.init config.conns (fun _ -> Domain.spawn (fun () -> worker_loop t))
  in
  let finish () =
    List.iter
      (fun (signum, old) ->
         try Sys.set_signal signum old
         with Invalid_argument _ | Sys_error _ -> ())
      saved;
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    (try Unix.unlink config.socket with Unix.Unix_error _ | Sys_error _ -> ());
    try Unix.close lock_fd with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:finish (fun () ->
      Fun.protect
        ~finally:(fun () -> drain t workers)
        (fun () ->
           on_ready ();
           accept_loop t))
