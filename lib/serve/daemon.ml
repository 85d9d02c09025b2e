module Json = Prelude.Json
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

(* One resident engine per workload: the engine owns the compiled traces
   and the bounded T_p memo; the arrays pin the standard uncertainty sets
   so eval requests address cells by index, through one grid over them
   that packs each state and input once. *)
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
   - [conns_mu] guards every accepted connection the daemon holds:
     [pending], the queue no worker has taken yet, and [live], the ones
     workers are serving (drain force-[shutdown]s what is left there).
     [conns_cond] wakes workers on a push or a stop. A worker moves a
     connection from [pending] to [live] in one critical section, so
     the shed decision sees queue and busy workers as one picture, and
     removes it from [live] *before* closing it, so drain can never
     shut down a recycled descriptor.
   - Everything else shared is an [Atomic.t]; plain mutable fields would
     be data races under domains. *)
type state = {
  config : config;
  listener : Unix.file_descr;
  lock_fd : Unix.file_descr;  (* the socket's lockfile, held while serving *)
  engines : (string, entry) Hashtbl.t;
  engines_mu : Mutex.t;
  started : float;  (* Mono.now at listen time *)
  served : int Atomic.t;
  errors : int Atomic.t;
  in_flight : int Atomic.t;
  shed : int Atomic.t;
  reaped_idle : int Atomic.t;
  oversized_frames : int Atomic.t;
  (* Instrument counters live in domain-local storage; each request's
     delta is folded in here so stats aggregate across workers. *)
  c_evals : int Atomic.t;
  c_cells : int Atomic.t;
  c_memo_hits : int Atomic.t;
  c_memo_misses : int Atomic.t;
  stopping : bool Atomic.t;
  conns_mu : Mutex.t;
  conns_cond : Condition.t;
  pending : Unix.file_descr Queue.t;
  live : (Unix.file_descr, unit) Hashtbl.t;
}

(* A daemon from [start]: its state and the domain serving it. *)
type t = { daemon : state; serving : unit Domain.t }

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
  let active, queued =
    Mutex.protect t.conns_mu (fun () ->
        (Hashtbl.length t.live, Queue.length t.pending))
  in
  Protocol.ok ~op:"stats"
    (Json.Obj
       [ ("schema", Json.String "predlab/serve-stats");
         ("version", Json.Int 2);
         ("uptime_s", Json.Float (Prelude.Mono.now () -. t.started));
         ("jobs", Json.Int t.config.jobs);
         ("conns", Json.Int t.config.conns);
         ("queue_bound", Json.Int t.config.queue);
         ("served", Json.Int (Atomic.get t.served));
         ("errors", Json.Int (Atomic.get t.errors));
         ("in_flight", Json.Int (Atomic.get t.in_flight));
         ("active_connections", Json.Int active);
         ("queue_depth", Json.Int queued);
         ("shed", Json.Int (Atomic.get t.shed));
         ("reaped_idle", Json.Int (Atomic.get t.reaped_idle));
         ("oversized_frames", Json.Int (Atomic.get t.oversized_frames));
         ("fd_errors", Json.Int (Lineio.bad_closes ()));
         ("draining", Json.Bool (Atomic.get t.stopping));
         ("memo_hits", Json.Int (Atomic.get t.c_memo_hits));
         ("memo_misses", Json.Int (Atomic.get t.c_memo_misses));
         ("evals", Json.Int (Atomic.get t.c_evals));
         ("cells", Json.Int (Atomic.get t.c_cells));
         ("memo_cells", Json.Int memo_cells);
         ("memo_bound", Json.Int t.config.memo_bound);
         ("engines", Json.List engines) ])

let handle_shutdown t =
  Protocol.ok ~op:"shutdown"
    (Json.Obj
       [ ("schema", Json.String "predlab/serve-shutdown");
         ("version", Json.Int 1);
         ("stopping", Json.Bool true);
         ("served", Json.Int (Atomic.get t.served + 1));
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

let is_error response =
  match Protocol.reply_of_json response with
  | Ok (Protocol.Refused _) -> true
  | Ok (Protocol.Answered _) | Error _ -> false

(* One request line in, one response line out. Returns [true] when the
   daemon should stop (a shutdown response is about to be flushed). *)
let process t line =
  let response, shutdown =
    match Json.parse line with
    | Error message -> (Protocol.error ("parse error: " ^ message), false)
    | Ok json -> (
        match Protocol.request_of_json json with
        | Error message -> (Protocol.error message, false)
        | Ok ((request, _) as parsed) ->
          Atomic.incr t.in_flight;
          let before = Prelude.Instrument.snapshot () in
          let response =
            Fun.protect
              ~finally:(fun () ->
                Atomic.decr t.in_flight;
                let a = Prelude.Instrument.snapshot ()
                and b = before in
                let add counter n = ignore (Atomic.fetch_and_add counter n) in
                let open Prelude.Instrument in
                add t.c_evals (a.evals - b.evals);
                add t.c_cells (a.cells - b.cells);
                add t.c_memo_hits (a.memo_hits - b.memo_hits);
                add t.c_memo_misses (a.memo_misses - b.memo_misses))
              (fun () -> dispatch t parsed)
          in
          (response, request = Protocol.Shutdown))
  in
  let refused = is_error response in
  Atomic.incr (if refused then t.errors else t.served);
  (Json.to_string response, shutdown && not refused)

(* --- Connections ---------------------------------------------------------

   Each connection is owned by exactly one worker domain for its whole
   life. All reads go through the bounded Lineio reader (max_frame cap,
   idle budget); all writes get the same budget so a peer that stops
   draining its socket cannot park the worker. *)

let request_stop t =
  Atomic.set t.stopping true;
  Mutex.protect t.conns_mu (fun () -> Condition.broadcast t.conns_cond)

(* [fd] is already in [live]: the worker moved it there when it took it. *)
let serve_connection t fd =
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
        Atomic.incr t.reaped_idle;
        ignore
          (Lineio.write_line ~deadline_s:1.0 fd
             (Json.to_string
                (Protocol.error
                   ~fields:[ ("status", Json.String "idle_timeout") ]
                   "idle timeout: no complete request frame arrived in \
                    time")))
      | `Oversized ->
        Atomic.incr t.oversized_frames;
        Atomic.incr t.errors;
        let line =
          Json.to_string (Protocol.oversized ~max_frame:t.config.max_frame)
        in
        (match write line with Ok () -> loop () | Error _ -> ())
      | `Partial line | `Line line when String.trim line = "" -> loop ()
      | `Partial line | `Line line ->
        let response, stop = process t line in
        Faults.point "serve.write";
        (match write response with
         | Ok () -> if stop then request_stop t else loop ()
         | Error _ -> ())
    end
  in
  (* A connection dying mid-request (EPIPE/ECONNRESET, or an armed
     serve.read/serve.write fault) must never take the worker down — it
     closes this connection and serves the next. *)
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect t.conns_mu (fun () -> Hashtbl.remove t.live fd);
      Lineio.close fd)
    (fun () ->
       try loop ()
       with
       | Sys_error _ | Unix.Unix_error _ | Faults.Injected _
       | Faults.Forced_timeout _ -> ())

(* --- Worker pool and backpressure --------------------------------------- *)

let worker_loop t =
  let rec take () =
    match Queue.take_opt t.pending with
    | Some fd ->
      Hashtbl.replace t.live fd ();
      Some fd
    | None when Atomic.get t.stopping -> None
    | None ->
      Condition.wait t.conns_cond t.conns_mu;
      take ()
  in
  let rec next () =
    match Mutex.protect t.conns_mu take with
    | None -> ()
    | Some fd ->
      serve_connection t fd;
      next ()
  in
  next ()

let shed_connection t fd =
  Atomic.incr t.shed;
  let line =
    Json.to_string
      (Protocol.overloaded ~conns:t.config.conns ~queue:t.config.queue)
  in
  ignore (Lineio.write_line ~deadline_s:1.0 fd line);
  Lineio.close fd

let enqueue t fd =
  let shed =
    Mutex.protect t.conns_mu (fun () ->
        let shed =
          Queue.length t.pending >= t.config.queue
          && Hashtbl.length t.live >= t.config.conns
        in
        if not shed then begin
          Queue.push fd t.pending;
          Condition.signal t.conns_cond
        end;
        shed)
  in
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
             Lineio.close fd);
          accept_loop t)
  end

(* --- Drain ---------------------------------------------------------------

   Stop accepting, shed everything still queued (it never started), let
   in-flight connections finish under the drain budget, then force-reset
   the stragglers so workers unblock, and join the pool. *)

let drain t workers =
  request_stop t;
  let queued =
    Mutex.protect t.conns_mu (fun () ->
        let queued = List.of_seq (Queue.to_seq t.pending) in
        Queue.clear t.pending;
        queued)
  in
  List.iter (fun fd -> shed_connection t fd) queued;
  let deadline = Prelude.Mono.now () +. t.config.drain_s in
  while
    Mutex.protect t.conns_mu (fun () -> Hashtbl.length t.live) > 0
    && Prelude.Mono.now () < deadline
  do
    Prelude.Mono.sleep 0.01
  done;
  (* Stragglers blew the drain budget: reset their sockets so blocked
     reads return Eof. Workers leave [live] before closing, so every fd
     seen here is still the connection's. *)
  Mutex.protect t.conns_mu (fun () ->
      Hashtbl.iter
        (fun fd () ->
           try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        t.live);
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
    Lineio.close lock_fd;
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
    Lineio.close probe;
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
     Lineio.close fd;
     (try Unix.unlink tmp with Unix.Unix_error _ | Sys_error _ -> ());
     give_up exn);
  (fd, lock_fd)

let validate config =
  if config.jobs < 1 then
    invalid_arg "Serve.Daemon: jobs must be >= 1";
  if config.memo_bound < 1 then
    invalid_arg "Serve.Daemon: memo_bound must be >= 1";
  if config.conns < 1 then
    invalid_arg "Serve.Daemon: conns must be >= 1";
  if config.queue < 0 then
    invalid_arg "Serve.Daemon: queue must be >= 0";
  if config.drain_s <= 0. then
    invalid_arg "Serve.Daemon: drain must be > 0";
  if config.max_frame < 1 then
    invalid_arg "Serve.Daemon: max-frame must be >= 1";
  (match config.idle_s with
   | Some d when d <= 0. -> invalid_arg "Serve.Daemon: idle must be > 0"
   | _ -> ());
  match config.deadline_s with
  | Some d when d <= 0. ->
    invalid_arg "Serve.Daemon: deadline must be > 0"
  | _ -> ()

(* Validate, claim the socket and listen: a client can connect the
   moment this returns. *)
let claim config =
  validate config;
  (* Writing to a client that hung up raises EPIPE; without this the
     default SIGPIPE disposition kills the process instead. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listener, lock_fd = listen config in
  { config; listener; lock_fd;
    engines = Hashtbl.create 8;
    engines_mu = Mutex.create ();
    started = Prelude.Mono.now ();
    served = Atomic.make 0; errors = Atomic.make 0;
    in_flight = Atomic.make 0; shed = Atomic.make 0;
    reaped_idle = Atomic.make 0; oversized_frames = Atomic.make 0;
    c_evals = Atomic.make 0; c_cells = Atomic.make 0;
    c_memo_hits = Atomic.make 0; c_memo_misses = Atomic.make 0;
    stopping = Atomic.make false;
    conns_mu = Mutex.create ();
    conns_cond = Condition.create ();
    pending = Queue.create ();
    live = Hashtbl.create 16 }

let release t =
  Lineio.close t.listener;
  (try Unix.unlink t.config.socket with Unix.Unix_error _ | Sys_error _ -> ());
  Lineio.close t.lock_fd

(* Accept until stopped, drain, and give the socket back. A worker that
   fails to spawn still drains and joins the ones before it. *)
let serve ?(on_ready = fun () -> ()) t =
  let workers = ref [] in
  Fun.protect ~finally:(fun () -> release t) (fun () ->
      Fun.protect
        ~finally:(fun () -> drain t !workers)
        (fun () ->
           for _ = 1 to t.config.conns do
             workers := Domain.spawn (fun () -> worker_loop t) :: !workers
           done;
           on_ready ();
           accept_loop t))

let start config =
  let daemon = claim config in
  match Domain.spawn (fun () -> serve daemon) with
  | serving -> { daemon; serving }
  | exception exn ->
    release daemon;
    raise exn

let stop { daemon; serving } =
  request_stop daemon;
  Domain.join serving

let run ?on_ready config =
  let t = claim config in
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
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (signum, old) ->
           try Sys.set_signal signum old
           with Invalid_argument _ | Sys_error _ -> ())
        saved)
    (fun () -> serve ?on_ready t)
