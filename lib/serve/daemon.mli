(** The [predlab serve] daemon: a memo-cached evaluation service over a
    Unix-domain socket, served by a bounded pool of worker domains.

    The accept loop (on the domain that serves: the caller's under
    {!run}, a new one under {!start}) hands each connection to one of
    [conns] resident worker domains through a bounded pending queue;
    when all workers are busy {e and} the queue is full, new connections
    are shed immediately with the structured
    {!Protocol.overloaded} envelope instead of queueing without bound.
    What makes the daemon pay off is residency — the per-workload
    fast-path engines ({!Fastpath.Engine}), their compiled traces and
    [T_p(q,i)] memo tables persist across requests and connections and
    are shared by all workers (each engine is internally mutex-guarded;
    the engine table and every daemon counter are likewise guarded or
    atomic). The memo tables are bounded by the pinned uncertainty sets:
    an [eval] addresses one cell of its workload's [states x inputs]
    grid by index, and an index out of range is refused, so an engine
    never holds more memo cells than its grid has.

    Connection edges are hardened ({!Prelude.Lineio}): request frames
    are read through a [max_frame]-bounded reader — an oversized frame
    costs one {!Protocol.oversized} error envelope, not the connection,
    and never more than [max_frame + one chunk] of memory; reads and
    writes carry the [idle_s] monotonic budget, so a wedged or slowloris
    peer is reaped (and counted) instead of parking a worker while
    well-behaved siblings wait.

    Shutdown is a graceful drain: a [shutdown] request, {!stop}, or
    SIGTERM/SIGINT under {!run} stops the accept loop, sheds whatever is
    still queued, lets in-flight connections finish under [drain_s],
    force-resets the stragglers, joins the workers and unlinks the
    socket.

    A daemon has one lifecycle with two front ends. {!start} and {!stop}
    run it in-process beside other work (the serve chaos campaign,
    test_serve, the throughput bench kernel): no signal handler, and the
    caller decides when it ends. {!run} is [predlab serve]: it blocks
    the calling domain and ends on a signal or a [shutdown] request.

    The [stats] op reports [uptime_s], [jobs], [conns], [queue_bound],
    [served], [errors], [in_flight], [active_connections],
    [queue_depth], [shed], [reaped_idle], [oversized_frames],
    [fd_errors], [draining], the memo and evaluation counters and one
    record per resident engine ([memo_cells], [states], [inputs]), under
    schema [predlab/serve-stats] version 3.
    [fd_errors] is {!Prelude.Lineio.bad_closes}: closes, anywhere in the
    process, that found their descriptor already closed. It is 0 unless
    something closed a descriptor twice.

    Failure containment invariants (the test_serve suite and the serve
    chaos plane gate all of them): a malformed or oversized request line
    yields one error envelope and leaves the connection open; a crashing
    or deadline-blown request yields an error (or [timed_out]-status)
    envelope and leaves the daemon serving; a dropped connection or an
    armed [serve.accept]/[serve.read]/[serve.write] fault site never
    kills the accept loop; responses are bit-identical to the one-shot
    CLI for any [jobs]/[conns] count. *)

type config = {
  socket : string;  (** Unix-domain socket path (length-limited by the OS) *)
  jobs : int;  (** worker domains for request evaluation (per request) *)
  deadline_s : float option;
      (** default per-request cooperative budget; a request's ["deadline"]
          field overrides it *)
  conns : int;  (** connection worker domains: concurrent connections served *)
  queue : int;
      (** pending-connection queue bound; [0] = shed whenever every
          worker is busy *)
  idle_s : float option;
      (** per-connection budget for reading one complete request frame
          and for draining one response write; [None] = never reap *)
  drain_s : float;
      (** graceful-drain budget: how long shutdown waits for in-flight
          connections before force-resetting them *)
  max_frame : int;  (** byte cap on a single request line *)
}

val default_conns : int
(** 4 connection workers. *)

val default_queue : int
(** 16 pending connections. *)

val default_idle_s : float option
(** 30 seconds. *)

val default_drain_s : float
(** 5 seconds. *)

val default_max_frame : int
(** {!Prelude.Lineio.default_max_line} (1 MiB). *)

exception Busy of string
(** Raised by {!start} and {!run} when a live daemon already listens on the socket or
    another daemon holds the socket's lockfile mid-startup (a dead
    daemon's stale socket file is silently replaced — the lockfile plus
    a connect probe make the claim race-free across processes). *)

type t
(** A daemon serving on a domain of its own, from {!start}. *)

val start : config -> t
(** Validate [config], claim the socket and listen on the calling
    domain, so a client can connect the moment [start] returns; then
    serve on one new domain (which spawns the [conns] workers). Installs
    no SIGINT or SIGTERM handler. Like {!run} it sets SIGPIPE to ignored,
    so a write to a client that hung up fails instead of killing the
    process.
    @raise Busy, [Unix.Unix_error], [Sys_error] or [Invalid_argument] as
    {!run} does, before any domain is spawned. *)

val stop : t -> unit
(** Stop the daemon as a [shutdown] request does (a no-op if one
    already did), wait for the drain, join the serving domain and
    re-raise whatever it raised. *)

val run : ?on_ready:(unit -> unit) -> config -> unit
(** Serve on the calling domain until a [shutdown] request or
    SIGTERM/SIGINT arrives, then drain and return: the listener closes,
    queued connections are shed, in-flight connections finish under
    [drain_s], workers are joined and the socket is unlinked. The
    SIGTERM/SIGINT handlers are installed for the daemon's lifetime and
    the previous dispositions put back on return. [on_ready] fires once
    the socket is listening and the workers run, before the first
    accept: [predlab serve] prints its "listening" line there.
    @raise Busy, [Unix.Unix_error] or [Sys_error] on setup failure;
    @raise Invalid_argument on non-positive [jobs]/[conns]/[max_frame],
    negative [queue], or non-positive
    [deadline_s]/[idle_s]/[drain_s]. *)
