(** Bounded, deadline-aware line IO over raw [Unix] file descriptors.

    The serving plane (and any reader of untrusted bytes) must not inherit
    [input_line]'s failure modes: unbounded buffering of an unterminated
    line, and unbounded blocking on a wedged peer. A {!reader} enforces a
    hard per-line byte cap — an oversized line is {e consumed} (its bytes
    discarded up to the newline) and reported as [`Oversized], so the
    stream stays aligned and the connection survives — and every call can
    carry a monotonic-clock budget ({!Mono}), after which the caller
    decides what a silent peer means (reap it, retry, give up).

    Used by the serve daemon's connection loop, the serve client's
    response reader and the journal replayer, which also close their
    descriptors through {!close}. *)

type line =
  [ `Line of string     (** a complete ['\n']-terminated line, within the cap *)
  | `Partial of string  (** EOF with unterminated bytes buffered: a torn frame *)
  | `Eof                (** clean end of stream (or the peer reset it) *)
  | `Oversized          (** a line over [max_line] bytes was discarded whole *)
  | `Idle               (** the [idle_s] budget passed with the line incomplete *)
  ]

type reader

val default_max_line : int
(** 1 MiB. *)

val reader : ?max_line:int -> Unix.file_descr -> reader
(** A buffered line reader over [fd] (which the caller still owns and
    closes). [max_line] caps the bytes of any single line (default
    {!default_max_line}).
    @raise Invalid_argument if [max_line < 1]. *)

val read_line : ?idle_s:float -> reader -> line
(** Read the next line (without its ['\n']). With [idle_s] the {e whole
    call} gets that monotonic budget — a drip-feeding peer must complete
    the line within it, so slowloris writers are bounded, not just silent
    ones. Without it the call blocks like [input_line]. Read errors
    (ECONNRESET and friends) are reported as [`Eof]: to a line reader a
    reset peer and a closed one are the same event.
    @raise Invalid_argument if [idle_s <= 0]. *)

val write_line :
  ?deadline_s:float -> Unix.file_descr -> string ->
  (unit, [ `Closed | `Timeout ]) result
(** Write [line ^ "\n"], looping over partial writes. With [deadline_s]
    the whole write gets that monotonic budget — a peer that stops
    draining its socket yields [Error `Timeout] instead of parking the
    writer forever. A broken pipe / reset is [Error `Closed].
    @raise Invalid_argument if [deadline_s <= 0]. *)

val close : Unix.file_descr -> unit
(** Close [fd], swallowing any error, as a best-effort close must. An
    [EBADF] means [fd] was already closed — a double close, which shuts
    another file if the number was reused in between — so it is counted
    in {!bad_closes}. *)

val bad_closes : unit -> int
(** How many {!close} calls in this process, on any domain, found their
    descriptor already closed. Zero in a correct program; the serve
    daemon reports it as [fd_errors] in its [stats]. *)
