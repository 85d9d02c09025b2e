(** Client side of the {!Protocol} JSONL wire: connect, request-response
    round trips, close. Used by [predlab query], the concurrent-
    throughput bench kernel, the serve chaos campaign and the test_serve
    suite.

    All IO goes through {!Prelude.Lineio}: responses are read under a
    frame cap, and every call can carry a monotonic-clock budget so a
    wedged daemon hangs the caller for [timeout_s], not forever. *)

type t

type error =
  | Timeout of float
      (** the budget (seconds) elapsed with the round trip incomplete —
          [predlab query --timeout] maps this to exit 3, like any other
          deadline overrun *)
  | Closed of string   (** the daemon hung up (or shed the connection) *)
  | Malformed of string
      (** the response line was not parseable JSON or blew the frame
          cap — a daemon bug, not a request error; request errors come
          back as [Ok] envelopes with [ok: false] *)

val error_message : error -> string
(** Human-readable rendering for CLI/stderr use. *)

val connect :
  ?retry_for_s:float -> ?max_frame:int -> string -> (t, string) result
(** Connect to a daemon's Unix-domain socket. With [retry_for_s > 0]
    (measured on the monotonic clock) a refused connection is retried
    until the budget runs out — the "daemon still starting up" window in
    scripted sessions. [max_frame] caps a single response line (default
    {!Prelude.Lineio.default_max_line}). *)

val request : ?timeout_s:float -> t -> Prelude.Json.t -> (Prelude.Json.t, error) result
(** Send one request line, read one response line, parse it. The
    [timeout_s] budget spans the whole round trip (send + receive). *)

val send : ?timeout_s:float -> t -> Prelude.Json.t -> (unit, error) result
(** Write one request line without waiting for the response — the
    pipelining half used by the throughput bench; pair with {!recv}. *)

val recv : ?timeout_s:float -> t -> (Prelude.Json.t, error) result
(** Read and parse the next response line. *)

val close : t -> unit
(** Close the connection. Idempotent: only the first call closes the
    descriptor, so a later call cannot close a socket that has since been
    given the same descriptor number. *)
