(** Seeded chaos campaign for the serve plane: adversarial and faulty
    clients against a live in-process daemon, over real sockets.

    Where {!Predictability.Chaos} proves the experiment supervisor
    degrades gracefully under injected faults, this module proves the
    network boundary does. Three phases, each against a fresh daemon:

    - {b connection edges}: torn frames, mid-request disconnects, a
      byte-dripping slow writer, an oversized frame (same connection must
      survive), a 4-client concurrent burst whose responses must be
      byte-identical to the one-shot CLI's constructor documents, and a
      wedged half-frame client that must be reaped on the idle deadline
      while a concurrent well-behaved sibling completes inside it;
    - {b backpressure} ([conns=1], [queue=0]): while one client holds the
      only worker, every further connection must be shed with the
      {!Protocol.overloaded} envelope — and the shed count in stats must
      equal the clients sent, exactly;
    - {b armed fault sites}: the seeded {!Prelude.Faults.campaign} over
      {!sites} drives round trips with [serve.accept]/[serve.read]/
      [serve.write] armed; individual connections may die, the daemon may
      not, and it must answer cleanly once disarmed.

    Each daemon comes from {!Daemon.start}, so it installs no signal
    handler: Ctrl-C stops the campaign, not the daemon under test.

    Every response is read through {!Protocol.reply_of_json}, the reader
    behind [predlab query]'s exit class, so a probe's verdict and what a
    script would see come from one reading of the envelope. The
    well-behaved round trips are {!Client.call}s; the raw-socket probes
    write bytes no client would.

    A violation is anything outside that contract: a dead daemon, a
    non-deterministic shed/reap count, a diverging response document, a
    close that found its descriptor already closed (subject
    [fd_errors]). [predlab chaos --plane serve] exits 4 iff any is
    reported. *)

type violation = {
  subject : string;
  detail : string;
}

type counts = {
  shed : int;
  reaped_idle : int;
  oversized_frames : int;
}

type verdict = {
  seed : int;
  plan : Prelude.Faults.site list;  (** phase-3 armed sites *)
  edge : counts;  (** final stats of the connection-edges daemon *)
  backpressure_shed : int;  (** shed count observed in phase 2 *)
  fault_ok : int;  (** successful round trips under armed faults *)
  fault_attempts : int;
  violations : violation list;
}

val sites : string list
(** The serve-plane injection sites:
    [["serve.accept"; "serve.read"; "serve.write"]]. *)

val run : seed:int -> unit -> verdict
(** Run the three phases. Equal seeds arm equal fault plans and drive the
    same burst workloads; the shed/reap/oversized counts asserted on are
    exact, not thresholds. *)

val verdict_to_json : verdict -> Prelude.Json.t
(** Schema [predlab/serve-chaos], version 1. *)

val render : verdict -> string
