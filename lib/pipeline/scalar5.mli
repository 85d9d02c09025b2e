(** A classic five-stage in-order pipeline (IF ID EX MEM WB) with full
    forwarding, a one-cycle load-use bubble, multi-cycle execute occupancy
    for multiply/divide, and branch resolution in EX (taken control flow
    flushes two slots).

    This sits between the strictly sequential {!Inorder} model and the
    {!Superscalar}: instructions overlap, so timing is no longer a plain sum
    of per-instruction costs — but issue remains in order and stalls only
    ever {e add} delay, so the machine stays free of timing anomalies: any
    initial delay can only push completion later (checked in the EXT.PIPE
    experiment and the test suite), and the sequential model is a sound
    upper bound on it. *)

type state = Inorder.state = {
  mem : Mem_system.t;
  predictor : Branchpred.Predictor.t;
}

val state :
  ?mem:Mem_system.t -> ?predictor:Branchpred.Predictor.t -> unit -> state
(** {!Inorder.state}. Defaults: perfect memory, static BTFN prediction. *)

type result = {
  cycles : int;
  final : state;
  stalls : int;        (** bubbles inserted (hazards, flushes, misses) *)
  mispredictions : int;
}

val run : ?start_delay:int -> Isa.Program.t -> state -> Isa.Exec.outcome -> result
(** [start_delay] delays the first fetch (for anomaly-freedom checks). *)

val time : Isa.Program.t -> state -> Isa.Exec.input -> int
