(** The compositional in-order scalar pipeline (the paper's ARM7 archetype).

    Cost model: instructions execute strictly in sequence; each one costs
    fetch + execute + memory + branch penalty, with no overlap. This makes
    the machine {e compositional} in the sense of Wilhelm et al.: the cost of
    a code block is the sum of per-instruction costs, each depending only on
    local cache/predictor state — no domino effects by construction — which
    is exactly what the structural WCET analysis in [lib/analysis] mirrors. *)

type state = {
  mem : Mem_system.t;
  predictor : Branchpred.Predictor.t;
}

val state :
  ?mem:Mem_system.t -> ?predictor:Branchpred.Predictor.t -> unit -> state
(** Defaults: perfect memory, static BTFN prediction. *)

type result = {
  cycles : int;
  final : state;
  mispredictions : int;
  fetch_cycles : int;
  data_cycles : int;
}

val run : Isa.Program.t -> state -> Isa.Exec.outcome -> result

val time : Isa.Program.t -> state -> Isa.Exec.input -> int
(** Execute functionally, then time: the executable [T_p(q, i)] of Def. 2. *)
