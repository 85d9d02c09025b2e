(** Interval abstract interpretation over the {!Cfg}: per-register value
    intervals at every program point.

    The concrete semantics is {!Isa.Exec}: native-int arithmetic, shifts
    masked with [land 31] ([Shr] arithmetic), loads from untracked memory.
    The abstract transfer mirrors it operation for operation; memory is
    not tracked, so [Ld] yields top and [St] is a no-op. Registers start
    at top (inputs may set any register to any value; {!Isa.Exec.run}
    zeroes the rest, and 0 is in top).

    Soundness contract (checked end-to-end by the FIG1.SOUND experiment):
    for every input, every concrete register value observed at a program
    point lies in that point's interval. Bounds whose magnitude exceeds an
    internal limit are widened to infinity so abstract arithmetic never
    wraps while the concrete 63-bit machine cannot wrap below the limit
    either. A left shift that may carry a value past the native integers
    is top: the concrete shift wraps, to either sign. So is a negation
    (and so a subtraction) of an interval unbounded below, since the
    concrete negation of [min_int] is [min_int].

    Conditional branches refine both operand intervals on each outgoing
    edge; an edge whose refinement is empty is dead, which is how
    statically-dead branch arms ({!dead_edges}) are detected. *)

type itv = private {
  lo : int;  (** [min_int] encodes -oo *)
  hi : int;  (** [max_int] encodes +oo *)
}

val top : itv
val const : int -> itv
val make : int -> int -> itv
(** @raise Invalid_argument if [lo > hi]. *)

val mem : int -> itv -> bool
val is_const : itv -> bool
val join_itv : itv -> itv -> itv
val add : itv -> itv -> itv
(** Abstract addition (used e.g. to form effective-address intervals);
    [top] where the concrete sum may wrap past an infinite bound. *)

val to_string : itv -> string
(** e.g. ["[0, 31]"], ["[-oo, 5]"], ["top"]. *)

type env = itv array
(** One interval per register, indexed by {!Isa.Reg.index}. *)

val reg : env -> Isa.Reg.t -> itv

type result

val analyze : Isa.Program.t -> result

val cfg : result -> Cfg.t

val instr_envs : result -> (int * Isa.Instr.t * env) list
(** [(pc, instruction, env before the instruction)] for every instruction
    of every analysis-reachable block, in ascending [pc] order — the
    input of the per-instruction {!Lint} rules. *)

val final_env : result -> env
(** Join of the environments at every reachable [Halt]: the analysis'
    claim about the final register file. All-top if no [Halt] is
    reachable. *)

val dead_edges : result -> (int * [ `Taken | `Fallthrough ]) list
(** Conditional branches with a statically-infeasible arm: [(pc, arm)]
    where the refined interval state on that arm is empty. *)
