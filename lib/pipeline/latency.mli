(** The shared instruction-latency model.

    Variable-latency multiply/divide (iterative units whose cycle count
    depends on the operand magnitude) are one of the variability sources the
    Whitham virtual-trace design eliminates by forcing worst-case timing. *)

val base : operand:int -> Isa.Instr.t -> int
(** Execution-stage latency of an instruction (excluding fetch, memory and
    branch-resolution penalties). [operand] feeds the variable-latency
    units. *)

val base_worst : Isa.Instr.t -> int
(** Upper bound of {!base} over all operands (used by the WCET analysis and
    by constant-time execution modes). *)

val base_best : Isa.Instr.t -> int

val branch_mispredict_penalty : int
