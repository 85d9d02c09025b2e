(** Register liveness and definite-assignment over the {!Cfg}.

    Registers are tracked as bitmasks indexed by {!Isa.Reg.index}.

    Liveness is the classic backward may-analysis; every register is
    considered live at [Halt] because the harness observes the final
    register file ({!Isa.Exec.outcome.final_regs}), so a write that
    survives to program exit is never "dead".

    Definite assignment is a forward must-analysis (meet = intersection)
    run through the generic {!Solver}: a register is definitely assigned
    at a point if every path from the entry writes it first. Reads outside
    that set read the architectural zero the interpreter initialises
    registers to — legal, but worth flagging ({!maybe_uninitialized}). *)

val mask_of : Isa.Reg.t list -> int
val mem_mask : Isa.Reg.t -> int -> bool

val written_to_halt : Cfg.t -> int
(** Bitmask of registers written by some instruction that lies on a path
    from the entry to a [Halt]: its block is reachable and some
    [Halt]-terminated block is reachable from it. A declared result
    register outside this mask can only ever be observed as its
    architectural zero — almost certainly a workload-definition typo
    (the [dead-result-reg] lint rule). *)

val dead_stores : Cfg.t -> (int * Isa.Reg.t) list
(** [(pc, reg)] for writes in reachable blocks whose value is overwritten
    on every path before being read ([Halt] counts as reading all
    registers). Ascending [pc]. *)

val maybe_uninitialized :
  Cfg.t -> inputs:Isa.Reg.t list -> (int * Isa.Reg.t) list
(** [(pc, reg)] for reads in reachable blocks where [reg] is not
    definitely assigned and is not one of the declared [inputs] (registers
    a workload's input set initialises). One finding per register — the
    first offending read in ascending [pc] order. *)
