(** Timing-influence (taint) analysis over the {!Cfg}.

    Marks every register — and the data-memory region as a whole — that
    {e may} depend on the workload's uncertainty source: the input
    registers and memory cells whose initial values vary across the
    admissible input set [I] of the paper's template (Defs. 3-5). The
    complement is the guarantee: a register the analysis leaves untainted
    holds a bit-identical value at that point in every execution, whatever
    the input.

    Influence propagates through

    - {b explicit flows}: ALU/Mul/Div/Sel results of tainted operands,
      loads from a tainted address or from a tainted data region, stores
      of a tainted value or through a tainted address (the single memory
      bit makes every store a weak update of the whole region);
    - {b implicit flows}: inside the control-dependence region of a
      branch with tainted operands — bounded by its
      {!Cfg.postdominators} in the branch's own function — every
      definition is tainted, because whether it executes at all depends
      on the secret. A postdominator in a callee does not end the
      region: when both arms call the same function, the code after
      each call still runs on one outcome only
      ({!Cfg.influence_region}). Region marks feed back into the
      dataflow solve (an outer fixpoint), so taint reaching one branch
      can widen the region of another.

    On top of the value analysis, {!leaks} classifies the {e time
    channels}: program points whose {!Pipeline.Inorder} cost can vary
    with tainted data — tainted branch outcomes (path length and
    predictor behaviour), tainted second operands of Mul/Div (the
    value-dependent latency model reads exactly that operand), and
    tainted effective addresses (data-cache behaviour; harmless on a flat
    memory, which is the certifier's machine-dependent call — see
    {!Analysis.Certify}). *)

type env = {
  regs : int;   (** bitmask over {!Isa.Reg.index}: may depend on the input *)
  mem : bool;   (** some data-memory cell may depend on the input *)
}

val bottom : env
(** Nothing tainted. *)

module Env_lattice : sig
  type t = env

  val equal : t -> t -> bool
  val join : t -> t -> t
  val widen : t -> t -> t
end

val reg_tainted : env -> Isa.Reg.t -> bool
val mem_tainted : env -> bool

type result

val analyze : ?seeds:env -> Isa.Program.t -> result
(** Run the analysis to fixpoint from the entry with the given seed
    taint ([seeds] defaults to {!bottom}, under which everything stays
    untainted). *)

val of_workload : Isa.Workload.t -> result
(** Compile the workload and analyze it with seeds derived from its
    input set: a register is seeded iff its initial value varies across
    [w.inputs] (absent bindings read 0, last binding wins, matching
    {!Isa.Exec}), and the memory region is seeded iff the canonical
    initial data memories differ. A singleton input set seeds nothing —
    there is no input uncertainty to track. *)

val control_tainted : result -> int -> bool
(** [control_tainted t pc]: the instruction's block lies in the influence
    region of some tainted branch — its execution count may vary across
    inputs. *)

val instr_envs : result -> (int * Isa.Instr.t * env) list
(** Per reachable instruction, the abstract state {e before} it executes,
    in layout order. *)

val final_env : result -> env
(** Join of the states flowing into [Halt] (everything tainted if no
    [Halt] is reachable). *)

type channel =
  | Branch   (** tainted conditional-branch outcome *)
  | Latency  (** tainted second operand of a Mul/Div *)
  | Address  (** tainted effective address of a Ld/St *)

type leak = {
  pc : int;
  ins : Isa.Instr.t;
  channel : channel;
}

val channel_name : channel -> string

val leaks : result -> leak list
(** Machine-independent time-channel candidates at reachable
    instructions, in layout order. The certifier filters these by
    machine: [Address] leaks are harmless on flat data memory, and
    [Branch] leaks carry no predictor component under a static
    predictor (they still change the executed path, so they always
    count as leaks). *)

val seeds_of_inputs : Isa.Exec.input list -> env
(** The seeding rule of {!of_workload}, exposed for tests. *)
