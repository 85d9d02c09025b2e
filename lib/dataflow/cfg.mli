(** Basic-block control-flow graphs built directly from flat
    {!Isa.Program} code — label/branch/call/return resolution, independent
    of the trusted {!Isa.Ast} shapes.

    This is the second, untrusted view of a program: where
    [Analysis.Wcet] walks the compiler-produced shape tree (and believes
    its declared loop bounds), the CFG is reconstructed from nothing but
    the instruction array, so analyses over it ({!Interval}, {!Liveness},
    {!Lint}) can cross-check what the shapes claim.

    The graph is whole-program and context-insensitive: a [Call] block's
    successor is the callee's entry block, and a [Ret] block's successors
    are the return sites (the instruction after every call to the function
    containing the [Ret]). That is an overapproximation of the concrete
    call/return pairing — sound for forward analyses.

    Every instruction of the program belongs to exactly one block
    (unreachable code included); reachability is a separate query. *)

type block = {
  id : int;
  start_pc : int;          (** first instruction position *)
  len : int;               (** number of instructions, [>= 1] *)
  succs : int list;        (** successor block ids *)
  preds : int list;        (** predecessor block ids *)
}

type t

val build : Isa.Program.t -> t
(** Partition the program into maximal basic blocks. Leaders: the entry,
    every function start, every branch/jump/call target, and every
    instruction following a control transfer. *)

val program : t -> Isa.Program.t
val blocks : t -> block array
(** Indexed by [block.id], in ascending [start_pc] order. *)

val entry : t -> int
(** Id of the block containing the program entry point. *)

val block_of_pc : t -> int -> int
(** Id of the unique block containing [pc].
    @raise Invalid_argument if [pc] is out of range. *)

val instrs : t -> block -> (int * Isa.Instr.t) list
(** [(pc, instruction)] pairs of the block, in layout order. *)

val terminator : t -> block -> int * Isa.Instr.t
(** The block's last instruction (a control transfer, or an ordinary
    instruction when the block falls through into the next leader). *)

val reachable : t -> bool array
(** Per-block: reachable from the entry block along [succs] edges. *)

val postdominators : t -> bool array array
(** [(postdominators t).(b).(d)] iff block [d] postdominates block [b]:
    every path from [b] to an exit block (a block with no successors)
    passes through [d]. Computed by iterated intersection from the top
    element, so a block that cannot reach any exit keeps an all-true row
    (a fixpoint artifact; such blocks have no postdominators in the
    classical sense). Every block postdominates itself. *)

val influence_region : t -> pdom:bool array array -> int -> bool array
(** [influence_region t ~pdom b] marks the blocks whose execution (or
    execution count) depends on the outcome of the branch terminating
    block [b]: everything reachable from [b]'s successors up to, and
    excluding, the strict postdominators of [b] in [b]'s own function —
    the classical control-dependence region. The cut is per function
    because the graph is context-insensitive: when both arms call the
    same function, its entry postdominates [b], yet the code after each
    call, reached only through the callee's return, runs on one outcome
    only. [pdom] must come from {!postdominators} on the same graph.
    For a branch that cannot reach any exit the region degrades to
    plain reachability from the successors, which is a sound
    overapproximation. Used by {!Taint} to bound implicit flows. *)

val reverse_postorder : t -> int list
(** Reachable block ids in reverse postorder — the canonical iteration
    order for forward dataflow (see {!Solver}). *)
