(** Generic monotone-framework fixpoint over a {!Cfg}.

    An analysis supplies a join-semilattice of abstract states (the
    [LATTICE] signature) and an edge-wise block transfer function; the
    solver runs a worklist in reverse postorder to a post-fixpoint,
    applying widening at blocks that keep changing, then performs a
    bounded number of plain descending (narrowing) passes to recover
    precision lost to widening.

    Bottom is represented externally: a block whose in-state is [None]
    was never reached by any transfer (dead code, or an edge the transfer
    refined away). Lattices therefore only describe reachable states and
    need no artificial bottom element. *)

module type LATTICE = sig
  type t

  val equal : t -> t -> bool

  val join : t -> t -> t
  (** Least upper bound (must overapproximate both arguments). *)

  val widen : t -> t -> t
  (** [widen old next] with [next = join old incoming]: an upper bound of
      [next] chosen so that repeated widening stabilises in finitely many
      steps. Finite-height lattices can use [fun _ next -> next]. *)
end

module Make (L : LATTICE) : sig
  val solve :
    cfg:Cfg.t ->
    init:L.t ->
    transfer:(Cfg.block -> L.t -> (int * L.t) list) ->
    unit ->
    L.t option array
  (** [solve ~cfg ~init ~transfer ()] computes the in-state of every
      block: [init] at the entry block, and for the others the join of
      the states their predecessors' transfers deliver.

      [transfer block st] maps the in-state of [block] to
      [(successor_id, out_state)] pairs; omitting a successor prunes that
      edge (e.g. a branch arm the state proves infeasible). The transfer
      must be monotone in [st] for the result to be a sound
      overapproximation.

      A block's in-state may be updated 4 times before further updates
      go through {!LATTICE.widen}. After stabilisation 2 descending
      recomputations run; they are sound for monotone transfers because
      every iterate of a descending Kleene sequence started at a
      post-fixpoint still overapproximates the least fixpoint.

      The returned array is indexed by block id; [None] means the block
      is unreachable under the analysis. *)
end
