(** Compositional predictability — the paper's stated future work
    ("we are in search of compositional notions of predictability, which
    would allow us to derive the predictability of an architecture from that
    of its components").

    For sequential composition of timing intervals this is tractable: if
    component [i] contributes between [bcet_i] and [wcet_i] cycles to every
    execution (bounds valid over all entry states the composition can
    produce), the composite time lies in [sum bcet_i, sum wcet_i], so

    - {!sequential_pr} [= (Σ bcet_i) / (Σ wcet_i)] is a sound lower bound on
      the composite predictability, and
    - by the mediant inequality it dominates {!weakest_component}
      [= min_i (bcet_i / wcet_i)].

    On a machine whose cost model is additive and state-free (the flat-memory
    in-order machine) the sequential bound is {e exact}. With stateful
    components (caches) it remains sound but conservative — exactly the gap
    that makes compositionality hard, which the EXT.COMP experiment
    measures. *)

type component = {
  label : string;
  bcet : int;
  wcet : int;
}

val component : label:string -> bcet:int -> wcet:int -> component
(** @raise Invalid_argument unless [0 < bcet <= wcet]. *)

val sequential_pr : component list -> Prelude.Ratio.t
(** Predictability of the sequential composition, from component bounds.
    @raise Invalid_argument on the empty list. *)

val weakest_component : component list -> Prelude.Ratio.t
(** [min_i Pr_i]: the classic compositional lower bound; always [<=]
    {!sequential_pr}. *)

val of_workload :
  states:Pipeline.Inorder.state list -> Isa.Workload.t -> component
(** Measure a workload exhaustively (over its inputs and the given hardware
    states on the in-order machine) as a component. *)

val parallel_pr : component list -> Prelude.Ratio.t
(** Predictability of a fork-join composition (composite time = max over
    components): [max bcet_i / max wcet_i] — sound under independent
    component timing. *)
