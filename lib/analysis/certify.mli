(** Predictability certificates: static verdicts on the paper's template
    quantities.

    Defs. 3-5 measure how execution time varies as the uncertainty
    sources range over the hardware-state set [Q] and the input set [I].
    All three evaluation modes so far (exhaustive, fast-path, sampled)
    answer by executing over [Q x I]; this module answers {e statically},
    in the sound-but-incomplete sense of Figure 1:

    - {b Invariant}: no {!Dataflow.Taint} time channel reaches any cost
      site of the machine, and the machine has no hardware-state channel
      — every run takes the same time, so [Pr = SIPr = IIPr = 1], proved
      without executing anything.
    - {b Bounded}: timing may vary, but the spread [WCET - BCET] is at
      most {!certificate.spread_ub}, obtained from {!Wcet.bracket}
      restricted (via [site_filter]) to the sites whose cost or
      execution count can actually vary; the invariant remainder of the
      program contributes identically to every run and cancels out of
      the spread.

    The verdict is always relative to a {!machine} model: an address
    leak is real under a data cache and harmless on flat memory, an
    unclassified fetch only matters when fetches are cached, and branch
    history only matters under a dynamic predictor. *)

type machine = {
  label : string;             (** e.g. ["flat"], ["cached"] *)
  upper : Wcet.config;        (** UB-side analysis configuration *)
  lower : Wcet.config;        (** LB-side analysis configuration *)
  dynamic_predictor : bool;
      (** branch costs depend on predictor state carried across branches
          (both standard machines use a static predictor: [false]) *)
}

type state_channel =
  | Icache     (** cached fetches with must/may-unclassified accesses *)
  | Dcache     (** cached data accesses anywhere in reachable code *)
  | Predictor  (** dynamic predictor with reachable conditional branches *)

val state_channel_name : state_channel -> string

type verdict = Invariant | Bounded

val verdict_name : verdict -> string

type certificate = {
  workload : string;
  machine : string;
  verdict : verdict;
  lb : int;                   (** full LB <= BCET *)
  ub : int;                   (** full UB >= WCET *)
  spread_ub : int;            (** sound bound on WCET - BCET over Q x I *)
  varying_sites : int;        (** program points the spread walk charges *)
  leaks : Dataflow.Taint.leak list;
      (** machine-relevant input time channels, in layout order *)
  state_channels : state_channel list;
}

val certify : machine -> Isa.Workload.t -> certificate
(** Compile the workload, run the taint analysis seeded from its input
    set, run the full and spread-filtered {!Wcet.bracket} walks, and
    issue the certificate. [Invariant] iff there are no machine-relevant
    leaks and no state channels (then [spread_ub = 0] by construction:
    the filtered walks charge no sites at all). *)

