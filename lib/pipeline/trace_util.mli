(** Helpers over dynamic instruction streams shared by the timing models. *)

val branch_events :
  Isa.Program.t -> Isa.Exec.outcome -> Branchpred.Predictor.branch_event list
(** The conditional-branch sub-trace, with backward/forward direction
    resolved against the program layout. *)

val block_signature : Isa.Exec.outcome -> int list
(** Dynamic basic-block lengths, in order — a convenient fingerprint of the
    path taken. *)
