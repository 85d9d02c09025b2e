(** Helpers over dynamic instruction streams shared by the timing models. *)

val branch_event :
  Isa.Program.t -> Isa.Exec.event -> Branchpred.Predictor.branch_event option
(** The predictor's view of a conditional branch, with its backward/forward
    direction resolved against the program layout; [None] for any other
    event. *)

val branch_events :
  Isa.Program.t -> Isa.Exec.outcome -> Branchpred.Predictor.branch_event list
(** The conditional-branch sub-trace: {!branch_event} of every event. *)

val block_signature : Isa.Exec.outcome -> int list
(** Dynamic basic-block lengths, in order — a convenient fingerprint of the
    path taken. *)
