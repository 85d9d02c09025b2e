(** The one table of ops that both the one-shot CLI ([predlab <op>]) and
    the serve daemon ([predlab query <op>]) run: [run], [sample], [lint],
    [certify] and [compare].

    Each {!entry} owns the op's positional-argument decoder, its
    result-document builder, the exit class read back from that document
    and the exact bytes the document prints as. [predlab <op> --format
    json], {!Daemon} dispatch and [predlab query <op>] all go through the
    same entry, so the daemon cannot drift from the CLI. CLI-only inputs
    ([--only], [--fixture], [--require-invariant], [sample --check]) and
    text rendering stay in the CLI, built on the selection and builder
    functions below. The daemon-only ops ([eval], [stats], [shutdown])
    are not in the table. *)

exception Usage of string
(** An unknown workload or experiment name, or an unreadable input
    document: the CLI exits 2, and the daemon answers with an error
    envelope carrying [status: "usage"], which [query] maps to exit 2. *)

(** {1 Selection} *)

val workload : string -> unit -> Isa.Workload.t
(** The registry constructor of one workload. @raise Usage if unknown. *)

val select_workloads :
  string list -> (string * (unit -> Isa.Workload.t)) list
(** Positional workload names; the empty list is the whole registry.
    @raise Usage on the first unknown name. *)

val experiment :
  string -> string * string * (unit -> Predictability.Report.outcome)
(** The registry entry of one experiment id.
    @raise Usage if the id is not registered. *)

val load_json : string -> Prelude.Json.t
(** Read and parse one JSON document file.
    @raise Usage if it cannot be read or parsed. *)

(** {1 Builders} *)

val run_supervised :
  jobs:int ->
  supervision:Predictability.Experiments.supervision ->
  ?journal:string ->
  ?resume:bool ->
  (string * string * (unit -> Predictability.Report.outcome)) list ->
  Predictability.Experiments.supervised list * Prelude.Json.t
(** The supervised results and their schema-v2 report document.
    @raise Invalid_argument or [Sys_error] from the supervisor. *)

val sample_rows :
  jobs:int -> spec:Sampling.Sampler.spec -> cross_check:bool ->
  string list -> Predictability.Sampled.row list

val lint_targets : string list -> (string * Dataflow.Lint.finding list) list

val certify_rows :
  ?expect:Analysis.Certify.verdict -> string list ->
  Predictability.Certifier.row list

val compare_doc : Predictability.Regression.finding list -> Prelude.Json.t
(** The [predlab/serve-compare] document: [passed] plus the findings. *)

val guarded : float option -> (unit -> 'a) -> 'a
(** Run under a cooperative deadline, if one is given.
    @raise Prelude.Parallel.Deadline_exceeded on an overrun. *)

(** {1 The table} *)

type flags = {
  retries : int;
  seed : int option;
  samples : int option;
  confidence : float option;
  tolerance : float option;
}
(** The [query] flags an op's request may carry. *)

type entry = {
  name : string;  (** the wire ["op"] and the CLI subcommand *)
  args : string;  (** positional-argument usage, e.g. ["ID"] *)
  request : flags -> string list -> Protocol.request option;
      (** decode positional arguments; [None] on a wrong count.
          @raise Usage if a named input file cannot be read *)
  document :
    jobs:int -> deadline_s:float option -> Protocol.request ->
    Prelude.Json.t;
      (** build the result document, honouring the deadline.
          @raise Usage on an unknown name *)
  exit_code : Prelude.Json.t -> int;
      (** the documented exit class of a result document: 0 ok, 1 failed
          checks, 3 crashed/timed out *)
  newline : bool;
      (** whether the printed document ends with an extra newline *)
}

val run : entry
val sample : entry
val lint : entry
val certify : entry
val compare : entry

val table : entry list
val find : string -> entry option

val render : entry -> Prelude.Json.t -> string
(** The exact bytes printed for a result document. *)

val error_exit : string option -> int
(** The exit class of a daemon refusal, from its
    {!Protocol.Refused} [status]: 2 usage, 3 timed out, 5 overloaded,
    otherwise (no status included) 1. *)
