(** Diagnostics over ISA programs, driven by the {!Cfg}, {!Interval} and
    {!Liveness} analyses plus a structural audit of declared loop bounds.

    Severities: [Error] findings are definite bugs (division by a register
    that is provably zero, a provably negative memory address, a constant
    shift amount the hardware masks to something else, a declared loop
    bound the lowered code contradicts) and make [predlab lint] exit
    nonzero. [Warning] findings are suspicious but executable (unreachable
    code, reads of never-written registers, a possibly-zero divisor, a
    statically-dead branch arm). [Info] findings are observations
    (analyst-provided [While] bounds the analysis cannot validate, dead
    stores). *)

type severity = Info | Warning | Error

type finding = {
  severity : severity;
  rule : string;       (** stable kebab-case rule id, e.g. ["div-by-zero"] *)
  pc : int option;     (** offending instruction position, when one exists *)
  message : string;
}

val severity_string : severity -> string

val check_program :
  ?inputs:Isa.Reg.t list -> Isa.Program.t -> finding list
(** All CFG/interval/liveness rules over a flat program. [inputs] are
    registers considered externally initialised (a workload's input
    registers) and exempt from the uninitialised-read rule. Findings are
    sorted by severity (errors first), then by [pc]. *)

val check_shapes : (string * Isa.Ast.shape) list -> finding list
(** The loop-bound audit over compiled shapes: every [SLoop] must lower to
    the canonical counted-loop pattern with an init matching the declared
    count and a body that does not clobber the counter or the zero
    register (violations are [Error]s — the WCET analysis trusts those
    counts); [SWhile] bounds are analyst-provided and reported as [Info],
    except non-positive bounds, which are [Error]s. *)

val check_workload : Isa.Workload.t -> finding list
(** {!check_program} (with the workload's input registers) plus
    {!check_shapes} on its compiled form, plus the workload-level rules:
    [dead-result-reg] ([Warning] — a declared result register that
    {!Liveness.written_to_halt} proves is never written on any path to
    [Halt], so equivalence checks on it pass vacuously) and
    [timing-leak] ([Warning] — a {!Taint} time-channel candidate: a
    branch outcome, Mul/Div latency operand, or memory address that may
    depend on the workload's input set; see {!Taint.leaks} for the
    machine-dependence caveats). *)

val errors : finding list -> int
val warnings : finding list -> int

val finding_string : finding -> string
val render : finding list -> string
(** One line per finding; empty string for no findings. *)

val to_json : name:string -> finding list -> Prelude.Json.t
(** [{"name", "findings", "errors", "warnings"}] for one lint target. *)

val report_to_json : (string * finding list) list -> Prelude.Json.t
(** The [predlab lint --format json] document: schema ["predlab/lint"],
    version 1, per-target objects plus total error/warning counts. *)
