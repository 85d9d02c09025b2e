(** Dependency-free JSON: a minimal emitter and parser over the OCaml
    stdlib, for the machine-readable report layer ([predlab --format json],
    [bench --json FILE], [predlab compare]).

    The emitter produces well-formed RFC 8259 documents: strings are escaped
    (quotes, backslashes, and all control characters below [0x20]); floats
    use a fixed, locale-independent rendering that survives a
    parse-then-reprint round trip (printing the parsed value again yields
    the same text). Non-finite floats have no JSON representation and are
    rejected ({!to_string} raises [Invalid_argument]) — the documented
    policy: silently coercing them to [null] let a long-running process
    corrupt a report without any error surfacing.

    The parser is a small recursive-descent reader accepting exactly the
    documents the emitter produces plus standard JSON interchange: numbers
    without [.]/[e]/[E] become {!Int}, all others {!Float}; [\uXXXX] escapes
    decode to UTF-8 (surrogate pairs included); grammatically valid number
    literals that overflow the double range ([1e400]) are rejected rather
    than parsed to [infinity] (which could never be re-emitted). It exists
    so the regression gate can diff two report files without a third-party
    JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering.
    @raise Invalid_argument on a non-finite {!Float} anywhere in the
    document (so does {!to_string_pretty}) — see {!float_string}. *)

val to_string_pretty : t -> string
(** Two-space-indented rendering, ending in a newline — the format written
    to [BENCH_*.json] trajectory files so diffs stay reviewable. *)

val float_string : float -> string
(** The emitter's float rendering (no surrounding structure): shortest of
    the fixed precisions that reprints stably; always contains a [.] or an
    exponent so it re-parses as {!Float}.
    @raise Invalid_argument on [nan]/[inf]: JSON has no literal for them,
    and emitting [null] instead silently changed a number into a
    different type. Callers with legitimately absent values should encode
    {!Null} (or a string) explicitly. *)

val parse : string -> (t, string) result
(** [Error message] positions are 0-based byte offsets into the input.
    Trailing whitespace is allowed; any other trailing content is an
    error. *)

val parse_exn : string -> t
(** @raise Invalid_argument on malformed input, with the {!parse} message. *)

(** {2 Accessors} — total (option-returning) lookups used by the
    regression gate; no exceptions. *)

val member : string -> t -> t option
(** First binding of the key in an {!Obj}; [None] on other constructors. *)

val to_list : t -> t list option
val string_value : t -> string option
val bool_value : t -> bool option
val int_value : t -> int option

val float_value : t -> float option
(** Accepts {!Int} too (JSON numbers are one type). *)
