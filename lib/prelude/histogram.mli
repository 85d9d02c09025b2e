(** Fixed-width binning of integer samples, with a text rendering used to
    regenerate Figure 1 of the paper (distribution of execution times). *)

type t

val of_samples : bins:int -> int list -> t
(** [of_samples ~bins samples] bins the samples into [bins] equal-width
    buckets spanning [min samples, max samples].
    @raise Invalid_argument if [samples] is empty, [bins <= 0], or the
    sample range is so wide that [max - min + 1] exceeds the native int
    range (it used to wrap silently and divide by zero). *)

val bins : t -> (int * int * int) list
(** [(lo, hi, count)] per bin; [lo] inclusive, [hi] inclusive. Edges are
    clamped to [max_sample]: when [bins] doesn't divide the sample span the
    last occupied bin's displayed range ends at [max_sample] rather than at
    the nominal [lo + width - 1] (which would overstate the support), and
    any trailing all-empty bins collapse to the degenerate range
    [(max_sample, max_sample, 0)]. *)

val total : t -> int
val min_sample : t -> int
val max_sample : t -> int

val render : ?markers:(string * int) list -> t -> string
(** ASCII rendering, one bin per line, bars scaled to 40 characters.
    A nonzero bin always draws at least one ['#'], even when proportional
    scaling would truncate it to nothing next to a tall peak — occupied
    buckets are never hidden. [markers] annotate specific x-values (e.g.
    BCET/WCET/LB/UB) below the histogram. *)
