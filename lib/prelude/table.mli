(** Aligned plain-text tables, used by the benchmark harness to print the
    rows of the paper's Tables 1 and 2 and per-experiment result series. *)

type t

val make : header:string list -> t
val add_row : t -> string list -> unit
val add_separator : t -> unit
val render : t -> string
