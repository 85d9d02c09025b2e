(** JOP-style method cache (Schoeberl): caches entire functions rather than
    fixed-size lines, so cache misses can only occur at calls and returns.
    Replacement is FIFO over whole methods (LRU over variable-size blocks is
    impractical in hardware, as the paper notes). *)

type config = {
  blocks : int;      (** total cache capacity in blocks *)
  block_size : int;  (** block granularity in instructions *)
}

type t

val make : config -> t
(** @raise Invalid_argument on non-positive geometry. *)

val blocks_for : config -> int -> int
(** Number of blocks a method of the given instruction count occupies. *)

type fit = { hit : bool; loaded_blocks : int; evicted : string list }

val request : t -> name:string -> size:int -> fit * t
(** Method (re)load at a call or return site. [size] is the method length in
    instructions. A resident method hits; otherwise enough FIFO victims are
    evicted to fit it. @raise Invalid_argument if the method exceeds the cache
    capacity. *)

val resident : t -> string -> bool
val occupancy : t -> int
(** Blocks currently in use. *)

val equal : t -> t -> bool
