(** The memory side of a pipeline: instruction and data ports, each backed by
    a flat memory, a cache, or a scratchpad. Persistent, so memory states can
    serve as elements of the uncertainty set [Q]. *)

type level =
  | Flat of int
      (** Fixed-latency memory (CoMPSoC-style SRAM): perfectly predictable. *)
  | Cached of { cache : Cache.Set_assoc.t; hit : int; miss : int }
  | Spm of { spm : Cache.Scratchpad.t; hit : int; backing : int }
      (** Scratchpad: [hit] inside the region, [backing] latency outside. *)

type t = {
  imem : level;
  dmem : level;
}

val perfect : t
(** Both ports flat with latency 1. *)

val fetch : t -> int -> int * t
(** [fetch m addr] is [(cycles, m')] for an instruction fetch. *)

val data : t -> int -> int * t
(** Data access (load or store, modelled alike). *)

val level_worst : level -> int
