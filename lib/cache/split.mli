(** Split data caches (Schoeberl et al.): dedicated caches per data region —
    static data, stack, heap — with a small fully-associative heap cache.

    The point (Table 2, row 2 of the paper): heap addresses are usually not
    statically known; in a set-indexed cache an unknown address may touch
    *any* set, destroying all may/must information, whereas in a
    fully-associative cache an unknown address perturbs exactly one
    replacement decision. *)

type region = Static | Stack | Heap

type classifier = int -> region
(** Maps a data address to its region. *)

type t

val make :
  static_cfg:Set_assoc.config ->
  stack_cfg:Set_assoc.config ->
  heap_ways:int ->
  heap_line:int ->
  t
(** The heap cache is fully associative ([sets = 1]) with LRU replacement. *)

val access : t -> classifier -> int -> bool * t
