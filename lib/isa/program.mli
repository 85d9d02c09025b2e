(** Flat executable programs: functions laid out contiguously in an
    instruction memory, with labels resolved to absolute positions.

    Functions are contiguous regions so that the JOP-style method cache can
    cache them whole. The first function in the list is the entry point. *)

type item =
  | Label of string
  | Ins of Instr.t

type func = {
  name : string;
  body : item list;
}

type t

exception Invalid of string
(** Raised by {!link} on duplicate or unresolved labels, or empty programs. *)

val link : func list -> t
(** Lay out functions in order, resolve labels. Each function's name doubles
    as the label of its first instruction. @raise Invalid on malformed
    input. *)

val entry : t -> int
val length : t -> int
val resolve : t -> string -> int
(** @raise Not_found for an unknown label. *)

val instr : t -> int -> Instr.t
val instr_address : t -> int -> int
(** Byte address of the instruction at position [pc] (4-byte instructions);
    this is what instruction caches see. *)

val functions : t -> (string * (int * int)) list
(** [(name, (start_pc, length))] for every function, in layout order. *)

val digest : t -> int
(** Stable non-negative hash of the linked code (entry point plus every
    instruction, all fields). Two programs with different code practically
    never collide; the fast-path engine keys its [T_p] memo tables on it. *)

val function_of_pc : t -> int -> string
(** Name of the function containing [pc]. @raise Not_found if out of range. *)

val pp : Format.formatter -> t -> unit
