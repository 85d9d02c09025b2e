(** The "extent of uncertainty" refinement (Section 2 of the paper: "one
    could also distinguish the extent of uncertainty — e.g. is the program
    input completely unknown or is partial information available?").

    Predictability is evaluated along a chain of growing uncertainty sets
    (prefixes of [states]/[inputs]); [Pr] is antitone in the extent, so
    partial knowledge about the initial state or the input directly buys
    predictability. *)

type 'a level = {
  label : string;
  state_count : int;   (** prefix of the state list used at this level *)
  input_count : int;   (** prefix of the input list *)
  pr : Prelude.Ratio.t;
  sipr : Prelude.Ratio.t;
  iipr : Prelude.Ratio.t;
}

val profile :
  states:'q list -> inputs:'i list -> time:('q -> 'i -> int) ->
  cuts:(string * int * int) list -> unit -> 'q level list
(** [profile ~states ~inputs ~time ~cuts ()] evaluates the quantities of
    Defs. 3-5 for each [(label, n_states, n_inputs)] prefix pair. Prefix
    sizes are clamped to at least 1 and at most the list lengths. The
    per-cut matrices — typically tiny — are evaluated on the calling
    domain.
    @raise Invalid_argument on empty [states]/[inputs]/[cuts]. *)

val antitone : 'q level list -> bool
(** Whether [pr] is non-increasing along the given levels — the sanity
    property when the cuts grow. *)
