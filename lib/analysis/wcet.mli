(** Structural WCET/BCET bound computation over structured programs.

    This is the sound-but-incomplete analysis of Figure 1: it produces the
    upper bound UB >= WCET and the lower bound LB <= BCET. Costs mirror the
    {!Pipeline.Inorder} timing model instruction for instruction, with
    abstract cache states (from {!Must_may}) replacing concrete ones and
    worst-/best-case assumptions replacing unknown operands, branch outcomes
    and iteration counts.

    The [unroll] flag enables loop context sensitivity (virtual unrolling of
    the first iteration), the classic precision lever for first-miss
    behaviour: cold-cache misses are then charged once instead of on every
    iteration. *)

type icache_model =
  | Flat_fetch of int
  | Cached_fetch of { config : Cache.Set_assoc.config; hit : int; miss : int }
  | Spm_fetch of { spm : Cache.Scratchpad.t; hit : int; backing : int }

type dmem_model =
  | Flat_data of int
  | Range_data of { best : int; worst : int }
      (** data addresses are not tracked; charge [worst] in upper bounds and
          [best] in lower bounds *)

type config = {
  icache : icache_model;
  dmem : dmem_model;
  unroll : bool;
  budget : int option;
      (** abstract-domain size budget: when [Some k], the must cache tracks
          at most [k] blocks per set — the paper's "analyses within a
          certain complexity class" refinement. [None] = unrestricted. *)
}

type bound_kind = Upper | Lower

type observation = {
  pc : int;
  classification : Must_may.classification;
}

type result = {
  bound : int;
  observations : observation list;
      (** fetch classification at every analysed access context *)
}

exception Unsupported of string
(** Raised on recursive calls (the structural analysis requires an acyclic
    call graph). *)

val bound :
  ?site_filter:(int -> bool) ->
  config -> bound_kind -> shapes:(string * Isa.Ast.shape) list ->
  entry:string -> result
(** [site_filter] (default: accept everything) restricts which program
    points contribute cost: a pc outside the filter is charged 0 cycles,
    but its abstract cache effects and fetch observations still happen.
    With a filter selecting exactly the sites whose cost or execution
    count can vary (see {!Certify}), [UB - LB] of the filtered walks is a
    sound bound on the spread of whole-program execution times — the
    invariant remainder contributes identically to every run. *)

val bracket :
  ?site_filter:(int -> bool) -> upper:config -> lower:config ->
  shapes:(string * Isa.Ast.shape) list -> entry:string -> unit ->
  result * result
(** [(upper_result, lower_result)]: the UB and LB walks, run in sequence
    on the calling domain (each takes microseconds, far less than a domain
    spawn). *)

val classified_fraction : result -> float option
(** Fraction of fetch observations classified AH or AM, or [None] when
    the walk produced no fetch observations at all (e.g. a [Flat_fetch]
    configuration) — previously conflated with "everything classified"
    by returning [1.0]. *)
