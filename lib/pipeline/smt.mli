(** Simultaneous multithreading with a shared issue port.

    The Barre et al. / Mische et al. position (Table 1, row 3): give one
    {e real-time thread} strict priority over the issue bandwidth, so its
    timing is independent of the co-running non-real-time threads and can be
    analysed in isolation; the other threads soak up leftover slots. The
    [Fair] policy is the conventional SMT baseline where every thread's
    timing depends on all the others. *)

type policy = Fair | Rt_priority

type result = {
  completion : int list;  (** per-thread completion cycle, thread 0 first *)
}

val run : policy -> threads:Isa.Exec.outcome list -> result
(** Thread 0 is the real-time thread. @raise Invalid_argument on an empty
    thread list. *)

val rt_time : policy -> rt:Isa.Exec.outcome -> others:Isa.Exec.outcome list -> int
(** Completion time of the real-time thread under the given co-runners. *)
