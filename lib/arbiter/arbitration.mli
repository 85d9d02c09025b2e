(** Multi-client arbitration of a shared, non-preemptive resource.

    This backs the CoMPSoC interconnect ([Noc.Link], TAB1.R4) and the
    CCSP burst and TDM slot sweeps of ABLATE, with their conventional
    baselines (FCFS, round-robin, fixed priority). The DRAM controllers of
    TAB2.R4/R5 do not use it: [Dram.Controller.simulate] has its own cycle
    loop, with per-request credits, refresh pre-emption and a close-page
    TDM slot. Time is discrete; each request occupies the resource
    exclusively for its service time.

    The key property distinctions the paper's Tables 1-2 rely on:
    - TDM is {e composable}: a client's service depends only on the slot
      table, never on other clients' behaviour (slots go idle if unused).
    - CCSP and fixed-priority are {e predictable} (bounded latency for
      eligible/high-priority clients) but not composable.
    - FCFS is neither: latency depends on the interleaving of arrivals. *)

type policy =
  | Tdm of { slot : int }
      (** Fixed slot table, one slot per client, slot length in cycles;
          non-work-conserving. *)
  | Fcfs
  | Round_robin
      (** Work-conserving rotation among clients with pending requests. *)
  | Fixed_priority  (** Lower client index = higher priority. *)
  | Ccsp of { rate_num : int; rate_den : int; burst : int }
      (** Credit-controlled static priority (Predator): every client accrues
          [rate_num/rate_den] credits per cycle up to [burst]; eligible
          clients are served in priority order, remaining capacity is slack
          served work-conservingly. *)

val policy_name : policy -> string

type request = {
  client : int;
  arrival : int;
  service : int;
}

type served = {
  request : request;
  start : int;
  finish : int;   (** completion cycle; latency = finish - arrival *)
}

val latency : served -> int

val simulate : policy -> clients:int -> request list -> served list
(** Run the arbiter until every request completes. Requests of one client are
    served in arrival order. @raise Invalid_argument on a request with
    non-positive service time or client index out of range. *)

val latency_bound : policy -> clients:int -> service:int -> int option
(** Per-request worst-case latency bound for a client with at most one
    outstanding request of the given service time, independent of other
    clients' behaviour. [None] when no such bound exists (FCFS; and
    fixed-priority, where only the highest-priority client is bounded —
    conservatively reported as unbounded for the general client). *)
