(** A small fixed-size domain pool for data-parallel evaluation.

    Every headline quantity of the paper (Pr/SIPr/IIPr, exhaustive
    BCET/WCET, the evict/fill metrics) is a min/max over an exhaustive
    [Q * I] or state-space enumeration whose elements are independent, so
    they parallelise trivially across OCaml 5 domains. This module provides
    the one primitive those hot paths share: evaluate a pure function over
    a sequence on a fixed number of worker domains, with results delivered
    in input order regardless of scheduling.

    Guarantees:
    - {b deterministic ordering}: [map ~jobs f xs] returns exactly
      [List.map f xs] for any [jobs] — results are written by input index,
      never by completion order;
    - {b exception transparency}: if exactly one task raises, that
      exception (with its backtrace) is re-raised in the calling domain
      after all workers have stopped; if several tasks fail concurrently,
      none is silently dropped — {!Multiple_failures} carries the count
      and the earliest-recorded exception ({!map_result} instead isolates
      failures per task and never raises from a task);
    - {b bounded width}: at most [jobs] domains run tasks at any time
      (including the calling domain's contribution via [Domain.join]);
    - {b no nested pools}: a call made from inside a pool task runs
      sequentially on that worker domain (same deterministic result), so
      arbitrarily nested data-parallelism never spawns more than
      [jobs + 1] live domains — the OCaml runtime caps total domains at
      roughly 128, which naive pool-per-worker nesting would exceed;
    - {b graceful degradation}: if [Domain.spawn] fails partway through
      pool creation (domain cap reached, or the ["parallel.spawn"]
      {!Faults} site armed), the call degrades to the achieved worker
      count — down to running inline on the calling domain — instead of
      failing and leaking the domains already spawned.

    The pool is built only on [Domain], [Mutex] and [Condition] from the
    standard library — no external dependencies. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val set_default_jobs : int -> unit
(** Set the process-wide default used when [?jobs] is omitted (the
    [--jobs] flag of [predlab] lands here).
    @raise Invalid_argument if the argument is [< 1]. *)

val default_jobs : unit -> int
(** The current default: the last [set_default_jobs] value, or
    [recommended_jobs ()] if never set. *)

exception Multiple_failures of { count : int; first : exn }
(** Raised by {!map}/{!map_array}/{!fold} when more than one task failed:
    every failure is collected (no new work starts after the first), and
    the count plus the earliest-recorded exception are surfaced — with the
    earliest failure's backtrace — instead of silently discarding all but
    one. A single failure re-raises the original exception unchanged. *)

exception Deadline_exceeded of { elapsed_s : float; deadline_s : float }
(** A task overran its cooperative [?deadline_s] budget. Raised at
    checkpoints ({!check_deadline}, hit between elements by every nested
    [Parallel] loop) and post-hoc when a deadlined {!map_result} task
    returns after its budget. *)

val check_deadline : unit -> unit
(** Cooperative checkpoint: no-op unless the innermost enclosing
    {!with_deadline} / deadlined {!map_result} task on this domain has
    overrun its budget, in which case {!Deadline_exceeded} is raised.
    Long-running kernels may call this at safe points; all [Parallel]
    element loops already do. *)

val with_deadline : deadline_s:float -> (unit -> 'a) -> 'a
(** Arm the cooperative deadline on the calling domain for the duration of
    the thunk (nestable; the previous budget is restored on exit). The
    thunk's nested [Parallel] loops hit {!check_deadline} between
    elements, and an overrun is also detected post-hoc when the thunk
    returns — either way {!Deadline_exceeded} is raised. This is the
    per-attempt budget primitive behind [predlab --deadline].
    @raise Invalid_argument if [deadline_s <= 0]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs = List.map f xs], computed on [min jobs (length xs)]
    worker domains. [jobs = 1] runs sequentially in the calling domain. *)

val map_array : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Array analogue of {!map}; result index [i] holds [f xs.(i)]. *)

type task_error = {
  index : int;  (** input position of the failed element *)
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}

val map_result :
  ?jobs:int -> ?deadline_s:float -> ('a -> 'b) -> 'a list ->
  ('b, task_error) Stdlib.result list
(** Per-task isolation: {!map} over tasks that catch their own failure,
    so a raising task yields [Error { index; exn; backtrace }] at its
    input position instead of poisoning the whole batch — every other
    task still runs and returns [Ok]. With [?deadline_s], each task gets
    that cooperative budget (measured from the moment the task starts
    running, not from submission): an overrun detected at a
    {!check_deadline} checkpoint or when the task returns yields [Error]
    with {!Deadline_exceeded}. Results are in input order for any [jobs],
    and the pool, its width degradation, nested-call inlining and counter
    crediting are {!map}'s. Tasks pass through the ["parallel.task"]
    {!Faults} site.
    @raise Invalid_argument if [deadline_s <= 0]. *)

val fold :
  ?jobs:int -> ?chunk:int -> map:('a -> 'b) -> combine:('b -> 'b -> 'b) ->
  init:'b -> 'a list -> 'b
(** Chunked parallel map-reduce: equivalent to
    [List.fold_left (fun acc x -> combine acc (map x)) init xs] whenever
    [combine] is associative and [init] is a left identity for the result.
    Items are split into chunks of [chunk] (default 16) consecutive
    elements; chunks are mapped in parallel and partial results are
    combined strictly in input order, so the result is deterministic. *)
