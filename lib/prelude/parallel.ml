(* Fork-join over OCaml 5 domains. Each top-level call spawns its helper
   domains, works beside them, and joins them before it returns:
   predictability experiments are batch jobs, so keeping idle domains alive
   between calls would only complicate process exit. *)

let process_default = Atomic.make 0 (* 0 = fall back to the runtime's advice *)

let recommended_jobs () = Stdlib.max 1 (Domain.recommended_domain_count ())

let set_default_jobs n =
  if n < 1 then invalid_arg "Parallel.set_default_jobs: jobs must be >= 1";
  Atomic.set process_default n

let default_jobs () =
  match Atomic.get process_default with
  | 0 -> recommended_jobs ()
  | n -> n

let resolve_jobs = function
  | None -> default_jobs ()
  | Some n when n < 1 -> invalid_arg "Parallel: jobs must be >= 1"
  | Some n -> n

(* True on a domain that runs slices of a fan-out: every helper, and the
   caller while it works beside at least one helper. A task there already
   owns one slot of the width the caller asked for, so any Parallel call it
   makes runs alone in place instead of fanning out again: live domains
   stay bounded by [jobs] no matter how deeply the hot paths nest
   (run_supervised -> exp_atlas -> Quantify.evaluate), well clear of the
   OCaml runtime's total-domain cap, and cores are never oversubscribed. A
   caller running alone leaves the flag unset, so a jobs-1 outer loop still
   lets an inner [~jobs:8] call fan out. *)
let on_worker = Domain.DLS.new_key (fun () -> false)

(* --- Cooperative deadlines --------------------------------------------- *)

exception Deadline_exceeded of { elapsed_s : float; deadline_s : float }

let () =
  Printexc.register_printer (function
    | Deadline_exceeded { elapsed_s; deadline_s } ->
      Some
        (Printf.sprintf "Parallel.Deadline_exceeded(%.3fs > %.3fs)" elapsed_s
           deadline_s)
    | _ -> None)

(* (start time, budget) of the innermost [with_deadline] running on this
   domain, if any. Purely cooperative: OCaml domains cannot be preempted,
   so overruns are detected at checkpoints ([check_deadline], which the
   slice loop below hits before every element) and post-hoc when the
   thunk returns. *)
let task_deadline = Domain.DLS.new_key (fun () -> None)

let check_deadline () =
  match Domain.DLS.get task_deadline with
  | None -> ()
  | Some (started, deadline_s) ->
    let elapsed_s = Instrument.now () -. started in
    if elapsed_s > deadline_s then
      raise (Deadline_exceeded { elapsed_s; deadline_s })

let with_deadline ~deadline_s f =
  if deadline_s <= 0. then
    invalid_arg "Parallel.with_deadline: deadline must be > 0";
  let started = Instrument.now () in
  let saved = Domain.DLS.get task_deadline in
  Domain.DLS.set task_deadline (Some (started, deadline_s));
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set task_deadline saved)
    (fun () ->
       let v = f () in
       let elapsed_s = Instrument.now () -. started in
       if elapsed_s > deadline_s then
         raise (Deadline_exceeded { elapsed_s; deadline_s });
       v)

(* --- The fork-join loop ------------------------------------------------ *)

type failure = { exn : exn; backtrace : Printexc.raw_backtrace }

exception Multiple_failures of { count : int; first : exn }

let () =
  Printexc.register_printer (function
    | Multiple_failures { count; first } ->
      Some
        (Printf.sprintf "Parallel.Multiple_failures(%d tasks; first: %s)"
           count (Printexc.to_string first))
    | _ -> None)

let credit (c : Instrument.counts) =
  Instrument.add_evals c.evals;
  Instrument.add_cells c.cells;
  Instrument.add_memo_hits c.memo_hits;
  Instrument.add_memo_misses c.memo_misses

(* Execute [body i] for all [0 <= i < count], [count >= 1]. Indices are
   grouped into [min count (jobs * 8)] contiguous slices: a few per runner,
   so cheap bodies don't pay an atomic round-trip per element while load
   imbalance still smooths out. The caller spawns [min jobs slices - 1]
   helpers, then every runner, the caller included, claims slices from one
   atomic cursor until it passes the end. [check_deadline] runs before
   every element (a no-op on helpers, which have no deadline armed), so the
   caller's own budget cuts a fan-out short. Failures are caught, recorded
   and stop new elements from starting; once every helper has joined, a
   single failure re-raises transparently, several raise
   [Multiple_failures] with the count and the earliest-recorded exception.
   With no helper (jobs 1, one element, a nested call, or every spawn
   failed) the caller runs the same loop alone. *)
let run_tasks ~jobs ~count body =
  let slices = Stdlib.min count (jobs * 8) in
  let slice_len = (count + slices - 1) / slices in
  let cursor = Atomic.make 0 and failures = Atomic.make [] in
  let failed () = Atomic.get failures <> [] in
  let rec record f =
    let seen = Atomic.get failures in
    if not (Atomic.compare_and_set failures seen (f :: seen)) then record f
  in
  let rec run () =
    let lo = Atomic.fetch_and_add cursor 1 * slice_len in
    if lo < count && not (failed ()) then begin
      (try
         for i = lo to Stdlib.min count (lo + slice_len) - 1 do
           if not (failed ()) then begin
             check_deadline ();
             body i
           end
         done
       with exn -> record { exn; backtrace = Printexc.get_raw_backtrace () });
      run ()
    end
  in
  (* A helper starts with zero counters, so its final snapshot is exactly
     its share of the work; the caller credits it after its own loop, once
     any [Harness.try_timed] bracket opened inside a task has closed. *)
  let helper () =
    Domain.DLS.set on_worker true;
    run ();
    Instrument.snapshot ()
  in
  (* [Domain.spawn] can fail (the runtime caps live domains at ~128, and
     the "parallel.spawn" fault site simulates exactly that): spawning
     stops, and the helpers already running plus the caller do the work. *)
  let rec spawn k =
    if k = 0 then []
    else
      match Faults.point "parallel.spawn"; Domain.spawn helper with
      | d -> d :: spawn (k - 1)
      | exception _ -> []
  in
  (match
     if Domain.DLS.get on_worker then [] else spawn (Stdlib.min jobs slices - 1)
   with
   | [] -> run ()
   | helpers ->
     Domain.DLS.set on_worker true;
     run ();
     Domain.DLS.set on_worker false;
     List.iter (fun d -> credit (Domain.join d)) helpers);
  match List.rev (Atomic.get failures) with
  | [] -> ()
  | [ { exn; backtrace } ] -> Printexc.raise_with_backtrace exn backtrace
  | { exn; backtrace } :: _ as all ->
    Printexc.raise_with_backtrace
      (Multiple_failures { count = List.length all; first = exn })
      backtrace

let map_array ?jobs f xs =
  let jobs = resolve_jobs jobs in
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    run_tasks ~jobs ~count:n (fun i -> results.(i) <- Some (f xs.(i)));
    Array.map (function Some v -> v | None -> assert false) results
  end

let map ?jobs f xs = Array.to_list (map_array ?jobs f (Array.of_list xs))

(* --- Per-task isolation ------------------------------------------------- *)

type task_error = {
  index : int;
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}

(* Run one isolated task: pass through the "parallel.task" fault site and
   catch everything. Never raises, so [map] over guarded tasks keeps every
   task's verdict and never cuts a batch short. *)
let guarded f (index, x) =
  match
    Faults.point "parallel.task";
    f x
  with
  | v -> Ok v
  | exception exn ->
    Error { index; exn; backtrace = Printexc.get_raw_backtrace () }

let map_result ?jobs f xs =
  map ?jobs (guarded f) (List.mapi (fun i x -> (i, x)) xs)
