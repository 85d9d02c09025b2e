(** Crash-safe JSON-lines log, plus the atomic document writer.

    [predlab all --journal FILE] appends one line the moment each
    experiment reaches a verdict (completed, crashed or timed out), so a
    run killed mid-batch loses at most the experiments still in flight.
    [--resume] then {!load}s the file and skips the ids whose last line is
    completed. This module knows nothing about verdicts: the caller
    encodes each line and passes {!load} the decoder.

    {!Experiments.run_supervised} writes a line that is the experiment's
    report record ({!Experiments.supervised_result_to_json}) behind a
    two-field header, so a resumed record is the record the report would
    hold (schema [predlab/journal], version 2, one compact JSON object per
    line):
    {v
    {"schema":"predlab/journal","version":2,"id":"EQ4","title":...,
     "status":"completed","attempts":1,"resumed":false,
     "checks":[{"label":...,"passed":...},...],
     "checks_passed":2,"checks_total":2,
     "wall_s":0.123,"cells":540,"evals":540}
    v}
    A crashed line carries ["error"] after ["status"], a timed-out line
    ["after_s"] (the {!Report.status_fields} encoding). Version 1 lines
    lack ["resumed"], ["checks_passed"] and ["checks_total"]; they still
    load and resume.

    Crash safety: lines are appended, flushed and fsynced one at a time
    under a mutex (writers may sit on different worker domains), and
    {!load} tolerates a torn final line — the signature of dying
    mid-write — by ignoring it. A malformed line anywhere {e else} is a
    hard error: that is a corrupt journal, not a crash artifact. *)

type writer

val create : string -> writer
(** Open (creating if needed) the journal for appending. Raises
    [Sys_error] if the path is unwritable. *)

val append : writer -> Prelude.Json.t -> unit
(** Write one compact line, flush and fsync before returning.
    Thread-safe. *)

val close : writer -> unit

val write_atomic : string -> string -> unit
(** [write_atomic path contents]: write a whole document atomically {e and}
    durably — temp file beside [path], data fsync, rename, then an fsync
    of the parent directory (without which a crash shortly after the
    rename can roll it back, losing the new document even though the
    rename "succeeded"). The [--out] report path uses it. Raises
    [Sys_error]/[Unix.Unix_error] if the write or rename fails, after
    removing the temp file, so [path] and its directory are as they
    were; the directory fsync itself is best-effort. *)

val check_writable : string -> unit
(** Raise the [Sys_error] that would stop {!write_atomic} at [path]
    before it writes anything: [path] is a directory, which the rename
    cannot replace, or the temp file beside it cannot be created. Leaves
    no temp file. [predlab all --out] calls it before the journal opens
    or the first experiment runs. *)

val load :
  string -> (Prelude.Json.t -> ('a, string) Stdlib.result) ->
  ('a list, string) Stdlib.result
(** [load path decode]: the decoded lines in file order ([Ok []] if the
    file does not exist — resuming from a journal that was never written
    is an empty resume, not an error). A truncated final line is ignored;
    a line over the frame cap, a line that is not JSON, or one that
    [decode] rejects is an [Error] naming its line number. *)
