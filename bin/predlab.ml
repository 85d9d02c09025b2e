(* predlab — command-line front end to the predictability laboratory:
   list/run the experiments that reproduce the paper's figures and tables
   (under a fault-tolerant supervisor with deadlines, retries and a
   crash-safe journal), print the survey tables, summarise per-experiment
   cost, run seeded chaos campaigns, and diff two machine-readable reports
   as a regression gate.

   Exit codes (the documented taxonomy; see HACKING.md):
     0  success
     1  every experiment completed, but some reproduction check failed
     2  usage/input error (unknown id, malformed file or --inject spec)
     3  supervision failure: >= 1 experiment crashed or timed out (for
        `query`, also a --timeout overrun against a wedged daemon)
     4  chaos: the supervisor or the serve plane degraded ungracefully
     5  overloaded: the serve daemon shed the connection (backpressure) *)

type format = Text | Json

let list_experiments () =
  List.iter
    (fun (id, title, _) -> Printf.printf "%-10s %s\n" id title)
    Predictability.Experiments.all

let apply_jobs jobs = Prelude.Parallel.set_default_jobs jobs

(* Arm the fault plane from --inject specs; a malformed spec is a usage
   error (exit 2) before anything runs. *)
let apply_injections specs =
  let sites =
    List.map
      (fun spec ->
         match Prelude.Faults.parse_spec spec with
         | Ok site -> site
         | Error message ->
           Printf.eprintf "predlab: --inject %s\n" message;
           exit 2)
      specs
  in
  if sites <> [] then Prelude.Faults.arm sites

let supervision_of ~deadline ~retries =
  { Predictability.Experiments.deadline_s = deadline; retries }

(* Final reports are written via a temporary file, a rename and a parent-
   directory fsync (Journal.write_atomic), so a crash mid-write can never
   leave a half-document where a previous good report used to be — and a
   crash just after cannot roll the rename back. A path it cannot write is
   a usage error (exit 2). *)
let emit ~out contents =
  match out with
  | None -> print_string contents
  | Some path -> (
      try Predictability.Journal.write_atomic path contents with
      | Sys_error reason ->
        Printf.eprintf "predlab: cannot write --out %s: %s\n" path reason;
        exit 2
      | Unix.Unix_error (err, fn, arg) ->
        Printf.eprintf "predlab: cannot write --out %s: %s: %s %s\n" path
          (Unix.error_message err) fn arg;
        exit 2)

let render_supervised_text results =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
       Buffer.add_string buf (Predictability.Experiments.supervised_render s);
       Buffer.add_char buf '\n')
    results;
  buf

let supervised_summary jobs results =
  let failures = Predictability.Experiments.supervised_failures results in
  let check_failures =
    Predictability.Experiments.supervised_check_failures results
  in
  let count p = List.length (List.filter p results) in
  Printf.sprintf
    "%d/%d experiments fully passed their checks (jobs=%d)%s\n"
    (List.length results - List.length failures - List.length check_failures)
    (List.length results) jobs
    (let extras =
       (match failures with
        | [] -> []
        | fs ->
          [ Printf.sprintf "%d crashed/timed out (%s)" (List.length fs)
              (String.concat ", "
                 (List.map
                    (fun s -> s.Predictability.Experiments.s_id) fs)) ])
       @ (match count (fun s -> s.Predictability.Experiments.s_attempts > 1)
          with
          | 0 -> []
          | n -> [ Printf.sprintf "%d retried" n ])
       @ (match count (fun s -> s.Predictability.Experiments.s_resumed) with
          | 0 -> []
          | n -> [ Printf.sprintf "%d resumed from journal" n ])
     in
     if extras = [] then "" else "; " ^ String.concat "; " extras)

(* An unknown workload or experiment name, or an unreadable input
   document, is a usage error (exit 2). *)
let or_usage f =
  try f () with Serve.Ops.Usage message -> prerr_endline message; exit 2

(* Shared driver of `run` and `all`: supervised execution, text/json
   rendering, optional journal/resume and atomic --out. *)
let run_supervised_cli ~jobs ~format ~deadline ~retries ~inject ~journal
    ~resume ~out ~entries =
  apply_jobs jobs;
  apply_injections inject;
  if resume && journal = None then begin
    Printf.eprintf "predlab: --resume requires --journal FILE\n";
    exit 2
  end;
  let supervision = supervision_of ~deadline ~retries in
  match Serve.Ops.run_supervised ~jobs ~supervision ?journal ~resume entries with
  | exception (Invalid_argument message | Sys_error message) ->
    Printf.eprintf "predlab: %s\n" message;
    exit 2
  | results, doc ->
    (match format with
     | Text ->
       let buf = render_supervised_text results in
       Buffer.add_string buf (supervised_summary jobs results);
       emit ~out (Buffer.contents buf)
     | Json -> emit ~out (Serve.Ops.render Serve.Ops.run doc));
    exit (Serve.Ops.run.exit_code doc)

let run_one jobs format deadline retries inject id =
  let entry = or_usage (fun () -> Serve.Ops.experiment id) in
  run_supervised_cli ~jobs ~format ~deadline ~retries ~inject ~journal:None
    ~resume:false ~out:None ~entries:[ entry ]

let run_all jobs format deadline retries inject journal resume out =
  run_supervised_cli ~jobs ~format ~deadline ~retries ~inject ~journal
    ~resume ~out ~entries:Predictability.Experiments.all

let chaos jobs format plane seed =
  apply_jobs jobs;
  match plane with
  | `Experiments ->
    let verdict = Predictability.Chaos.run ~jobs ~seed () in
    (match format with
     | Text -> print_string (Predictability.Chaos.render verdict)
     | Json ->
       print_string
         (Prelude.Json.to_string_pretty
            (Predictability.Chaos.verdict_to_json verdict)));
    if verdict.Predictability.Chaos.violations <> [] then exit 4
  | `Serve ->
    let verdict = Serve.Chaos.run ~seed () in
    (match format with
     | Text -> print_string (Serve.Chaos.render verdict)
     | Json ->
       print_string
         (Prelude.Json.to_string_pretty
            (Serve.Chaos.verdict_to_json verdict)));
    if verdict.Serve.Chaos.violations <> [] then exit 4

(* `stats` runs the registry under the default supervision, as `all`
   does, and prints a cost table instead of the reports; with --format
   json it prints the same v2 document as `all --format json`, which is
   ci.sh's compare input. The table's totals and the exit class (the run
   op's) are read from that document; a crashed experiment shows its
   status in the checks column and exits 3. *)
let stats jobs format =
  apply_jobs jobs;
  let results, doc =
    Serve.Ops.run_supervised ~jobs
      ~supervision:Predictability.Experiments.default_supervision
      Predictability.Experiments.all
  in
  (match format with
   | Json -> print_string (Serve.Ops.render Serve.Ops.run doc)
   | Text ->
     let module E = Predictability.Experiments in
     let module R = Predictability.Report in
     let table =
       Prelude.Table.make
         ~header:[ "experiment"; "wall s"; "Q*I cells"; "kernel evals";
                   "checks" ]
     in
     let total_cells = ref 0 and total_evals = ref 0 in
     List.iter
       (fun { E.s_id; s_status; s_outcome; s_timing = t; _ } ->
          total_cells := !total_cells + t.R.cells;
          total_evals := !total_evals + t.R.evals;
          Prelude.Table.add_row table
            [ s_id; Printf.sprintf "%.3f" t.R.wall_s;
              string_of_int t.R.cells; string_of_int t.R.evals;
              (match s_outcome with
               | Some { R.checks; _ } ->
                 Printf.sprintf "%d/%d"
                   (List.length (List.filter (fun c -> c.R.passed) checks))
                   (List.length checks)
               | None -> R.status_string s_status) ])
       results;
     let total name =
       Printf.sprintf "%.3f"
         (Option.get
            (Option.bind (Prelude.Json.member name doc)
               Prelude.Json.float_value))
     in
     Prelude.Table.add_separator table;
     (* Two totals on purpose: per-experiment walls overlap under jobs>1, so
        their sum is CPU-time-flavoured; elapsed is the true wall clock. *)
     Prelude.Table.add_row table
       [ "sum"; total "wall_sum_s"; string_of_int !total_cells;
         string_of_int !total_evals; "" ];
     Prelude.Table.add_row table [ "elapsed"; total "elapsed_s"; ""; ""; "" ];
     print_string (Prelude.Table.render table);
     Printf.printf
       "sum = per-experiment wall added up (runs overlap under jobs>1); \
        elapsed = true wall clock\n";
     Printf.printf "jobs=%d (recommended on this machine: %d)\n" jobs
       (Prelude.Parallel.recommended_jobs ()));
  exit (Serve.Ops.run.exit_code doc)

let compare_reports tolerance baseline_path current_path =
  match
    let baseline = Serve.Ops.load_json baseline_path in
    let current = Serve.Ops.load_json current_path in
    Predictability.Regression.compare_reports ~tolerance_pct:tolerance
      ~baseline ~current ()
  with
  | exception (Serve.Ops.Usage message | Invalid_argument message) ->
    Printf.eprintf "predlab compare: %s\n" message;
    exit 2
  | [] ->
    Printf.printf "OK: %s is no worse than %s (tolerance %.0f%%)\n"
      current_path baseline_path tolerance
  | findings ->
    List.iter
      (fun f ->
         Printf.printf "%s\n" (Predictability.Regression.finding_string f))
      findings;
    Printf.printf "%d regression finding(s) comparing %s against %s\n"
      (List.length findings) current_path baseline_path;
    exit 1

let list_workloads () =
  List.iter
    (fun (name, make) ->
       let w = make () in
       Printf.printf "%-16s %s (%d inputs)\n" name
         w.Isa.Workload.description
         (List.length w.Isa.Workload.inputs))
    Isa.Workload.registry

let show_program name =
  let w = or_usage (fun () -> Serve.Ops.workload name ()) in
  let program, _ = Isa.Workload.program w in
  Printf.printf "; %s — %s\n" w.Isa.Workload.name w.Isa.Workload.description;
  Format.printf "%a@." Isa.Program.pp program;
  Printf.printf "; %d instructions, %d admissible inputs\n"
    (Isa.Program.length program)
    (List.length w.Isa.Workload.inputs)

(* The bench-style `--only SUBSTR` filter of lint and certify, over the
   positional names (default: the whole registry). *)
let only_names ~command ~only names =
  match only with
  | None -> names
  | Some substr -> (
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i =
          i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
        in
        nn = 0 || at 0
      in
      let selected = List.map fst (Serve.Ops.select_workloads names) in
      match List.filter (fun name -> contains name substr) selected with
      | [] ->
        Printf.eprintf "predlab %s: --only %s matches no workload\n" command
          substr;
        exit 2
      | matching -> matching)

(* `predlab lint`: run the dataflow linter over workloads (default: the
   whole registry) or one of the pinned fixtures. Exit 1 iff any
   error-severity finding is reported — the ci.sh gate. *)
let lint format only fixture names =
  let targets =
    match fixture with
    | Some `Clean ->
      let program, shapes = Dataflow.Fixtures.clean () in
      [ ("fixture:clean",
         Dataflow.Lint.check_program program @ Dataflow.Lint.check_shapes shapes) ]
    | Some `Dirty ->
      [ ("fixture:dirty", Dataflow.Lint.check_program (Dataflow.Fixtures.dirty ())) ]
    | None ->
      or_usage (fun () ->
          Serve.Ops.lint_targets (only_names ~command:"lint" ~only names))
  in
  let doc = Dataflow.Lint.report_to_json targets in
  (match format with
   | Json -> print_string (Serve.Ops.render Serve.Ops.lint doc)
   | Text ->
     List.iter
       (fun (name, findings) ->
          Printf.printf "%s: %d error(s), %d warning(s)\n" name
            (Dataflow.Lint.errors findings)
            (Dataflow.Lint.warnings findings);
          print_string (Dataflow.Lint.render findings))
       targets;
     Printf.printf "%d target(s), %d error finding(s)\n" (List.length targets)
       (Dataflow.Lint.errors (List.concat_map snd targets)));
  exit (Serve.Ops.lint.exit_code doc)

(* `predlab certify`: static predictability certificates over the
   standard machine pair (Certifier). Exit 1 iff any declared expectation
   (--require-invariant, or a fixture's built-in one) is contradicted by
   the flat-machine verdict — the leaky-fixture gate in ci.sh. *)
let certify format only fixture require_invariant names =
  let rows =
    match fixture with
    | Some fixture ->
      (* Both pinned fixtures declare the constant-time expectation:
         leakfree holds it, leaky was written to contradict it. *)
      let w =
        match fixture with
        | `Leakfree -> Dataflow.Fixtures.leakfree ()
        | `Leaky -> Dataflow.Fixtures.leaky ()
      in
      [ Predictability.Certifier.row ~expect:Analysis.Certify.Invariant w ]
    | None ->
      let expect =
        if require_invariant then Some Analysis.Certify.Invariant else None
      in
      or_usage (fun () ->
          Serve.Ops.certify_rows ?expect
            (only_names ~command:"certify" ~only names))
  in
  let doc = Predictability.Certifier.report_to_json rows in
  (match format with
   | Json -> print_string (Serve.Ops.render Serve.Ops.certify doc)
   | Text ->
     print_string (Predictability.Certifier.render rows);
     Printf.printf "%d target(s), %d contradicted expectation(s)\n"
       (List.length rows)
       (Predictability.Certifier.contradictions rows));
  exit (Serve.Ops.certify.exit_code doc)

(* `predlab sample`: seeded sampling estimators (Pr/SIPr/IIPr, mean,
   BCET/WCET tails, each with a CI) over workloads — the scale-past-
   exhaustive path, gated by the DEF.SAMPLE oracle. With --check the
   exhaustive quantities are computed next to the estimates and exit 1
   signals any value outside its CI. *)
let sample jobs format seed samples confidence check names =
  apply_jobs jobs;
  let spec =
    { Sampling.Sampler.default with seed; n_cells = samples; confidence }
  in
  let rows =
    match
      or_usage (fun () ->
          Serve.Ops.sample_rows ~jobs ~spec ~cross_check:check names)
    with
    | exception Invalid_argument message ->
      Printf.eprintf "predlab sample: %s\n" message;
      exit 2
    | rows -> rows
  in
  let doc = Predictability.Sampled.report_to_json ~jobs rows in
  (match format with
   | Json -> print_string (Serve.Ops.render Serve.Ops.sample doc)
   | Text ->
     List.iter (fun row -> print_string (Predictability.Sampled.render row))
       rows;
     if check then
       let outside =
         List.filter (fun r -> not (Predictability.Sampled.all_contained r))
           rows
       in
       Printf.printf "%d/%d workloads with every exhaustive value inside its CI\n"
         (List.length rows - List.length outside)
         (List.length rows));
  exit (Serve.Ops.sample.exit_code doc)

(* `predlab serve`: the resident evaluation daemon (lib/serve). Blocks
   until a shutdown request or SIGTERM/SIGINT arrives (graceful drain
   either way); exits 0 on that clean path, 2 on any setup failure
   (socket busy, bad flags). *)
let serve socket jobs deadline conns queue idle drain max_frame =
  apply_jobs jobs;
  let config =
    { Serve.Daemon.socket; jobs; deadline_s = deadline; conns; queue;
      idle_s = idle; drain_s = drain; max_frame }
  in
  let on_ready () =
    Printf.eprintf "predlab serve: listening on %s (jobs=%d, conns=%d)\n%!"
      socket jobs conns
  in
  match Serve.Daemon.run ~on_ready config with
  | () -> Printf.eprintf "predlab serve: shut down cleanly\n%!"
  | exception Serve.Daemon.Busy message ->
    Printf.eprintf "predlab serve: %s\n" message;
    exit 2
  | exception Invalid_argument message ->
    Printf.eprintf "predlab serve: %s\n" message;
    exit 2
  | exception Sys_error message ->
    Printf.eprintf "predlab serve: %s\n" message;
    exit 2
  | exception Unix.Unix_error (err, fn, arg) ->
    Printf.eprintf "predlab serve: %s: %s %s\n" (Unix.error_message err) fn
      arg;
    exit 2

(* `predlab query`: one request-response round trip against a running
   daemon. A shared op's result document is printed, and its exit class
   read, through the same Serve.Ops entry the one-shot CLI uses, so the
   bytes match; an error envelope exits by its status (2 usage, 3 timed
   out, 5 overloaded, else 1), a connection failure 2, a --timeout
   overrun 3. *)
let query_usage =
  String.concat "\n  | "
    ("usage: predlab query [flags] OP ...\n  eval WORKLOAD STATE INPUT"
     :: List.map
       (fun e -> e.Serve.Ops.name ^ " " ^ e.Serve.Ops.args)
       Serve.Ops.table
     @ [ "stats | shutdown   (or --raw LINE)" ])

let build_request flags = function
  | [ "eval"; workload; state; input ] -> (
      match int_of_string_opt state, int_of_string_opt input with
      | Some state, Some input ->
        Ok (Serve.Protocol.Eval { workload; state; input })
      | _ -> Error "eval: STATE and INPUT must be integers")
  | "eval" :: _ -> Error "usage: predlab query eval WORKLOAD STATE INPUT"
  | [ "stats" ] -> Ok Serve.Protocol.Stats
  | [ "shutdown" ] -> Ok Serve.Protocol.Shutdown
  | op :: args -> (
      match Serve.Ops.find op with
      | None -> Error query_usage
      | Some e -> (
          match e.Serve.Ops.request flags args with
          | Some request -> Ok request
          | None ->
            Error (Printf.sprintf "usage: predlab query %s %s" op e.Serve.Ops.args)))
  | [] -> Error query_usage

let query socket connect_timeout timeout deadline retries seed samples
    confidence tolerance raw args =
  let request_json =
    match raw with
    | Some line -> (
        (* The line goes out as written, so a request flag or an OP
           argument beside it would be dropped without a word: a usage
           error, before any connect. *)
        (match
           List.find_opt snd
             [ ("deadline", deadline <> None); ("retries", retries <> 0);
               ("seed", seed <> None); ("samples", samples <> None);
               ("confidence", confidence <> None);
               ("tolerance", tolerance <> None) ]
         with
         | Some (flag, _) ->
           Printf.eprintf
             "predlab query: --%s cannot be combined with --raw; put it in \
              the request line\n" flag;
           exit 2
         | None -> ());
        if args <> [] then begin
          Printf.eprintf
            "predlab query: OP arguments (%s) cannot be combined with \
             --raw; the request line is the whole request\n"
            (String.concat " " args);
          exit 2
        end;
        match Prelude.Json.parse line with
        | Ok json -> json
        | Error message ->
          Printf.eprintf "predlab query: --raw: %s\n" message;
          exit 2)
    | None -> (
        (* The flag converters admit +inf, which JSON has no spelling for,
           so a request could not carry it: a usage error, before any
           connect. *)
        List.iter
          (fun (flag, value) ->
             match value with
             | Some v when not (Float.is_finite v) ->
               Printf.eprintf
                 "predlab query: --%s %g is non-finite; a request cannot \
                  carry it\n" flag v;
               exit 2
             | _ -> ())
          [ ("deadline", deadline); ("tolerance", tolerance) ];
        let flags = { Serve.Ops.retries; seed; samples; confidence; tolerance } in
        match build_request flags args with
        | Ok request ->
          Serve.Protocol.request_to_json ?deadline_s:deadline request
        | Error message | (exception Serve.Ops.Usage message) ->
          Printf.eprintf "predlab query: %s\n" message;
          exit 2)
  in
  match Serve.Client.connect ~retry_for_s:connect_timeout socket with
  | Error message ->
    Printf.eprintf "predlab query: cannot connect: %s\n" message;
    exit 2
  | Ok client -> (
      let reply =
        Fun.protect
          ~finally:(fun () -> Serve.Client.close client)
          (fun () -> Serve.Client.reply ?timeout_s:timeout client request_json)
      in
      match reply with
      | Error (Serve.Client.Timeout after_s) ->
        (* A wedged daemon is a supervision-style failure, not usage:
           same exit as a timed-out experiment. *)
        Printf.eprintf "predlab query: timed out after %gs\n" after_s;
        exit 3
      | Error error ->
        Printf.eprintf "predlab query: %s\n" (Serve.Client.error_message error);
        exit 2
      | Ok (Serve.Protocol.Answered { op; result }) -> (
          match Option.bind op Serve.Ops.find with
          | Some e ->
            print_string (Serve.Ops.render e result);
            exit (e.Serve.Ops.exit_code result)
          | None -> print_string (Prelude.Json.to_string_pretty result))
      | Ok (Serve.Protocol.Refused { message; status }) ->
        Printf.eprintf "predlab query: %s\n" message;
        exit (Serve.Ops.error_exit status))

let survey () =
  print_endline "Table 1: constructive approaches to predictability (part I)";
  print_string (Predictability.Survey.render Predictability.Survey.table1);
  print_newline ();
  print_endline "Table 2: constructive approaches to predictability (part II)";
  print_string (Predictability.Survey.render Predictability.Survey.table2)

open Cmdliner

(* [base] restricted to the values [ok] accepts; [message v] explains a
   rejected [v]. *)
let bounded base ok message =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok v -> Error (`Msg (message v))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let positive_int =
  bounded Arg.int (fun n -> n >= 1)
    (Printf.sprintf "%d is not a positive job count")

let positive_budget =
  bounded Arg.float (fun d -> d > 0.)
    (Printf.sprintf "%g is not a positive budget")

let confidence_level =
  bounded Arg.float (fun c -> c > 0. && c < 1.)
    (Printf.sprintf "%g is not a confidence in (0, 1)")

let tolerance_pct =
  bounded Arg.float (fun t -> t >= 0.)
    (Printf.sprintf "%g is not a tolerance >= 0")

let jobs_arg =
  Arg.(value
       & opt positive_int (Prelude.Parallel.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for the parallel evaluation engine \
                 (default: Domain.recommended_domain_count). Results are \
                 bit-identical for any value.")

let format_arg =
  Arg.(value
       & opt (enum [ ("text", Text); ("json", Json) ]) Text
       & info [ "format" ] ~docv:"FORMAT"
           ~doc:"Output format: $(b,text) (human-readable reports) or \
                 $(b,json) (one machine-readable document per invocation, \
                 schema predlab/report — the input of $(b,predlab \
                 compare)).")

let deadline_arg =
  Arg.(value
       & opt (some positive_budget) None
       & info [ "deadline" ] ~docv:"SEC"
           ~doc:"Cooperative per-attempt budget in seconds: an experiment \
                 observed past it (at a parallel-loop checkpoint, or when \
                 its runner returns) is classified $(b,timed_out) instead \
                 of crashing the batch.")

let retries_arg =
  let nonneg_int =
    bounded Arg.int (fun n -> n >= 0)
      (Printf.sprintf "%d is a negative retry count")
  in
  Arg.(value
       & opt nonneg_int 0
       & info [ "retries" ] ~docv:"N"
           ~doc:"Extra attempts after a crash or deadline overrun, with \
                 bounded exponential backoff (50 ms base, 1 s cap). The \
                 report's $(b,attempts) field records what was used.")

let inject_arg =
  Arg.(value
       & opt_all string []
       & info [ "inject" ] ~docv:"SITE=ACTION"
           ~doc:"Arm a fault-injection site for this run (repeatable; \
                 fires on the site's first arrival). ACTION is $(b,raise), \
                 $(b,timeout) or $(b,delay:MS); sites include \
                 $(b,experiment:<ID>), $(b,parallel.spawn), \
                 $(b,parallel.task) and the serve plane's \
                 $(b,serve.accept)/$(b,serve.read)/$(b,serve.write). \
                 Example: --inject experiment:EQ4=raise.")

let journal_arg =
  Arg.(value
       & opt (some string) None
       & info [ "journal" ] ~docv:"FILE"
           ~doc:"Append one JSON line (schema predlab/journal) per \
                 finished experiment, fsynced as it happens — a run \
                 killed mid-batch loses only the experiments still in \
                 flight.")

let resume_arg =
  Arg.(value
       & flag
       & info [ "resume" ]
           ~doc:"Skip experiments whose last $(b,--journal) line is \
                 completed, reconstructing their report records from the \
                 journal; re-run only the rest. Requires --journal.")

let out_arg =
  Arg.(value
       & opt (some string) None
       & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Write the report to FILE (atomic: temp file + rename) \
                 instead of stdout.")

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List all experiments")
    Term.(const list_experiments $ const ())

let run_cmd =
  let id =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ID" ~doc:"Experiment id (see `predlab list`)")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run one experiment under supervision and print its report. \
             Exits 0 on success, 1 on failed checks, 3 if the experiment \
             crashed or timed out.")
    Term.(const run_one $ jobs_arg $ format_arg $ deadline_arg $ retries_arg
          $ inject_arg $ id)

let all_cmd =
  Cmd.v
    (Cmd.info "all"
       ~doc:"Run every experiment under the fault-tolerant supervisor: a \
             crashing or overrunning experiment becomes a structured \
             crashed/timed_out record (schema v2) while the rest of the \
             registry completes. Exits 0 on success, 1 on failed checks, \
             3 if any experiment crashed or timed out.")
    Term.(const run_all $ jobs_arg $ format_arg $ deadline_arg $ retries_arg
          $ inject_arg $ journal_arg $ resume_arg $ out_arg)

let chaos_cmd =
  let seed_arg =
    Arg.(value
         & opt int 0
         & info [ "seed" ] ~docv:"N"
             ~doc:"Campaign seed: deterministically picks which sites \
                   get raise/delay/timeout faults. Equal seeds give \
                   equal campaigns on any machine.")
  in
  let plane_arg =
    Arg.(value
         & opt (enum [ ("experiments", `Experiments); ("serve", `Serve) ])
             `Experiments
         & info [ "plane" ] ~docv:"PLANE"
             ~doc:"What to attack: $(b,experiments) (the supervisor, \
                   default) or $(b,serve) (a live daemon over real \
                   sockets: torn frames, slowloris, disconnects, \
                   oversized frames, burst load and armed \
                   serve.accept/read/write sites).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Seeded fault campaign. --plane experiments: run all \
             experiments under persistent injected faults (no retries) \
             and again under transient faults (one retry), then assert \
             graceful degradation — no lost experiments, registry order \
             preserved, every injected failure classified, retries \
             recovering transients. --plane serve: drive adversarial \
             clients and armed fault sites against an in-process daemon \
             and assert it never dies, sheds deterministically and keeps \
             responses byte-identical. Exits 4 on a violation; injected \
             failures themselves are expected and do not fail the \
             command.")
    Term.(const chaos $ jobs_arg $ format_arg $ plane_arg $ seed_arg)

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run every experiment under the supervisor, as $(b,all) \
             does, and print a per-experiment cost summary (wall-clock, \
             Q*I matrix cells, kernel evaluations). The text table \
             reports both the sum of per-experiment wall times and the \
             true elapsed wall clock — they differ under --jobs > 1. \
             Exits like $(b,all).")
    Term.(const stats $ jobs_arg $ format_arg)

let compare_cmd =
  let tolerance_arg =
    Arg.(value
         & opt tolerance_pct 50.
         & info [ "tolerance" ] ~docv:"PCT"
             ~doc:"Allowed slowdown in percent before a timing counts as a \
                   regression (default 50, i.e. up to 1.5x baseline is \
                   tolerated). Check regressions are gated regardless.")
  in
  let baseline_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"BASELINE" ~doc:"Baseline report (JSON)")
  in
  let current_arg =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"CURRENT" ~doc:"Current report (JSON)")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Regression gate: diff two machine-readable reports (predlab \
             --format json or bench --json output) and exit nonzero on \
             check regressions, missing experiments, or slowdowns beyond \
             the tolerance.")
    Term.(const compare_reports $ tolerance_arg $ baseline_arg $ current_arg)

let survey_cmd =
  Cmd.v (Cmd.info "survey" ~doc:"Print the paper's Tables 1 and 2 as template instances")
    Term.(const survey $ const ())

let workloads_cmd =
  Cmd.v (Cmd.info "workloads" ~doc:"List the registered workload programs")
    Term.(const list_workloads $ const ())

let only_arg command =
  Arg.(value
       & opt (some string) None
       & info [ "only" ] ~docv:"SUBSTR"
           ~doc:(Printf.sprintf
                   "Keep only the selected workloads whose name contains \
                    SUBSTR (as in $(b,bench --only)); exits 2 if nothing \
                    matches. Composes with positional names: `predlab %s \
                    --only sort` runs the sorting kernels."
                   command))

let lint_cmd =
  let fixture_arg =
    Arg.(value
         & opt (some (enum [ ("clean", `Clean); ("dirty", `Dirty) ])) None
         & info [ "fixture" ] ~docv:"NAME"
             ~doc:"Lint a pinned fixture instead of workloads: $(b,clean) \
                   (expected finding-free) or $(b,dirty) (expected to trip \
                   every error rule).")
  in
  let names_arg =
    Arg.(value & pos_all string []
         & info [] ~docv:"WORKLOAD"
             ~doc:"Workloads to lint (default: every registered workload).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the dataflow linter (CFG, interval, liveness and \
             timing-taint analyses plus the loop-bound audit) over \
             workload programs. Exits nonzero iff any error-severity \
             finding is reported; warnings (including $(b,timing-leak) \
             and $(b,dead-result-reg)) and infos are printed but do not \
             gate.")
    Term.(const lint $ format_arg $ only_arg "lint" $ fixture_arg
          $ names_arg)

let certify_cmd =
  let fixture_arg =
    Arg.(value
         & opt (some (enum [ ("leakfree", `Leakfree); ("leaky", `Leaky) ]))
             None
         & info [ "fixture" ] ~docv:"NAME"
             ~doc:"Certify a pinned fixture instead of workloads, with the \
                   constant-time expectation declared: $(b,leakfree) \
                   (expected Invariant — holds) or $(b,leaky) (a falsely \
                   assumed constant-time kernel — the expectation is \
                   contradicted and the command exits 1).")
  in
  let require_invariant_arg =
    Arg.(value
         & flag
         & info [ "require-invariant" ]
             ~doc:"Declare the Invariant expectation for every selected \
                   workload; exit 1 if any flat-machine verdict is \
                   Bounded.")
  in
  let names_arg =
    Arg.(value & pos_all string []
         & info [] ~docv:"WORKLOAD"
             ~doc:"Workloads to certify (default: every registered \
                   workload).")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:"Issue static predictability certificates: run the \
             timing-taint analysis and the restricted WCET/BCET walks \
             over each workload on the flat and cached machine models, \
             and report $(b,invariant) (Pr = SIPr = IIPr = 1, proved \
             without executing) or $(b,bounded) (a sound spread bound \
             with the leaking program points). Verdicts are gated by the \
             DEF.CERT oracle experiment. Exits 1 iff a declared \
             expectation is contradicted.")
    Term.(const certify $ format_arg $ only_arg "certify" $ fixture_arg
          $ require_invariant_arg $ names_arg)

let sample_cmd =
  let seed_arg =
    Arg.(value
         & opt int Sampling.Sampler.default.Sampling.Sampler.seed
         & info [ "seed" ] ~docv:"N"
             ~doc:"Sampling seed. Equal seeds give bit-identical reports \
                   for any --jobs value; the seed is echoed in the \
                   report.")
  in
  let samples_arg =
    Arg.(value
         & opt positive_int Sampling.Sampler.default.Sampling.Sampler.n_cells
         & info [ "samples" ] ~docv:"N"
             ~doc:"Monte-Carlo (state, input) cell draws per workload \
                   (stratified SIPr/IIPr passes are sized separately by \
                   the spec).")
  in
  let confidence_arg =
    Arg.(value
         & opt confidence_level
             Sampling.Sampler.default.Sampling.Sampler.confidence
         & info [ "confidence" ] ~docv:"C"
             ~doc:"Two-sided CI coverage target in (0, 1), default 0.99.")
  in
  let check_arg =
    Arg.(value
         & flag
         & info [ "check" ]
             ~doc:"Also compute the exhaustive quantities (full Q*I sweep) \
                   and verify each lands inside its CI; exit 1 if any \
                   falls outside.")
  in
  let names_arg =
    Arg.(value & pos_all string []
         & info [] ~docv:"WORKLOAD"
             ~doc:"Workloads to sample (default: every registered \
                   workload).")
  in
  Cmd.v
    (Cmd.info "sample"
       ~doc:"Estimate Pr/SIPr/IIPr, the mean execution time and \
             pWCET-style BCET/WCET tails from seeded samples instead of \
             the exhaustive Q*I sweep. Every estimate carries a \
             confidence interval; an interval is a statistical statement, \
             not a bound (see README). Results are bit-identical across \
             --jobs and repeated runs at a fixed seed.")
    Term.(const sample $ jobs_arg $ format_arg $ seed_arg $ samples_arg
          $ confidence_arg $ check_arg $ names_arg)

let program_cmd =
  let workload_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"WORKLOAD" ~doc:"Workload name (see `predlab workloads`)")
  in
  Cmd.v (Cmd.info "program" ~doc:"Disassemble a workload's compiled program")
    Term.(const show_program $ workload_arg)

let socket_arg =
  Arg.(required
       & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path of the daemon.")

let serve_cmd =
  let conns_arg =
    Arg.(value
         & opt positive_int Serve.Daemon.default_conns
         & info [ "conns" ] ~docv:"N"
             ~doc:"Connection worker domains: how many client connections \
                   are served concurrently (default 4).")
  in
  let queue_arg =
    let nonneg =
      bounded Arg.int (fun n -> n >= 0) (Printf.sprintf "%d is a negative bound")
    in
    Arg.(value
         & opt nonneg Serve.Daemon.default_queue
         & info [ "queue" ] ~docv:"N"
             ~doc:"Pending-connection queue bound: connections past it \
                   (while every worker is busy) are shed with the \
                   structured $(b,overloaded) envelope instead of \
                   queueing without bound. 0 sheds whenever all workers \
                   are busy.")
  in
  let idle_arg =
    let idle_conv =
      let parse s =
        match Arg.conv_parser Arg.float s with
        | Ok d when d > 0. -> Ok (Some d)
        | Ok d when d = 0. -> Ok None
        | Ok d -> Error (`Msg (Printf.sprintf "%g is not a valid budget" d))
        | Error e -> Error e
      in
      let print ppf = function
        | None -> Format.pp_print_string ppf "0"
        | Some d -> Arg.conv_printer Arg.float ppf d
      in
      Arg.conv (parse, print)
    in
    Arg.(value
         & opt idle_conv Serve.Daemon.default_idle_s
         & info [ "idle" ] ~docv:"SEC"
             ~doc:"Per-connection budget for one complete request frame \
                   (and one response write): a wedged or byte-dripping \
                   client is reaped past it, never blocking its worker \
                   indefinitely. 0 disables reaping (default 30).")
  in
  let drain_arg =
    Arg.(value
         & opt positive_budget Serve.Daemon.default_drain_s
         & info [ "drain" ] ~docv:"SEC"
             ~doc:"Graceful-drain budget: on shutdown/SIGTERM/SIGINT, how \
                   long in-flight connections get to finish before being \
                   force-reset (default 5).")
  in
  let max_frame_arg =
    Arg.(value
         & opt positive_int Serve.Daemon.default_max_frame
         & info [ "max-frame" ] ~docv:"BYTES"
             ~doc:"Byte cap on one request line: an oversized frame is \
                   discarded whole and answered with a request-level \
                   error, the connection survives, and daemon memory \
                   stays bounded (default 1 MiB).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the resident evaluation daemon: accept JSONL requests \
             (eval/run/sample/lint/certify/stats/shutdown) on a Unix-domain \
             socket, served by a bounded pool of $(b,--conns) worker \
             domains over shared memo-cached engines. An engine's memo \
             holds at most one cell per (state, input) of its workload's \
             pinned grid, which $(b,eval) addresses by index. Result \
             documents match the one-shot CLI's --format json output \
             byte-for-byte for any --jobs/--conns. Overload is shed with a \
             structured envelope; shutdown (request or SIGTERM/SIGINT) \
             drains gracefully. Pair with $(b,predlab query).")
    Term.(const serve $ socket_arg $ jobs_arg $ deadline_arg
          $ conns_arg $ queue_arg $ idle_arg $ drain_arg $ max_frame_arg)

let query_cmd =
  let connect_timeout_arg =
    Arg.(value
         & opt float 5.
         & info [ "connect-timeout" ] ~docv:"SEC"
             ~doc:"Keep retrying a refused connection for up to SEC \
                   seconds — covers the daemon's startup window in \
                   scripts.")
  in
  let timeout_arg =
    Arg.(value
         & opt (some positive_budget) None
         & info [ "timeout" ] ~docv:"SEC"
             ~doc:"Round-trip budget against a connected daemon: if no \
                   complete response line arrives within SEC seconds \
                   (monotonic clock), exit 3 — a wedged daemon must not \
                   hang the query forever. Distinct from $(b,--deadline), \
                   which is enforced daemon-side.")
  in
  let seed_arg =
    Arg.(value
         & opt (some int) None
         & info [ "seed" ] ~docv:"N"
             ~doc:"Sampling seed for the $(b,sample) op (default: the \
                   sampler's, as in `predlab sample`).")
  in
  let samples_arg =
    Arg.(value
         & opt (some positive_int) None
         & info [ "samples" ] ~docv:"N"
             ~doc:"Cell draws per workload for the $(b,sample) op.")
  in
  let confidence_arg =
    Arg.(value
         & opt (some confidence_level) None
         & info [ "confidence" ] ~docv:"C"
             ~doc:"CI coverage target for the $(b,sample) op.")
  in
  let tolerance_arg =
    Arg.(value
         & opt (some tolerance_pct) None
         & info [ "tolerance" ] ~docv:"PCT"
             ~doc:"Slowdown tolerance in percent for the $(b,compare) op \
                   (default: the gate's, as in `predlab compare`).")
  in
  let raw_arg =
    Arg.(value
         & opt (some string) None
         & info [ "raw" ] ~docv:"LINE"
             ~doc:"Send LINE (a JSON request object) verbatim instead of \
                   building one from the positional arguments. A request \
                   flag ($(b,--deadline), $(b,--retries), $(b,--seed), \
                   $(b,--samples), $(b,--confidence), $(b,--tolerance)) \
                   or an OP argument cannot be combined with it and exits \
                   2: put its value in LINE. $(b,--timeout) and \
                   $(b,--connect-timeout) still apply.")
  in
  let args_arg =
    Arg.(value & pos_all string []
         & info [] ~docv:"OP"
             ~doc:"Request: $(b,eval) WORKLOAD STATE INPUT; $(b,run) ID; \
                   $(b,sample) [WORKLOAD...]; $(b,lint) [WORKLOAD...]; \
                   $(b,certify) [WORKLOAD...]; $(b,compare) BASELINE.json \
                   CURRENT.json; $(b,stats); $(b,shutdown).")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Send one request to a running $(b,predlab serve) daemon and \
             print the result document (for run/sample/lint/certify: the \
             same bytes the one-shot CLI prints under --format json). Exit \
             status mirrors the CLI: 0 ok, 1 failed checks, 2 \
             usage/connection error, 3 timed-out or crashed (including a \
             $(b,--timeout) overrun), 5 shed by an overloaded daemon.")
    Term.(const query $ socket_arg $ connect_timeout_arg $ timeout_arg
          $ deadline_arg $ retries_arg $ seed_arg $ samples_arg
          $ confidence_arg $ tolerance_arg $ raw_arg $ args_arg)

let main =
  Cmd.group
    (Cmd.info "predlab" ~version:"1.0.0"
       ~doc:"Predictability laboratory: reproduction of Grund, Reineke & \
             Wilhelm, 'A Template for Predictability Definitions with \
             Supporting Evidence' (PPES 2011)")
    [ list_cmd; run_cmd; all_cmd; chaos_cmd; stats_cmd; compare_cmd;
      survey_cmd; workloads_cmd; program_cmd; lint_cmd; certify_cmd;
      sample_cmd; serve_cmd; query_cmd ]

let () = exit (Cmd.eval main)
