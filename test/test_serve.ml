(* Tests for the predlab serve daemon: protocol encode/decode round trips,
   full socket sessions against an in-process daemon ([Daemon.start]),
   memo behaviour across requests, per-request deadlines, and the
   robustness edges — malformed lines, unknown workloads, busy and stale
   sockets. *)

module Json = Prelude.Json
module Protocol = Serve.Protocol
module Daemon = Serve.Daemon
module Client = Serve.Client
module Ops = Serve.Ops

let temp_socket =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "predlab-test-%d-%d.sock" (Unix.getpid ()) !counter)

(* Run [f socket client] against a daemon on a fresh socket. The wrapper
   always stops it (a no-op if the test body already shut it down), so a
   failing test cannot leak a listener into the next one, and fails the
   test if any close in the session found its descriptor already
   closed. *)
let daemon_config ?(jobs = 2) ?deadline_s ?(conns = 2)
    ?(queue = Daemon.default_queue) ?(idle_s = Daemon.default_idle_s)
    ?(drain_s = 2.) ?(max_frame = Daemon.default_max_frame) socket =
  { Daemon.socket; jobs; deadline_s; conns; queue; idle_s; drain_s;
    max_frame }

let with_daemon ?jobs ?deadline_s ?conns ?queue ?idle_s ?drain_s ?max_frame
    ?socket f =
  let socket = match socket with Some s -> s | None -> temp_socket () in
  let config =
    daemon_config ?jobs ?deadline_s ?conns ?queue ?idle_s ?drain_s
      ?max_frame socket
  in
  let bad_closes = Prelude.Lineio.bad_closes () in
  let daemon = Daemon.start config in
  let result =
    Fun.protect ~finally:(fun () -> Daemon.stop daemon) (fun () ->
        match Client.connect socket with
        | Error message -> Alcotest.failf "cannot connect: %s" message
        | Ok client ->
          Fun.protect
            ~finally:(fun () -> Client.close client)
            (fun () -> f socket client))
  in
  Alcotest.(check int) "no close found its descriptor closed" bad_closes
    (Prelude.Lineio.bad_closes ());
  result

let request ?deadline_s client req =
  match Client.reply client (Protocol.request_to_json ?deadline_s req) with
  | Ok reply -> reply
  | Error error ->
    Alcotest.failf "round trip failed: %s" (Client.error_message error)

(* An envelope read as [Client.reply] reads one. *)
let reply_of envelope =
  match Protocol.reply_of_json envelope with
  | Ok reply -> reply
  | Error message -> Alcotest.failf "%s: %s" message (Json.to_string envelope)

let result_of = function
  | Protocol.Answered { result; _ } -> result
  | Protocol.Refused { message; _ } ->
    Alcotest.failf "expected a success envelope, got the refusal %S" message

let error_of = function
  | Protocol.Refused { message; _ } -> message
  | Protocol.Answered { result; _ } ->
    Alcotest.failf "expected an error envelope, got the result %s"
      (Json.to_string result)

let status_of = function
  | Protocol.Refused { status; _ } -> status
  | Protocol.Answered _ -> None

let int_field name doc =
  match Option.bind (Json.member name doc) Json.int_value with
  | Some n -> n
  | None -> Alcotest.failf "missing int field %S in %s" name (Json.to_string doc)

let bool_field name doc =
  match Json.member name doc with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "missing bool field %S" name

(* --- Protocol ------------------------------------------------------------ *)

let test_protocol_round_trip () =
  let cases =
    [ (Protocol.Eval { workload = "clamp"; state = 0; input = 3 }, None);
      (Protocol.Run { id = "EQ4"; retries = 2 }, Some 5.);
      (Protocol.Sample
         { workloads = [ "clamp"; "fir" ]; seed = Some 7; samples = Some 64;
           confidence = Some 0.9 },
       None);
      (Protocol.Sample
         { workloads = []; seed = None; samples = None; confidence = None },
       Some 0.25);
      (Protocol.Lint { workloads = [ "clamp" ] }, None);
      (Protocol.Certify { workloads = [ "clamp"; "fir" ] }, None);
      (Protocol.Certify { workloads = [] }, None);
      (Protocol.Compare
         { baseline = Json.Obj [ ("version", Json.Int 2) ];
           current = Json.Obj [ ("version", Json.Int 2) ];
           tolerance = Some 25. },
       None);
      (Protocol.Stats, None);
      (Protocol.Shutdown, None) ]
  in
  List.iter
    (fun (req, deadline_s) ->
       match Protocol.request_of_json (Protocol.request_to_json ?deadline_s req)
       with
       | Ok parsed ->
         Alcotest.(check bool)
           ("round trip " ^ Protocol.op_name req)
           true
           (parsed = (req, deadline_s))
       | Error message ->
         Alcotest.failf "%s rejected: %s" (Protocol.op_name req) message)
    cases

let test_protocol_rejects () =
  List.iter
    (fun (label, line) ->
       match
         Result.bind (Json.parse line) (fun json ->
             Protocol.request_of_json json)
       with
       | Ok _ -> Alcotest.failf "%s: accepted %s" label line
       | Error _ -> ())
    [ ("unknown op", {|{"op":"frobnicate"}|});
      ("missing op", {|{"workload":"clamp"}|});
      ("non-object", {|[1,2]|});
      ("eval missing input", {|{"op":"eval","workload":"clamp","state":0}|});
      ("eval non-int state",
       {|{"op":"eval","workload":"clamp","state":"q0","input":0}|});
      ("run missing id", {|{"op":"run"}|});
      ("negative retries", {|{"op":"run","id":"EQ4","retries":-1}|});
      ("zero deadline", {|{"op":"stats","deadline":0}|});
      ("negative deadline", {|{"op":"stats","deadline":-2.5}|});
      ("workloads not strings", {|{"op":"lint","workloads":[1]}|});
      ("certify workloads not strings", {|{"op":"certify","workloads":[1]}|});
      ("compare missing current", {|{"op":"compare","baseline":{}}|});
      ("negative tolerance",
       {|{"op":"compare","baseline":{},"current":{},"tolerance":-1}|}) ]

(* Every envelope the daemon writes reads back as the reply it stands
   for, and a document without a boolean "ok" is no envelope at all. *)
let test_reply_of_json () =
  let result = Json.Obj [ ("n", Json.Int 1) ] in
  let timed_out =
    Protocol.error ~op:"sample"
      ~fields:
        [ ("status", Json.String "timed_out"); ("after_s", Json.Float 0.5) ]
      "timed_out"
  in
  List.iter
    (fun (label, envelope, expected) ->
       match Protocol.reply_of_json envelope with
       | Ok reply -> Alcotest.(check bool) label true (reply = expected)
       | Error message -> Alcotest.failf "%s: %s" label message)
    [ ("ok", Protocol.ok ~op:"eval" result,
       Protocol.Answered { op = Some "eval"; result });
      ("error with op", Protocol.error ~op:"run" "boom",
       Protocol.Refused { message = "boom"; status = None });
      ("error without op", Protocol.error "parse error: x",
       Protocol.Refused { message = "parse error: x"; status = None });
      ("timed out", timed_out,
       Protocol.Refused { message = "timed_out"; status = Some "timed_out" });
      ("overloaded", Protocol.overloaded ~conns:1 ~queue:0,
       Protocol.Refused
         { message =
             "overloaded: all 1 connection workers busy and the pending \
              queue (bound 0) is full; retry later";
           status = Some "overloaded" });
      ("oversized", Protocol.oversized ~max_frame:4096,
       Protocol.Refused
         { message =
             "frame exceeds 4096 bytes; request dropped, connection kept";
           status = Some "oversized" }) ];
  List.iter
    (fun line ->
       match Protocol.reply_of_json (Json.parse_exn line) with
       | Ok _ -> Alcotest.failf "read %s as an envelope" line
       | Error message ->
         Alcotest.(check string) line "malformed response envelope" message)
    [ {|{"ok":1}|}; {|{}|}; {|[]|} ]

(* --- Socket sessions ----------------------------------------------------- *)

let test_eval_round_trip () =
  with_daemon (fun _socket client ->
      let result =
        result_of
          (request client
             (Protocol.Eval { workload = "clamp"; state = 0; input = 1 }))
      in
      Alcotest.(check (option string)) "schema"
        (Some "predlab/serve-eval")
        (Option.bind (Json.member "schema" result) Json.string_value);
      Alcotest.(check bool) "positive time" true
        (int_field "time_cycles" result > 0);
      Alcotest.(check bool) "first evaluation is a miss" false
        (bool_field "cached" result);
      (* The daemon must agree with the interpreter ground truth. *)
      let w = Isa.Workload.find "clamp" in
      let program, _ = Isa.Workload.program w in
      let states = Predictability.Harness.inorder_states program w in
      let inputs =
        Prelude.Listx.take Predictability.Sampled.input_cap
          w.Isa.Workload.inputs
      in
      let exact =
        Pipeline.Inorder.time program (List.nth states 0) (List.nth inputs 1)
      in
      Alcotest.(check int) "matches the interpreter" exact
        (int_field "time_cycles" result))

(* [Client.call] is one round trip on a connection of its own: a success
   is [Answered], a request error [Refused] with its status, and a socket
   with no daemon an [Error] that names the path. *)
let test_client_call () =
  with_daemon (fun socket _client ->
      (match
         Client.call ~timeout_s:5. socket
           (Protocol.request_to_json Protocol.Stats)
       with
       | Ok (Protocol.Answered { op; result }) ->
         Alcotest.(check (option string)) "op echoed" (Some "stats") op;
         Alcotest.(check (option string)) "stats document"
           (Some "predlab/serve-stats")
           (Option.bind (Json.member "schema" result) Json.string_value)
       | Ok (Protocol.Refused { message; _ }) ->
         Alcotest.failf "stats refused: %s" message
       | Error message -> Alcotest.failf "stats call failed: %s" message);
      match
        Client.call ~timeout_s:5. socket
          (Protocol.request_to_json
             (Protocol.Eval { workload = "no_such"; state = 0; input = 0 }))
      with
      | Ok (Protocol.Refused { status; _ }) ->
        Alcotest.(check (option string)) "usage status" (Some "usage") status
      | Ok (Protocol.Answered _) -> Alcotest.fail "unknown workload answered"
      | Error message -> Alcotest.failf "eval call failed: %s" message);
  let missing = temp_socket () in
  match Client.call missing (Protocol.request_to_json Protocol.Stats) with
  | Error message ->
    Alcotest.(check bool)
      ("names the path: " ^ message)
      true
      (String.starts_with ~prefix:missing message)
  | Ok _ -> Alcotest.fail "a socket with no daemon answered"

(* The memo answers a repeated cell, and it never outgrows the grid an
   eval addresses: after one sweep of every (state, input) of clamp the
   engine holds at most states x inputs cells, and a second sweep hits on
   every cell and adds none. *)
let test_memo_hit_on_repeat () =
  with_daemon (fun _socket client ->
      let eval state input =
        result_of
          (request client (Protocol.Eval { workload = "clamp"; state; input }))
      in
      let first = eval 1 2 in
      let second = eval 1 2 in
      Alcotest.(check (pair bool bool)) "miss then hit" (false, true)
        (bool_field "cached" first, bool_field "cached" second);
      Alcotest.(check int) "same answer"
        (int_field "time_cycles" first)
        (int_field "time_cycles" second);
      let clamp_engine () =
        let stats = result_of (request client Protocol.Stats) in
        match Json.member "engines" stats with
        | Some (Json.List [ engine ]) -> (stats, engine)
        | _ -> Alcotest.failf "expected one engine: %s" (Json.to_string stats)
      in
      let _, engine = clamp_engine () in
      let states = int_field "states" engine
      and inputs = int_field "inputs" engine in
      let sweep () =
        List.concat_map
          (fun q -> List.init inputs (fun i -> bool_field "cached" (eval q i)))
          (List.init states Fun.id)
      in
      ignore (sweep ());
      let _, engine = clamp_engine () in
      let cells = int_field "memo_cells" engine in
      Alcotest.(check bool)
        (Printf.sprintf "1 <= %d memo cells <= %d x %d" cells states inputs)
        true
        (cells >= 1 && cells <= states * inputs);
      let cached = sweep () in
      Alcotest.(check int) "every second-sweep eval is a hit"
        (states * inputs)
        (List.length (List.filter Fun.id cached));
      let stats, engine = clamp_engine () in
      Alcotest.(check int) "second sweep adds no cell" cells
        (int_field "memo_cells" engine);
      Alcotest.(check bool) "stats counted the hit" true
        (int_field "memo_hits" stats >= 1);
      Alcotest.(check bool) "stats counted the miss" true
        (int_field "memo_misses" stats >= 1);
      Alcotest.(check int) "daemon memo is the engine's" cells
        (int_field "memo_cells" stats);
      Alcotest.(check int) "stats version" 3 (int_field "version" stats);
      Alcotest.(check (list string)) "stats fields (version 3)"
        [ "schema"; "version"; "uptime_s"; "jobs"; "conns"; "queue_bound";
          "served"; "errors"; "in_flight"; "active_connections";
          "queue_depth"; "shed"; "reaped_idle"; "oversized_frames";
          "fd_errors"; "draining"; "memo_hits"; "memo_misses"; "evals";
          "cells"; "memo_cells"; "engines" ]
        (match stats with
         | Json.Obj fields -> List.map fst fields
         | _ -> Alcotest.fail "stats is not an object");
      Alcotest.(check int) "no errors" 0 (int_field "errors" stats))

(* The daemon's certify result must be the exact document the one-shot
   CLI builds — both go through Certifier.report_to_json, so equality is
   by construction; this test pins the construction. *)
let test_certify_matches_cli_document () =
  with_daemon (fun _socket client ->
      let result =
        result_of (request client (Protocol.Certify { workloads = [ "clamp" ] }))
      in
      let expected =
        Predictability.Certifier.report_to_json
          [ Predictability.Certifier.row (Isa.Workload.find "clamp") ]
      in
      Alcotest.(check string) "same bytes as the CLI constructor"
        (Json.to_string expected) (Json.to_string result);
      Alcotest.(check (option string)) "schema" (Some "predlab/certify")
        (Option.bind (Json.member "schema" result) Json.string_value))

(* Timing fields ("elapsed_s", "wall_s", ...) are the only part of a
   document two runs of the same op may disagree on. *)
let rec without_timings = function
  | Json.Obj fields ->
    Json.Obj
      (List.filter_map
         (fun (k, v) ->
            if String.ends_with ~suffix:"_s" k then None
            else Some (k, without_timings v))
         fields)
  | Json.List items -> Json.List (List.map without_timings items)
  | j -> j

(* Every shared op of the table, sent over the socket: the daemon's
   result rendered by the entry must be the bytes of the document the
   one-shot CLI's library calls build (run modulo timings), with the same
   exit class. *)
let test_shared_ops_match_cli_documents () =
  let report_path = Filename.temp_file "predlab-test-report" ".json" in
  let report =
    let results, elapsed_s =
      Predictability.Harness.elapsed (fun () ->
          Predictability.Experiments.run_supervised ~jobs:2
            ~supervision:Predictability.Experiments.default_supervision
            ~entries:
              [ Result.get_ok (Predictability.Experiments.lookup "EQ4") ]
            ())
    in
    Predictability.Experiments.supervised_to_json ~jobs:2 ~elapsed_s results
  in
  Out_channel.with_open_bin report_path (fun oc ->
      Out_channel.output_string oc (Json.to_string report));
  let flags =
    { Ops.retries = 0; seed = None; samples = None; confidence = None;
      tolerance = None }
  in
  (* op -> positional arguments, the CLI document, its exit class and
     whether the CLI prints it with a trailing blank line. *)
  let cases =
    [ ("run", [ "EQ4" ], report, false);
      ("sample", [ "clamp" ],
       Predictability.Sampled.report_to_json ~jobs:2
         [ Predictability.Sampled.analyze ~jobs:2
             ~spec:Sampling.Sampler.default ~cross_check:false
             ("clamp", List.assoc "clamp" Isa.Workload.registry) ],
       true);
      ("lint", [ "clamp" ],
       Dataflow.Lint.report_to_json
         [ ("clamp", Dataflow.Lint.check_workload (Isa.Workload.find "clamp")) ],
       true);
      ("certify", [ "clamp" ],
       Predictability.Certifier.report_to_json
         [ Predictability.Certifier.row (Isa.Workload.find "clamp") ],
       true);
      ("compare", [ report_path; report_path ],
       Ops.compare_doc
         (Predictability.Regression.compare_reports ~baseline:report
            ~current:report ()),
       false) ]
  in
  Fun.protect ~finally:(fun () -> Sys.remove report_path) (fun () ->
      with_daemon (fun _socket client ->
          Alcotest.(check (list string)) "one case per table entry"
            (List.map (fun e -> e.Ops.name) Ops.table)
            (List.map (fun (name, _, _, _) -> name) cases);
          List.iter
            (fun (name, args, cli, newline) ->
               let entry = Option.get (Ops.find name) in
               let served =
                 result_of
                   (request client (Option.get (entry.Ops.request flags args)))
               in
               let bytes doc = Ops.render entry (without_timings doc) in
               Alcotest.(check string) (name ^ ": same bytes as the CLI")
                 (bytes cli) (bytes served);
               Alcotest.(check bool) (name ^ ": trailing newline") newline
                 entry.Ops.newline;
               Alcotest.(check (pair int int)) (name ^ ": exit class")
                 (0, 0)
                 (entry.Ops.exit_code cli, entry.Ops.exit_code served))
            cases))

(* The daemon answers a fixed-seed sample request with the same bytes no
   matter how many worker domains it was started with (the report's own
   [jobs] echo aside) — the serve-side twin of the CLI's cross-jobs
   determinism guarantee. *)
let test_sample_bit_identical_across_jobs () =
  let sample_with jobs =
    with_daemon ~jobs (fun _socket client ->
        let result =
          result_of
            (request client
               (Protocol.Sample
                  { workloads = [ "clamp" ]; seed = Some 11;
                    samples = Some 48; confidence = None }))
        in
        match result with
        | Json.Obj fields ->
          Json.to_string
            (Json.Obj (List.filter (fun (k, _) -> k <> "jobs") fields))
        | j -> Alcotest.failf "sample result not an object: %s" (Json.to_string j))
  in
  let at1 = sample_with 1 in
  let at2 = sample_with 2 in
  let at4 = sample_with 4 in
  Alcotest.(check string) "jobs 1 = jobs 2" at1 at2;
  Alcotest.(check string) "jobs 2 = jobs 4" at2 at4

let test_deadline_times_out_not_daemon () =
  with_daemon (fun _socket client ->
      (* A sample over the whole registry cannot finish in a microsecond;
         the overrun must come back as a timed_out error envelope... *)
      let response =
        request ~deadline_s:1e-6 client
          (Protocol.Sample
             { workloads = []; seed = None; samples = None; confidence = None })
      in
      Alcotest.(check string) "timed_out error" "timed_out"
        (error_of response);
      Alcotest.(check (option string)) "status field" (Some "timed_out")
        (status_of response);
      (* ...while the daemon and even this connection keep serving. *)
      let result =
        result_of
          (request client
             (Protocol.Eval { workload = "clamp"; state = 0; input = 0 }))
      in
      Alcotest.(check bool) "daemon still answers" true
        (int_field "time_cycles" result > 0);
      let stats = result_of (request client Protocol.Stats) in
      Alcotest.(check bool) "error was counted" true
        (int_field "errors" stats >= 1))

let test_run_deadline_classified_by_supervisor () =
  with_daemon (fun _socket client ->
      (* For the run op the budget goes to the experiment supervisor: the
         response is still a success envelope and the report inside
         classifies the experiment as timed_out, exactly like the one-shot
         `predlab run --deadline`. *)
      let result =
        result_of
          (request ~deadline_s:1e-6 client
             (Protocol.Run { id = "EQ4"; retries = 0 }))
      in
      Alcotest.(check (option string)) "report schema"
        (Some "predlab/report")
        (Option.bind (Json.member "schema" result) Json.string_value);
      Alcotest.(check int) "experiment timed out" 1
        (int_field "timed_out" result);
      let again =
        result_of (request client (Protocol.Run { id = "EQ4"; retries = 0 }))
      in
      Alcotest.(check int) "same experiment passes without the deadline" 1
        (int_field "experiments_passed" again))

let test_compare_gates_reports () =
  with_daemon (fun _socket client ->
      (* Use the daemon's own run output as the document under test: a
         report compared against itself passes the regression gate... *)
      let report =
        result_of (request client (Protocol.Run { id = "EQ4"; retries = 0 }))
      in
      let compare_docs baseline current =
        result_of
          (request client
             (Protocol.Compare { baseline; current; tolerance = None }))
      in
      let same = compare_docs report report in
      Alcotest.(check (option string)) "schema"
        (Some "predlab/serve-compare")
        (Option.bind (Json.member "schema" same) Json.string_value);
      Alcotest.(check bool) "self-compare passes" true
        (bool_field "passed" same);
      (* ...while a current report that dropped the experiment fails it
         with a missing finding. *)
      let emptied =
        match report with
        | Json.Obj fields ->
          Json.Obj
            (List.map
               (fun (k, v) ->
                  if k = "experiments" then (k, Json.List []) else (k, v))
               fields)
        | j ->
          Alcotest.failf "report not an object: %s" (Json.to_string j)
      in
      let gated = compare_docs report emptied in
      Alcotest.(check bool) "dropped experiment fails the gate" false
        (bool_field "passed" gated);
      let kinds =
        match Json.member "findings" gated with
        | Some (Json.List findings) ->
          List.filter_map
            (fun f -> Option.bind (Json.member "kind" f) Json.string_value)
            findings
        | _ -> []
      in
      Alcotest.(check bool) "finding kind is missing" true
        (List.mem "missing" kinds))

let test_malformed_line_keeps_connection () =
  with_daemon (fun socket client ->
      (* The daemon serves one connection at a time; release the fixture
         client's so the accept loop can take ours. *)
      Client.close client;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () -> try close_out oc with Sys_error _ -> ())
        (fun () ->
           Unix.connect fd (Unix.ADDR_UNIX socket);
           output_string oc "{this is not json\n";
           flush oc;
           let first = reply_of (Json.parse_exn (input_line ic)) in
           let message = error_of first in
           Alcotest.(check bool)
             ("parse error reported: " ^ message)
             true
             (String.length message >= 11
              && String.sub message 0 11 = "parse error");
           (* Same connection, next line: still served. *)
           output_string oc "{\"op\":\"stats\"}\n";
           flush oc;
           let second = reply_of (Json.parse_exn (input_line ic)) in
           Alcotest.(check bool) "connection survived the bad line" true
             (int_field "served" (result_of second) >= 0)))

(* A second Client.close must not close whatever socket got the client's
   descriptor number in between (POSIX hands out the lowest free number).
   A bare listening socket stands in for the daemon, so nothing else
   allocates descriptors between the two closes. *)
let test_client_close_spares_reused_fd () =
  let socket = temp_socket () in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
        Unix.close listener;
        try Sys.remove socket with Sys_error _ -> ())
    (fun () ->
       Unix.bind listener (Unix.ADDR_UNIX socket);
       Unix.listen listener 1;
       match Client.connect socket with
       | Error message -> Alcotest.failf "cannot connect: %s" message
       | Ok client ->
         Client.close client;
         let fresh = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         Fun.protect
           ~finally:(fun () ->
               try Unix.close fresh with Unix.Unix_error _ -> ())
           (fun () ->
              Client.close client;
              match Unix.fstat fresh with
              | _ -> ()
              | exception Unix.Unix_error (error, _, _) ->
                Alcotest.failf "second close shut the new socket: %s"
                  (Unix.error_message error)))

let test_unknown_workload_is_request_error () =
  with_daemon (fun _socket client ->
      let response =
        request client
          (Protocol.Eval { workload = "no_such"; state = 0; input = 0 })
      in
      let message = error_of response in
      Alcotest.(check bool)
        ("message names the workload: " ^ message)
        true
        (String.length message > 0);
      (* Out-of-range cell indexes are request errors too. *)
      let response =
        request client
          (Protocol.Eval { workload = "clamp"; state = 999; input = 0 })
      in
      ignore (error_of response);
      let stats = result_of (request client Protocol.Stats) in
      Alcotest.(check int) "both errors counted" 2 (int_field "errors" stats))

(* An unknown experiment id or workload name is a usage error wherever it
   arrives: the envelope carries status "usage", which query maps to exit
   2 like the one-shot CLI. Transport-level errors keep their own class. *)
let test_unknown_name_is_usage_error () =
  with_daemon (fun _socket client ->
      List.iter
        (fun req ->
           let response = request client req in
           ignore (error_of response);
           Alcotest.(check (option string))
             (Protocol.op_name req ^ ": usage status")
             (Some "usage") (status_of response);
           Alcotest.(check int) (Protocol.op_name req ^ ": exit 2") 2
             (Ops.error_exit (status_of response)))
        [ Protocol.Run { id = "NOSUCH"; retries = 0 };
          Protocol.Sample
            { workloads = [ "no_such" ]; seed = None; samples = None;
              confidence = None };
          Protocol.Lint { workloads = [ "clamp"; "no_such" ] };
          Protocol.Certify { workloads = [ "no_such" ] };
          Protocol.Eval { workload = "no_such"; state = 0; input = 0 } ]);
  let exit_of envelope = Ops.error_exit (status_of (reply_of envelope)) in
  Alcotest.(check int) "oversized frame stays exit 1" 1
    (exit_of (Protocol.oversized ~max_frame:4096));
  Alcotest.(check int) "overloaded is exit 5" 5
    (exit_of (Protocol.overloaded ~conns:1 ~queue:0))

(* `query lint` reads the document's error count like `predlab lint`. *)
let test_lint_exit_class () =
  let doc name program =
    Dataflow.Lint.report_to_json [ (name, Dataflow.Lint.check_program program) ]
  in
  Alcotest.(check int) "dirty fixture exits 1" 1
    (Ops.lint.Ops.exit_code (doc "dirty" (Dataflow.Fixtures.dirty ())));
  Alcotest.(check int) "clean fixture exits 0" 0
    (Ops.lint.Ops.exit_code (doc "clean" (fst (Dataflow.Fixtures.clean ()))))

let test_busy_socket_refused () =
  with_daemon (fun socket _client ->
      let config = daemon_config ~jobs:1 ~conns:1 socket in
      match Daemon.start config with
      | second ->
        Daemon.stop second;
        Alcotest.fail "second daemon bound the same live socket"
      | exception Daemon.Busy _ -> ())

let test_stale_socket_reclaimed () =
  (* A killed daemon leaves its socket file behind; a fresh daemon must
     probe it, find no listener, and reclaim the path. *)
  let socket = temp_socket () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.close fd;
  Alcotest.(check bool) "stale file exists" true (Sys.file_exists socket);
  with_daemon ~socket (fun _socket client ->
      let stats = result_of (request client Protocol.Stats) in
      Alcotest.(check bool) "daemon reclaimed the stale path" true
        (int_field "served" stats >= 0));
  Alcotest.(check bool) "socket removed on shutdown" false
    (Sys.file_exists socket)

let test_shutdown_unlinks_socket () =
  with_daemon (fun socket client ->
      let result = result_of (request client Protocol.Shutdown) in
      Alcotest.(check bool) "acknowledged" true (bool_field "stopping" result);
      (* The daemon unlinks the socket as it exits; poll briefly. *)
      let rec wait tries =
        if Sys.file_exists socket && tries > 0 then begin
          Prelude.Mono.sleep 0.01;
          wait (tries - 1)
        end
      in
      wait 200;
      Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket))

(* --- Concurrency --------------------------------------------------------- *)

(* N clients at once against a --conns 4 pool: every certify response must
   be byte-identical to the document the one-shot CLI constructs — worker
   domains share the engine table but never each other's responses. *)
let test_concurrent_clients_byte_identical () =
  with_daemon ~conns:4 (fun socket _client ->
      let names = [ "clamp"; "fir"; "clamp"; "fir" ] in
      let outcomes =
        List.map
          (fun name ->
             Domain.spawn (fun () ->
                 match Client.connect socket with
                 | Error m -> Error m
                 | Ok c ->
                   Fun.protect
                     ~finally:(fun () -> Client.close c)
                     (fun () ->
                        match
                          Client.reply ~timeout_s:30. c
                            (Protocol.request_to_json
                               (Protocol.Certify { workloads = [ name ] }))
                        with
                        | Error e -> Error (Client.error_message e)
                        | Ok response ->
                          Ok (name, Json.to_string (result_of response)))))
          names
        |> List.map Domain.join
      in
      List.iter
        (fun outcome ->
           match outcome with
           | Error m -> Alcotest.failf "concurrent client failed: %s" m
           | Ok (name, got) ->
             let expected =
               Json.to_string
                 (Predictability.Certifier.report_to_json
                    [ Predictability.Certifier.row (Isa.Workload.find name) ])
             in
             Alcotest.(check string)
               ("byte-identical to the CLI document for " ^ name)
               expected got)
        outcomes)

(* conns=1, queue=0: while one client owns the only worker, a second
   connection must be shed with the structured overloaded envelope and
   counted exactly once. *)
let test_overload_sheds_with_envelope () =
  with_daemon ~conns:1 ~queue:0 (fun socket client ->
      (* A finished round trip proves the worker owns our connection. *)
      ignore (result_of (request client Protocol.Stats));
      (match Client.connect socket with
       | Error m -> Alcotest.failf "shed connect failed: %s" m
       | Ok shed ->
         Fun.protect
           ~finally:(fun () -> Client.close shed)
           (fun () ->
              match Client.recv ~timeout_s:5. shed with
              | Error e ->
                Alcotest.failf "no shed envelope: %s" (Client.error_message e)
              | Ok response ->
                Alcotest.(check (option string)) "overloaded status"
                  (Some "overloaded")
                  (Option.bind (Json.member "status" response)
                     Json.string_value);
                Alcotest.(check bool) "error envelope" false
                  (match Json.member "ok" response with
                   | Some (Json.Bool b) -> b
                   | _ -> true)));
      let stats = result_of (request client Protocol.Stats) in
      Alcotest.(check int) "shed counted exactly once" 1
        (int_field "shed" stats))

(* A frame over --max-frame costs one oversized envelope; the same
   connection then serves the next request. *)
let test_oversized_frame_survives_connection () =
  with_daemon ~max_frame:1024 (fun socket client ->
      Client.close client;
      match Client.connect ~max_frame:1024 socket with
      | Error m -> Alcotest.failf "connect failed: %s" m
      | Ok c ->
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
             (match Client.send c (Json.String (String.make 2048 'x')) with
              | Ok () -> ()
              | Error e ->
                Alcotest.failf "send failed: %s" (Client.error_message e));
             (match Client.recv ~timeout_s:5. c with
              | Error e ->
                Alcotest.failf "no oversized envelope: %s"
                  (Client.error_message e)
              | Ok response ->
                Alcotest.(check (option string)) "oversized status"
                  (Some "oversized")
                  (Option.bind (Json.member "status" response)
                     Json.string_value);
                Alcotest.(check (option int)) "names the cap" (Some 1024)
                  (Option.bind (Json.member "max_frame" response)
                     Json.int_value));
             (* Same connection, next request: still served. *)
             match
               Client.reply ~timeout_s:5. c
                 (Protocol.request_to_json Protocol.Stats)
             with
             | Error e ->
               Alcotest.failf "connection did not survive: %s"
                 (Client.error_message e)
             | Ok response ->
               let stats = result_of response in
               Alcotest.(check int) "oversized frame counted" 1
                 (int_field "oversized_frames" stats)))

(* A wedged half-frame connection is reaped on the idle deadline while a
   live sibling on another worker keeps its own (longer) session. *)
let test_idle_reap_spares_live_sibling () =
  with_daemon ~conns:2 ~idle_s:(Some 0.3) (fun socket client ->
      let wedged = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Prelude.Lineio.close wedged)
        (fun () ->
           Unix.connect wedged (Unix.ADDR_UNIX socket);
           ignore (Unix.write_substring wedged "{\"op\":\"st" 0 9);
           (* The sibling stays busy past the idle deadline by making
              round trips; it must never be reaped. *)
           let deadline = Prelude.Mono.now () +. (0.3 *. 3.) in
           while Prelude.Mono.now () < deadline do
             ignore (result_of (request client Protocol.Stats));
             Prelude.Mono.sleep 0.05
           done;
           let stats = result_of (request client Protocol.Stats) in
           Alcotest.(check int) "wedged connection reaped exactly once" 1
             (int_field "reaped_idle" stats)))

(* SIGTERM-equivalent drain: a shutdown request finishes the in-flight
   work, stops accepting, and unlinks the socket. *)
let test_drain_finishes_in_flight_and_unlinks () =
  let socket = temp_socket () in
  let config = daemon_config ~conns:2 ~drain_s:5. socket in
  let daemon = Daemon.start config in
  (match Client.connect socket with
   | Error m -> Alcotest.failf "connect failed: %s" m
   | Ok c ->
     Fun.protect
       ~finally:(fun () -> Client.close c)
       (fun () ->
          (* In-flight request on one connection... *)
          match
            Client.reply ~timeout_s:30. c
              (Protocol.request_to_json
                 (Protocol.Certify { workloads = [ "clamp" ] }))
          with
          | Error e ->
            Alcotest.failf "in-flight request failed: %s"
              (Client.error_message e)
          | Ok response ->
            ignore (result_of response);
            (* ...then shutdown from a second connection: the daemon must
               acknowledge, drain, and unlink. *)
            (match Client.connect socket with
             | Error m -> Alcotest.failf "shutdown connect failed: %s" m
             | Ok s ->
               Fun.protect
                 ~finally:(fun () -> Client.close s)
                 (fun () ->
                    match
                      Client.reply ~timeout_s:5. s
                        (Protocol.request_to_json Protocol.Shutdown)
                    with
                    | Error e ->
                      Alcotest.failf "shutdown failed: %s"
                        (Client.error_message e)
                    | Ok response ->
                      Alcotest.(check bool) "acknowledged" true
                        (bool_field "stopping" (result_of response))))));
  Daemon.stop daemon;
  Alcotest.(check bool) "socket unlinked after drain" false
    (Sys.file_exists socket)

(* --- Lifecycle ------------------------------------------------------------ *)

(* [start] listens before it returns: a connect with no retry succeeds at
   once. *)
let test_start_listens_on_return () =
  let socket = temp_socket () in
  let daemon = Daemon.start (daemon_config socket) in
  Fun.protect ~finally:(fun () -> Daemon.stop daemon) (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Prelude.Lineio.close fd) (fun () ->
          match Unix.connect fd (Unix.ADDR_UNIX socket) with
          | () -> ()
          | exception Unix.Unix_error (error, _, _) ->
            Alcotest.failf "connect right after start: %s"
              (Unix.error_message error)))

(* An in-process daemon serves beside its caller's own work, so [start]
   must leave SIGINT and SIGTERM as it found them: Ctrl-C stops the
   caller, not the daemon. *)
let test_start_keeps_signal_dispositions () =
  let disposition signum =
    let current = Sys.signal signum Sys.Signal_default in
    Sys.set_signal signum current;
    current
  in
  let same a b =
    match (a, b) with
    | Sys.Signal_default, Sys.Signal_default
    | Sys.Signal_ignore, Sys.Signal_ignore -> true
    | Sys.Signal_handle f, Sys.Signal_handle g -> f == g
    | _ -> false
  in
  let signals = [ ("SIGINT", Sys.sigint); ("SIGTERM", Sys.sigterm) ] in
  let before = List.map (fun (_, signum) -> disposition signum) signals in
  with_daemon (fun _socket client ->
      (* A finished round trip proves the daemon is serving. *)
      ignore (result_of (request client Protocol.Stats));
      List.iter2
        (fun (name, signum) old ->
           Alcotest.(check bool) (name ^ " left as it was") true
             (same old (disposition signum)))
        signals before)

let () =
  Alcotest.run "serve"
    [ ("protocol",
       [ Alcotest.test_case "request round trip" `Quick
           test_protocol_round_trip;
         Alcotest.test_case "malformed requests rejected" `Quick
           test_protocol_rejects;
         Alcotest.test_case "reply_of_json reads every daemon envelope" `Quick
           test_reply_of_json ]);
      ("session",
       [ Alcotest.test_case "eval round trip" `Quick test_eval_round_trip;
         Alcotest.test_case "memo hit on repeated cell" `Quick
           test_memo_hit_on_repeat;
         Alcotest.test_case "certify matches the CLI document" `Quick
           test_certify_matches_cli_document;
         Alcotest.test_case "sample bit-identical across jobs 1/2/4" `Slow
           test_sample_bit_identical_across_jobs;
         Alcotest.test_case "deadline times out request, not daemon" `Quick
           test_deadline_times_out_not_daemon;
         Alcotest.test_case "run deadline classified by supervisor" `Quick
           test_run_deadline_classified_by_supervisor;
         Alcotest.test_case "compare gates two report documents" `Quick
           test_compare_gates_reports;
         Alcotest.test_case "every shared op matches the CLI document" `Quick
           test_shared_ops_match_cli_documents;
         Alcotest.test_case "Client.call is one round trip" `Quick
           test_client_call ]);
      ("robustness",
       [ Alcotest.test_case "malformed line keeps the connection" `Quick
           test_malformed_line_keeps_connection;
         Alcotest.test_case "client close spares a reused descriptor" `Quick
           test_client_close_spares_reused_fd;
         Alcotest.test_case "unknown workload is a request error" `Quick
           test_unknown_workload_is_request_error;
         Alcotest.test_case "unknown name is a usage error" `Quick
           test_unknown_name_is_usage_error;
         Alcotest.test_case "lint exit class reads the error count" `Quick
           test_lint_exit_class;
         Alcotest.test_case "live socket refused as busy" `Quick
           test_busy_socket_refused;
         Alcotest.test_case "stale socket reclaimed" `Quick
           test_stale_socket_reclaimed;
         Alcotest.test_case "shutdown unlinks the socket" `Quick
           test_shutdown_unlinks_socket ]);
      ("concurrency",
       [ Alcotest.test_case "concurrent clients byte-identical" `Slow
           test_concurrent_clients_byte_identical;
         Alcotest.test_case "overload sheds with the envelope" `Quick
           test_overload_sheds_with_envelope;
         Alcotest.test_case "oversized frame survives the connection" `Quick
           test_oversized_frame_survives_connection;
         Alcotest.test_case "idle reap spares a live sibling" `Quick
           test_idle_reap_spares_live_sibling;
         Alcotest.test_case "drain finishes in-flight and unlinks" `Quick
           test_drain_finishes_in_flight_and_unlinks ]);
      ("lifecycle",
       [ Alcotest.test_case "start listens before it returns" `Quick
           test_start_listens_on_return;
         Alcotest.test_case "start leaves SIGINT and SIGTERM alone" `Quick
           test_start_keeps_signal_dispositions ]) ]
