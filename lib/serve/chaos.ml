module Json = Prelude.Json
module Faults = Prelude.Faults
module Lineio = Prelude.Lineio
module Rng = Prelude.Rng

type violation = {
  subject : string;
  detail : string;
}

type counts = {
  shed : int;
  reaped_idle : int;
  oversized_frames : int;
}

type verdict = {
  seed : int;
  plan : Faults.site list;
  edge : counts;
  backpressure_shed : int;
  fault_ok : int;
  fault_attempts : int;
  violations : violation list;
}

let sites = [ "serve.accept"; "serve.read"; "serve.write" ]

let temp_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "predlab-serve-chaos-%d-%d.sock" (Unix.getpid ()) !n)

(* The daemon under test runs in-process on its own domain — same binary,
   same engines, real sockets — and is listening when [start] returns.
   Nothing is swallowed: a raise from [start] or [stop] is the campaign's
   headline violation, and so is a close, anywhere in the process, that
   found its descriptor already closed. *)
let with_daemon config f =
  let died exn =
    { subject = "daemon"; detail = "daemon died: " ^ Printexc.to_string exn }
  in
  let bad_closes = Lineio.bad_closes () in
  match Daemon.start config with
  | exception exn -> [ died exn ]
  | daemon ->
    let body =
      match f () with
      | violations -> violations
      | exception exn ->
        [ { subject = "campaign";
            detail = "driver raised " ^ Printexc.to_string exn } ]
    in
    let body =
      match Daemon.stop daemon with
      | () -> body
      | exception exn -> died exn :: body
    in
    match Lineio.bad_closes () - bad_closes with
    | 0 -> body
    | n ->
      body
      @ [ { subject = "fd_errors";
            detail =
              Printf.sprintf "%d close(s) found the descriptor already closed"
                n } ]

(* --- Raw-socket clients (the adversarial ones) --------------------------- *)

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Ok fd
  | exception exn ->
    Lineio.close fd;
    Error (Printexc.to_string exn)

let write_raw fd s =
  let len = String.length s in
  let rec go off =
    if off >= len then Ok ()
    else
      match Unix.write_substring fd s off (len - off) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> Error "peer closed"
      | n -> go (off + n)
  in
  go 0

(* A raw probe's response line, read as [Protocol] reads an envelope. *)
let reply_of_line line = Result.bind (Json.parse line) Protocol.reply_of_json

let answered line =
  match reply_of_line line with Ok (Protocol.Answered _) -> true | _ -> false

let status_of line =
  match reply_of_line line with
  | Ok (Protocol.Refused { status; _ }) -> status
  | _ -> None

let stats_request = Protocol.request_to_json Protocol.Stats

(* The stats document of a reply. A refusal is an error: a healthy daemon
   answers every stats request. *)
let stats_result = function
  | Ok (Protocol.Answered { result; _ }) -> Ok result
  | Ok (Protocol.Refused { message; _ }) -> Error ("stats refused: " ^ message)
  | Error m -> Error m

(* One stats round trip on a connection of its own. *)
let stats_call socket =
  stats_result (Client.call ~timeout_s:5. socket stats_request)

(* --- Phase A: connection edges ------------------------------------------- *)

let edge_idle_s = 0.4
let edge_max_frame = 2048

let edge_config socket =
  { Daemon.socket; jobs = 1; deadline_s = None; conns = 4; queue = 8;
    idle_s = Some edge_idle_s; drain_s = 2.; max_frame = edge_max_frame }

let torn_frame socket =
  match raw_connect socket with
  | Error detail -> [ { subject = "torn-frame"; detail } ]
  | Ok fd ->
    ignore (write_raw fd {|{"op":"stats"|});
    Lineio.close fd;
    []

let disconnect_mid_request socket =
  match raw_connect socket with
  | Error detail -> [ { subject = "disconnect"; detail } ]
  | Ok fd ->
    ignore (write_raw fd ({|{"op":"certify","workloads":["clamp"]}|} ^ "\n"));
    Lineio.close fd;
    []

let slow_writer socket =
  match raw_connect socket with
  | Error detail -> [ { subject = "slow-writer"; detail } ]
  | Ok fd ->
    let line = {|{"op":"stats"}|} ^ "\n" in
    let rec drip i =
      if i >= String.length line then Ok ()
      else
        match write_raw fd (String.make 1 line.[i]) with
        | Error _ as e -> e
        | Ok () ->
          Prelude.Mono.sleep 0.005;
          drip (i + 1)
    in
    let outcome =
      match drip 0 with
      | Error detail -> [ { subject = "slow-writer"; detail } ]
      | Ok () -> (
          let reader = Lineio.reader fd in
          match Lineio.read_line ~idle_s:5. reader with
          | `Line l when answered l -> []
          | `Line l ->
            [ { subject = "slow-writer";
                detail = "dripped request answered with " ^ l } ]
          | _ ->
            [ { subject = "slow-writer";
                detail = "no response to a dripped-but-complete frame" } ])
    in
    Lineio.close fd;
    outcome

(* One frame over the cap must cost exactly one oversized envelope — and
   the *same connection* must serve the next request. *)
let oversized_frame socket =
  match raw_connect socket with
  | Error detail -> [ { subject = "oversized"; detail } ]
  | Ok fd ->
    let reader = Lineio.reader fd in
    let outcome =
      match write_raw fd (String.make (edge_max_frame + 128) 'x' ^ "\n") with
      | Error detail -> [ { subject = "oversized"; detail } ]
      | Ok () -> (
          match Lineio.read_line ~idle_s:5. reader with
          | `Line l when status_of l = Some "oversized" -> (
              match write_raw fd ({|{"op":"stats"}|} ^ "\n") with
              | Error detail ->
                [ { subject = "oversized";
                    detail = "connection lost after the envelope: " ^ detail } ]
              | Ok () -> (
                  match Lineio.read_line ~idle_s:5. reader with
                  | `Line l when answered l -> []
                  | _ ->
                    [ { subject = "oversized";
                        detail = "connection did not survive the frame" } ]))
          | `Line l ->
            [ { subject = "oversized"; detail = "unexpected response " ^ l } ]
          | _ ->
            [ { subject = "oversized"; detail = "no envelope for the frame" } ])
    in
    Lineio.close fd;
    outcome

(* A wedged half-frame client and a well-behaved sibling, concurrently:
   the sibling must complete well inside the idle budget (the wedge holds
   one worker, not the daemon), and the wedge itself must be reaped with
   the idle_timeout notice. *)
let wedged_with_sibling socket =
  match raw_connect socket with
  | Error detail -> [ { subject = "wedged"; detail } ]
  | Ok fd ->
    ignore (write_raw fd {|{"op":"st|});
    let sibling =
      Domain.spawn (fun () ->
          let started = Prelude.Mono.now () in
          Result.map
            (fun _ -> Prelude.Mono.now () -. started)
            (stats_call socket))
    in
    let sibling_outcome =
      match Domain.join sibling with
      | Error detail -> [ { subject = "wedged/sibling"; detail } ]
      | Ok elapsed when elapsed >= edge_idle_s ->
        [ { subject = "wedged/sibling";
            detail =
              Printf.sprintf
                "well-behaved sibling took %.3fs, past the %.1fs idle \
                 deadline" elapsed edge_idle_s } ]
      | Ok _ -> []
    in
    let reader = Lineio.reader fd in
    let reap_outcome =
      match Lineio.read_line ~idle_s:5. reader with
      | `Line l when status_of l = Some "idle_timeout" -> []
      | `Line l ->
        [ { subject = "wedged"; detail = "unexpected reap notice " ^ l } ]
      | `Eof | `Partial _ ->
        (* Reaped without the notice landing — acceptable only if the
           daemon counted it; the final stats check still gates that. *)
        []
      | _ -> [ { subject = "wedged"; detail = "never reaped" } ]
    in
    Lineio.close fd;
    sibling_outcome @ reap_outcome

(* Four concurrent clients, four workers: every response must be the
   exact document the one-shot CLI's --format json path constructs. *)
let concurrent_burst ~rng socket =
  let names = List.map fst Isa.Workload.registry in
  let picks = List.init 4 (fun _ -> Rng.pick rng names) in
  let clients =
    List.map
      (fun name ->
         Domain.spawn (fun () ->
             match
               Client.call ~timeout_s:30. socket
                 (Protocol.request_to_json
                    (Protocol.Certify { workloads = [ name ] }))
             with
             | Error m -> Error m
             | Ok (Protocol.Refused { message; _ }) ->
               Error (Printf.sprintf "certify %s refused: %s" name message)
             | Ok (Protocol.Answered { result; _ }) ->
               let expected =
                 Predictability.Certifier.report_to_json
                   [ Predictability.Certifier.row (Isa.Workload.find name) ]
               in
               if Json.to_string result = Json.to_string expected then Ok ()
               else
                 Error
                   (Printf.sprintf
                      "certify %s diverged from the CLI constructor document"
                      name)))
      picks
  in
  List.concat_map
    (fun d ->
       match Domain.join d with
       | Ok () -> []
       | Error detail -> [ { subject = "burst"; detail } ])
    clients

let final_counts socket =
  Result.map
    (fun stats ->
       let int name =
         Option.value ~default:(-1)
           (Option.bind (Json.member name stats) Json.int_value)
       in
       { shed = int "shed"; reaped_idle = int "reaped_idle";
         oversized_frames = int "oversized_frames" })
    (stats_call socket)

let edge_phase ~rng () =
  let socket = temp_socket () in
  let counts = ref { shed = -1; reaped_idle = -1; oversized_frames = -1 } in
  let violations =
    with_daemon (edge_config socket) (fun () ->
        (* Explicit lets: [@] would evaluate its arguments right to left,
           running the subphases in reverse order. Order is part of the
           contract: the final stats count every earlier subphase. *)
        let torn = torn_frame socket in
        let disc = disconnect_mid_request socket in
        let slow = slow_writer socket in
        let over = oversized_frame socket in
        let burst = concurrent_burst ~rng socket in
        let wedged = wedged_with_sibling socket in
        let steps = torn @ disc @ slow @ over @ burst @ wedged in
        match final_counts socket with
        | Error detail -> steps @ [ { subject = "edge/stats"; detail } ]
        | Ok c ->
          counts := c;
          steps
          @ (if c.reaped_idle = 1 then []
             else
               [ { subject = "edge/stats";
                   detail =
                     Printf.sprintf "expected exactly 1 reaped_idle, got %d"
                       c.reaped_idle } ])
          @ (if c.oversized_frames = 1 then []
             else
               [ { subject = "edge/stats";
                   detail =
                     Printf.sprintf
                       "expected exactly 1 oversized frame, got %d"
                       c.oversized_frames } ])
          @
          if c.shed = 0 then []
          else
            [ { subject = "edge/stats";
                detail =
                  Printf.sprintf "expected 0 shed under capacity, got %d"
                    c.shed } ])
  in
  (!counts, violations)

(* --- Phase B: deterministic shedding ------------------------------------- *)

let backpressure_clients = 3

let backpressure_phase () =
  let socket = temp_socket () in
  let shed_seen = ref (-1) in
  let violations =
    with_daemon
      { Daemon.socket; jobs = 1; deadline_s = None; conns = 1; queue = 0;
        idle_s = Some 10.; drain_s = 2.;
        max_frame = Daemon.default_max_frame }
      (fun () ->
         match Client.connect socket with
         | Error m -> [ { subject = "backpressure"; detail = m } ]
         | Ok holder ->
           Fun.protect
             ~finally:(fun () -> Client.close holder)
             (fun () ->
                let stats () =
                  stats_result
                    (Result.map_error Client.error_message
                       (Client.reply ~timeout_s:5. holder stats_request))
                in
                (* A completed round trip proves the single worker now owns
                   this connection; every later connect must shed. *)
                match stats () with
                | Error detail -> [ { subject = "backpressure"; detail } ]
                | Ok _ ->
                  let sheds =
                    List.init backpressure_clients (fun i ->
                        let subject = Printf.sprintf "backpressure/%d" i in
                        match Client.connect socket with
                        | Error detail -> [ { subject; detail } ]
                        | Ok c ->
                          Fun.protect
                            ~finally:(fun () -> Client.close c)
                            (fun () ->
                               match Client.recv ~timeout_s:5. c with
                               | Ok response -> (
                                   match Protocol.reply_of_json response with
                                   | Ok
                                       (Protocol.Refused
                                          { status = Some "overloaded"; _ }) ->
                                     []
                                   | _ ->
                                     [ { subject;
                                         detail =
                                           "expected the overloaded \
                                            envelope, got "
                                           ^ Json.to_string response } ])
                               | Error e ->
                                 [ { subject;
                                     detail = Client.error_message e } ]))
                  in
                  let shed =
                    match stats () with
                    | Error detail ->
                      [ { subject = "backpressure/stats"; detail } ]
                    | Ok stats -> (
                        match
                          Option.bind (Json.member "shed" stats)
                            Json.int_value
                        with
                        | Some n ->
                          shed_seen := n;
                          if n = backpressure_clients then []
                          else
                            [ { subject = "backpressure/stats";
                                detail =
                                  Printf.sprintf
                                    "expected exactly %d shed, got %d"
                                    backpressure_clients n } ]
                        | None ->
                          [ { subject = "backpressure/stats";
                              detail = "stats without a shed count" } ])
                  in
                  List.concat sheds @ shed))
  in
  (!shed_seen, violations)

(* --- Phase C: armed fault sites ------------------------------------------ *)

let fault_attempts = 6

let fault_phase ~plan () =
  let socket = temp_socket () in
  let ok = ref 0 in
  let violations =
    with_daemon
      { Daemon.socket; jobs = 1; deadline_s = None; conns = 2; queue = 4;
        idle_s = Some 2.; drain_s = 2.;
        max_frame = Daemon.default_max_frame }
      (fun () ->
         Faults.arm plan;
         Fun.protect
           ~finally:(fun () -> Faults.disarm ())
           (fun () ->
              (* Armed sites may cost individual connections or responses;
                 none may cost the daemon. Every attempt is a fresh
                 connection so a dropped one never poisons the next. *)
              for _ = 1 to fault_attempts do
                if Result.is_ok (stats_call socket) then incr ok
              done);
         (* Disarmed, the daemon must answer cleanly — the faults were
            contained, not accumulated. *)
         match stats_call socket with
         | Ok _ -> []
         | Error detail ->
           [ { subject = "faults/recovery";
               detail = "after disarm: " ^ detail } ])
  in
  (!ok, violations)

(* --- Campaign ------------------------------------------------------------ *)

let run ~seed () =
  let rng = Rng.make (seed lxor 0x5e12e5c1) in
  let plan = Faults.campaign ~seed sites in
  let edge, edge_violations = edge_phase ~rng () in
  let backpressure_shed, bp_violations = backpressure_phase () in
  let fault_ok, fault_violations = fault_phase ~plan () in
  { seed; plan; edge; backpressure_shed; fault_ok; fault_attempts;
    violations = edge_violations @ bp_violations @ fault_violations }

let verdict_to_json v =
  Json.Obj
    [ ("schema", Json.String "predlab/serve-chaos");
      ("version", Json.Int 1);
      ("seed", Json.Int v.seed);
      ("plan",
       Json.List (List.map (fun s -> Json.String (Faults.describe s)) v.plan));
      ("edge",
       Json.Obj
         [ ("shed", Json.Int v.edge.shed);
           ("reaped_idle", Json.Int v.edge.reaped_idle);
           ("oversized_frames", Json.Int v.edge.oversized_frames) ]);
      ("backpressure_shed", Json.Int v.backpressure_shed);
      ("fault_round_trips_ok", Json.Int v.fault_ok);
      ("fault_round_trips", Json.Int v.fault_attempts);
      ("violations",
       Json.List
         (List.map
            (fun viol ->
               Json.Obj
                 [ ("subject", Json.String viol.subject);
                   ("detail", Json.String viol.detail) ])
            v.violations));
      ("graceful", Json.Bool (v.violations = [])) ]

let render v =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "serve chaos campaign: seed %d, %d armed site(s)\n"
       v.seed (List.length v.plan));
  List.iter
    (fun s -> Buffer.add_string buf ("  inject " ^ Faults.describe s ^ "\n"))
    v.plan;
  Buffer.add_string buf
    (Printf.sprintf
       "connection edges: torn frame, disconnect, slow writer, oversized \
        frame, 4-client burst, wedged+sibling -> %d reaped, %d oversized, \
        %d shed\n"
       v.edge.reaped_idle v.edge.oversized_frames v.edge.shed);
  Buffer.add_string buf
    (Printf.sprintf
       "backpressure (conns=1, queue=0): %d/%d clients shed with the \
        overloaded envelope\n"
       v.backpressure_shed backpressure_clients);
  Buffer.add_string buf
    (Printf.sprintf
       "armed fault sites: %d/%d round trips succeeded; clean after \
        disarm\n"
       v.fault_ok v.fault_attempts);
  (match v.violations with
   | [] ->
     Buffer.add_string buf
       "graceful degradation: OK (daemon alive throughout, deterministic \
        shed/reap counts, byte-identical burst responses)\n"
   | violations ->
     List.iter
       (fun viol ->
          Buffer.add_string buf
            (Printf.sprintf "VIOLATION %s: %s\n" viol.subject viol.detail))
       violations;
     Buffer.add_string buf
       (Printf.sprintf "%d serve-plane violation(s)\n"
          (List.length violations)));
  Buffer.contents buf
