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

let status_of line =
  match Json.parse line with
  | Error _ -> None
  | Ok json -> Option.bind (Json.member "status" json) Json.string_value

let is_ok_envelope line =
  match Json.parse line with
  | Error _ -> false
  | Ok json -> Json.member "ok" json = Some (Json.Bool true)

(* --- Phase A: connection edges ------------------------------------------- *)

let edge_idle_s = 0.4
let edge_max_frame = 2048

let edge_config socket =
  { Daemon.socket; jobs = 1; deadline_s = None;
    memo_bound = Daemon.default_memo_bound; conns = 4; queue = 8;
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
          | `Line l when is_ok_envelope l -> []
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
                  | `Line l when is_ok_envelope l -> []
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
          match Client.connect socket with
          | Error m -> Error m
          | Ok c ->
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                 match
                   Client.request ~timeout_s:5. c
                     (Protocol.request_to_json Protocol.Stats)
                 with
                 | Ok _ -> Ok (Prelude.Mono.now () -. started)
                 | Error e -> Error (Client.error_message e)))
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
             match Client.connect socket with
             | Error m -> Error m
             | Ok c ->
               Fun.protect
                 ~finally:(fun () -> Client.close c)
                 (fun () ->
                    match
                      Client.request ~timeout_s:30. c
                        (Protocol.request_to_json
                           (Protocol.Certify { workloads = [ name ] }))
                    with
                    | Error e -> Error (Client.error_message e)
                    | Ok response -> (
                        match Json.member "result" response with
                        | Some result ->
                          let expected =
                            Predictability.Certifier.report_to_json
                              [ Predictability.Certifier.row
                                  (Isa.Workload.find name) ]
                          in
                          if Json.to_string result = Json.to_string expected
                          then Ok ()
                          else
                            Error
                              (Printf.sprintf
                                 "certify %s diverged from the CLI \
                                  constructor document" name)
                        | None -> Error "success envelope without a result"))))
      picks
  in
  List.concat_map
    (fun d ->
       match Domain.join d with
       | Ok () -> []
       | Error detail -> [ { subject = "burst"; detail } ])
    clients

let final_counts socket =
  match Client.connect socket with
  | Error m -> Error m
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
         match
           Client.request ~timeout_s:5. c
             (Protocol.request_to_json Protocol.Stats)
         with
         | Error e -> Error (Client.error_message e)
         | Ok response -> (
             match Json.member "result" response with
             | None -> Error "stats envelope without a result"
             | Some result ->
               let int name =
                 match
                   Option.bind (Json.member name result) Json.int_value
                 with
                 | Some n -> n
                 | None -> -1
               in
               Ok { shed = int "shed"; reaped_idle = int "reaped_idle";
                    oversized_frames = int "oversized_frames" }))

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
      { Daemon.socket; jobs = 1; deadline_s = None;
        memo_bound = Daemon.default_memo_bound; conns = 1; queue = 0;
        idle_s = Some 10.; drain_s = 2.;
        max_frame = Daemon.default_max_frame }
      (fun () ->
         match Client.connect socket with
         | Error m -> [ { subject = "backpressure"; detail = m } ]
         | Ok holder ->
           Fun.protect
             ~finally:(fun () -> Client.close holder)
             (fun () ->
                (* A completed round trip proves the single worker now owns
                   this connection; every later connect must shed. *)
                match
                  Client.request ~timeout_s:5. holder
                    (Protocol.request_to_json Protocol.Stats)
                with
                | Error e ->
                  [ { subject = "backpressure";
                      detail = Client.error_message e } ]
                | Ok _ ->
                  let sheds =
                    List.init backpressure_clients (fun i ->
                        match Client.connect socket with
                        | Error m ->
                          [ { subject = Printf.sprintf "backpressure/%d" i;
                              detail = m } ]
                        | Ok c ->
                          Fun.protect
                            ~finally:(fun () -> Client.close c)
                            (fun () ->
                               match Client.recv ~timeout_s:5. c with
                               | Ok response
                                 when Option.bind
                                        (Json.member "status" response)
                                        Json.string_value
                                      = Some "overloaded" -> []
                               | Ok response ->
                                 [ { subject =
                                       Printf.sprintf "backpressure/%d" i;
                                     detail =
                                       "expected the overloaded envelope, \
                                        got " ^ Json.to_string response } ]
                               | Error e ->
                                 [ { subject =
                                       Printf.sprintf "backpressure/%d" i;
                                     detail = Client.error_message e } ]))
                  in
                  let stats =
                    match
                      Client.request ~timeout_s:5. holder
                        (Protocol.request_to_json Protocol.Stats)
                    with
                    | Error e ->
                      [ { subject = "backpressure/stats";
                          detail = Client.error_message e } ]
                    | Ok response -> (
                        match
                          Option.bind (Json.member "result" response)
                            (fun r -> Json.member "shed" r)
                          |> Fun.flip Option.bind Json.int_value
                        with
                        | Some n when n = backpressure_clients ->
                          shed_seen := n;
                          []
                        | Some n ->
                          shed_seen := n;
                          [ { subject = "backpressure/stats";
                              detail =
                                Printf.sprintf
                                  "expected exactly %d shed, got %d"
                                  backpressure_clients n } ]
                        | None ->
                          [ { subject = "backpressure/stats";
                              detail = "stats without a shed count" } ])
                  in
                  List.concat sheds @ stats))
  in
  (!shed_seen, violations)

(* --- Phase C: armed fault sites ------------------------------------------ *)

let fault_attempts = 6

let fault_phase ~plan () =
  let socket = temp_socket () in
  let ok = ref 0 in
  let violations =
    with_daemon
      { Daemon.socket; jobs = 1; deadline_s = None;
        memo_bound = Daemon.default_memo_bound; conns = 2; queue = 4;
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
                match Client.connect socket with
                | Error _ -> ()
                | Ok c ->
                  (match
                     Client.request ~timeout_s:5. c
                       (Protocol.request_to_json Protocol.Stats)
                   with
                   | Ok response
                     when Json.member "ok" response = Some (Json.Bool true)
                     -> incr ok
                   | Ok _ | Error _ -> ());
                  Client.close c
              done);
         (* Disarmed, the daemon must answer cleanly — the faults were
            contained, not accumulated. *)
         match Client.connect socket with
         | Error m ->
           [ { subject = "faults/recovery";
               detail = "cannot connect after disarm: " ^ m } ]
         | Ok c ->
           Fun.protect
             ~finally:(fun () -> Client.close c)
             (fun () ->
                match
                  Client.request ~timeout_s:5. c
                    (Protocol.request_to_json Protocol.Stats)
                with
                | Ok response
                  when Json.member "ok" response = Some (Json.Bool true) ->
                  []
                | Ok response ->
                  [ { subject = "faults/recovery";
                      detail =
                        "disarmed daemon answered " ^ Json.to_string response
                    } ]
                | Error e ->
                  [ { subject = "faults/recovery";
                      detail = Client.error_message e } ]))
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
