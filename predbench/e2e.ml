(* predbench: the end-to-end benchmark of predlab.

   One workload per invocation, driven from this process against the
   built `predlab` binary:

     paper_all     one `predlab all --jobs 1` (the paper reproduction)
     sample_sweep  back-to-back `predlab sample --jobs 2 --format json`
     serve_eval    a `predlab serve --jobs 1 --conns 2` daemon, two
                   closed-loop clients sending `eval`
     serve_mixed   the same daemon, one closed-loop `eval` client next to
                   one closed-loop `sample` client

   Every output is checked (pinned section digests, an exact-interpreter
   table of eval cells, byte-identity against the one-shot CLI, CI
   containment); a failed check counts as a failed operation and makes
   the run exit 1. The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
   metrics are the per-layer ones, timed around calls into each layer
   from this process and from outside predlab; otherwise they are the
   end-to-end ones. See README.md for the workloads, metrics and bounds. *)

module Json = Prelude.Json
module Mono = Prelude.Mono

(* --- Failure accounting ------------------------------------------------- *)

(* Atomic because the serve clients run on domains of their own. *)
let attempted = Atomic.make 0
let failed = Atomic.make 0

(* Count one operation; a failed one is reported, the first few only, so
   a broken daemon cannot flood the log. *)
let check ok what =
  Atomic.incr attempted;
  if (not ok) && Atomic.fetch_and_add failed 1 < 20 then
    Printf.eprintf "predbench: FAILED %s\n%!" (what ())

(* --- Statistics ---------------------------------------------------------- *)

(* Growable sample buffer: the serve clients record ~10^6 latencies. *)
type samples = { mutable data : float array; mutable n : int }

let samples () = { data = Array.make 1024 0.; n = 0 }

let push s x =
  if s.n = Array.length s.data then begin
    let bigger = Array.make (2 * s.n) 0. in
    Array.blit s.data 0 bigger 0 s.n;
    s.data <- bigger
  end;
  s.data.(s.n) <- x;
  s.n <- s.n + 1

let sorted_values s =
  let a = Array.sub s.data 0 s.n in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array; 0 for an empty one, which
   only a run that already counted a failure can produce. *)
let percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  if n = 0 then 0. else sorted.(max 0 (min (n - 1) (rank - 1)))

let median_list xs =
  let s = samples () in
  List.iter (push s) xs;
  percentile (sorted_values s) 0.5

(* Quartiles exactly as Python's statistics.quantiles(values, n=4) gives
   them (the "exclusive" method), so --summarize agrees with any script
   that checks spreads that way. *)
let quartiles sorted =
  let ld = Array.length sorted in
  if ld = 1 then (sorted.(0), sorted.(0), sorted.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((sorted.(j - 1) *. float_of_int (4 - delta))
       +. (sorted.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 2, cut 3)

(* Latencies as log-spaced bucket counts (8 per power of two, keyed by the
   bucket's lower edge in microseconds): the raw distribution in a few
   hundred entries, however many operations ran. *)
let histogram_json sorted =
  let bucket x = Float.to_int (Float.floor (8. *. Float.log2 (Float.max 1. (x *. 1e6)))) in
  let counts = Hashtbl.create 64 in
  Array.iter
    (fun x ->
       let b = bucket x in
       Hashtbl.replace counts b (1 + Option.value ~default:0 (Hashtbl.find_opt counts b)))
    sorted;
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) counts []) in
  Json.List
    (List.map
       (fun k ->
          Json.List
            [ Json.Float (Float.pow 2. (float_of_int k /. 8.));
              Json.Int (Hashtbl.find counts k) ])
       keys)

(* --- Child processes ------------------------------------------------------ *)

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0)

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

(* The kernel's high-water mark of the process's resident set, in kB. *)
let peak_rss_kb pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid)
      In_channel.input_all
  with
  | exception Sys_error _ -> None
  | status ->
    List.find_map
      (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; value ] -> Scanf.sscanf_opt (String.trim value) "%d kB" Fun.id
         | _ -> None)
      (String.split_on_char '\n' status)

type proc = {
  status : Unix.process_status;
  stdout : string;
  elapsed_s : float;
  rss_kb : int;
}

let exited_ok p = p.status = Unix.WEXITED 0

(* Run [argv] to completion. The elapsed time is taken around a blocking
   waitpid on this thread; a second thread drains stdout and polls the
   child's VmHWM every 5 ms, so neither ever delays the exit timestamp. *)
let run_process argv =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let started = Mono.now () in
  let pid =
    Unix.create_process argv.(0) argv (Lazy.force devnull) out_w Unix.stderr
  in
  Unix.close out_w;
  let buf = Buffer.create 65536 and rss = ref 0 in
  let poll () =
    match peak_rss_kb pid with Some kb -> rss := max !rss kb | None -> ()
  in
  let drain () =
    let chunk = Bytes.create 65536 in
    let rec loop () =
      match Unix.select [ out_r ] [] [] 0.005 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ -> poll (); loop ()
      | _ ->
        poll ();
        let n = Unix.read out_r chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          loop ()
        end
    in
    loop ()
  in
  let reader = Thread.create drain () in
  let _, status = waitpid_retry [] pid in
  let elapsed_s = Mono.now () -. started in
  Thread.join reader;
  Unix.close out_r;
  { status; stdout = Buffer.contents buf; elapsed_s; rss_kb = !rss }

let describe argv = String.concat " " (Array.to_list argv)

(* --- Configuration -------------------------------------------------------- *)

type config = {
  predlab : string;
  golden : string;  (** pinned per-experiment digests of `predlab all` *)
  seed : int;
}

(* Median of [reps] `predlab list` invocations: process start-up plus the
   experiment registry, the set-up every CLI invocation pays. *)
let cli_setup cfg ~reps =
  median_list
    (List.init reps (fun _ ->
         let argv = [| cfg.predlab; "list" |] in
         let p = run_process argv in
         check (exited_ok p && p.stdout <> "") (fun () -> describe argv);
         p.elapsed_s))

(* --- Text sections of `predlab all` / `predlab run` ----------------------- *)

(* Each experiment prints "=== ID: title ===", its body, then a
   "  [wall ...]" line. A section is everything from the header up to the
   wall line, which carries the timing and is excluded from the digest. *)
type section = { id : string; text : string; wall_s : float option }

let sections output =
  let finish id lines wall_s acc =
    match id with
    | None -> acc
    | Some id -> { id; text = String.concat "\n" (List.rev lines); wall_s } :: acc
  in
  let rec go id lines in_body acc = function
    | [] -> List.rev (finish id lines None acc)
    | line :: rest when String.starts_with ~prefix:"=== " line ->
      let acc = if in_body then finish id lines None acc else acc in
      let header = String.sub line 4 (String.length line - 4) in
      let id = List.hd (String.split_on_char ':' header) in
      go (Some id) [ line ] true acc rest
    | line :: rest when in_body && String.starts_with ~prefix:"[wall " (String.trim line) ->
      let wall_s = Scanf.sscanf_opt (String.trim line) "[wall %fs" Fun.id in
      go None [] false (finish id lines wall_s acc) rest
    | line :: rest when in_body -> go id (line :: lines) true acc rest
    | _ :: rest -> go id lines in_body acc rest
  in
  go None [] false [] (String.split_on_char '\n' output)

let digest text = Digest.to_hex (Digest.string text)

(* "ID HEXDIGEST" per line. *)
let load_golden path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter_map (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ id; hex ] -> Some (id, hex)
      | _ -> None)

(* Every section must match its pinned digest; with [~all] every pinned
   experiment must also be present. A new experiment id is reported with
   its digest (to pin it) but is not a failure. *)
let sections_ok ~golden ~all output =
  let found = sections output in
  let section_ok s =
    match List.assoc_opt s.id golden with
    | None ->
      Printf.eprintf "predbench: new experiment %s (digest %s); not pinned\n%!"
        s.id (digest s.text);
      true
    | Some hex when hex = digest s.text -> true
    | Some _ ->
      Printf.eprintf "predbench: section %s changed; its digest is now %s\n%!"
        s.id (digest s.text);
      false
  in
  let missing =
    if all then
      List.filter (fun (id, _) -> not (List.exists (fun s -> s.id = id) found)) golden
    else []
  in
  List.iter (fun (id, _) -> Printf.eprintf "predbench: experiment %s missing\n%!" id)
    missing;
  found <> [] && List.for_all section_ok found && missing = []

(* --- Workload results ------------------------------------------------------ *)

type result = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  extra : (string * Json.t) list;  (** run.json detail: lengths, histograms *)
}

let latency_metrics ~setup_s ~latencies ~ops ~window_s ~rss_kb =
  let sorted = sorted_values latencies in
  check (sorted <> [||]) (fun () -> "no op completed in the run");
  ( [ ("setup_s", setup_s, "s");
      ("op_p50_ms", 1e3 *. percentile sorted 0.5, "ms");
      ("op_p90_ms", 1e3 *. percentile sorted 0.9, "ms");
      ("ops_s", float_of_int ops /. window_s, "1/s");
      ("peak_rss_mb", rss_kb /. 1024., "MB") ],
    [ ("measured_s", Json.Float window_s);
      ("ops", Json.Int ops);
      ("op_count", Json.Int (Array.length sorted));
      ("op_p99_ms", Json.Float (1e3 *. percentile sorted 0.99));
      ("op_max_ms", Json.Float (1e3 *. percentile sorted 1.));
      ("op_latency_us_histogram", histogram_json sorted) ] )

(* Back-to-back invocations of [argv k] (k = 0, 1, ...), at least one; the
   next starts only if it should end inside [seconds], so a run never
   overshoots by a whole invocation. [ok k p] checks each. *)
let cli_loop ~seconds ~argv ~ok =
  let latencies = samples () and rss = samples () in
  let started = Mono.now () in
  let rec go k =
    let p = run_process (argv k) in
    push latencies p.elapsed_s;
    push rss (float_of_int p.rss_kb);
    check (exited_ok p && ok k p) (fun () -> describe (argv k));
    if Mono.now () -. started +. p.elapsed_s <= seconds then go (k + 1)
  in
  go 0;
  let window_s = Mono.now () -. started in
  (latencies, percentile (sorted_values rss) 0.5, window_s)

let paper_all cfg ~seconds ~setup_reps =
  let golden = load_golden cfg.golden in
  let setup_s = cli_setup cfg ~reps:setup_reps in
  let latencies, rss_kb, window_s =
    cli_loop ~seconds
      ~argv:(fun _ -> [| cfg.predlab; "all"; "--jobs"; "1" |])
      ~ok:(fun _ p -> sections_ok ~golden ~all:true p.stdout)
  in
  let metrics, extra =
    latency_metrics ~setup_s ~latencies ~ops:latencies.n ~window_s ~rss_kb
  in
  { metrics; extra }

(* --- sample_sweep ------------------------------------------------------------ *)

let registry_names = List.map fst Isa.Workload.registry

let sample_argv cfg ~jobs seed =
  [| cfg.predlab; "sample"; "--jobs"; string_of_int jobs; "--format"; "json";
     "--seed"; string_of_int seed |]

(* A sample report covers the whole registry at [seed], and every
   estimate lies inside its own confidence interval. *)
let sample_report_ok ~seed text =
  let estimates_ok w =
    match w with
    | Json.Obj fields ->
      List.for_all
        (fun (_, v) ->
           match
             ( Option.bind (Json.member "estimate" v) Json.float_value,
               Option.bind (Json.member "ci_lo" v) Json.float_value,
               Option.bind (Json.member "ci_hi" v) Json.float_value )
           with
           | Some e, Some lo, Some hi -> lo <= e && e <= hi
           | None, None, None -> true
           | _ -> false)
        fields
    | _ -> false
  in
  match Result.map (Json.member "workloads") (Json.parse text) with
  | Ok (Some (Json.List ws)) ->
    List.map
      (fun w -> Option.bind (Json.member "workload" w) Json.string_value)
      ws
    = List.map Option.some registry_names
    && List.for_all
         (fun w -> Option.bind (Json.member "seed" w) Json.int_value = Some seed)
         ws
    && List.for_all estimates_ok ws
  | _ -> false

let sample_sweep cfg ~seconds ~setup_reps =
  let setup_s = cli_setup cfg ~reps:setup_reps in
  (* The first seed runs twice: the reports must be byte-identical. *)
  let reference = run_process (sample_argv cfg ~jobs:2 cfg.seed) in
  check (exited_ok reference && sample_report_ok ~seed:cfg.seed reference.stdout)
    (fun () -> describe (sample_argv cfg ~jobs:2 cfg.seed));
  let latencies, rss_kb, window_s =
    cli_loop ~seconds
      ~argv:(fun k -> sample_argv cfg ~jobs:2 (cfg.seed + k))
      ~ok:(fun k p ->
          sample_report_ok ~seed:(cfg.seed + k) p.stdout
          && (k > 0 || p.stdout = reference.stdout))
  in
  let metrics, extra =
    latency_metrics ~setup_s ~latencies ~ops:latencies.n ~window_s ~rss_kb
  in
  { metrics; extra }

(* --- Serve client ------------------------------------------------------------ *)

(* A daemon that answers nothing for this long counts as a failed
   (timed-out) operation. *)
let client_timeout_s = 30.

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () ->
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO client_timeout_s;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO client_timeout_s;
    { fd; buf = Bytes.create 65536; pos = 0; len = 0 }
  | exception e ->
    Unix.close fd;
    raise e

let close conn = Unix.close conn.fd

(* Send one request line ([line] ends in '\n'), read one response line. *)
let request conn line =
  let rec send off =
    if off < String.length line then
      send (off + Unix.write_substring conn.fd line off (String.length line - off))
  in
  send 0;
  let out = Buffer.create 256 in
  let rec newline i =
    if i >= conn.len then None
    else if Bytes.get conn.buf i = '\n' then Some i
    else newline (i + 1)
  in
  let rec recv () =
    if conn.pos = conn.len then begin
      let n = Unix.read conn.fd conn.buf 0 (Bytes.length conn.buf) in
      if n = 0 then failwith "daemon closed the connection";
      conn.pos <- 0;
      conn.len <- n
    end;
    match newline conn.pos with
    | Some i ->
      Buffer.add_subbytes out conn.buf conn.pos (i - conn.pos);
      conn.pos <- i + 1;
      Buffer.contents out
    | None ->
      Buffer.add_subbytes out conn.buf conn.pos (conn.len - conn.pos);
      conn.pos <- conn.len;
      recv ()
  in
  recv ()

let request_line fields = Json.to_string (Json.Obj fields) ^ "\n"

let find_sub line key =
  let n = String.length line and k = String.length key in
  let rec go i =
    if i + k > n then None
    else if String.sub line i k = key then Some (i + k)
    else go (i + 1)
  in
  go 0

let ok_envelope line = find_sub line "\"ok\":true" <> None

(* One eval cell: the request line and the cycle count the exact
   interpreter gives for it. *)
type cell = { line : string; expect : int }

(* Every valid (workload, state, input) cell the daemon serves: the
   standard in-order states x the workload's inputs capped at
   Sampled.input_cap, timed by Pipeline.Inorder (the reference
   semantics), never by the fast path the daemon answers from. *)
let eval_cells =
  lazy
    (Isa.Workload.registry
     |> List.concat_map (fun (name, make) ->
         let w = make () in
         let program, _ = Isa.Workload.program w in
         let inputs =
           Prelude.Listx.take Predictability.Sampled.input_cap w.Isa.Workload.inputs
         in
         List.concat
           (List.mapi
              (fun q state ->
                 List.mapi
                   (fun i input ->
                      { line =
                          request_line
                            [ ("op", Json.String "eval");
                              ("workload", Json.String name);
                              ("state", Json.Int q); ("input", Json.Int i) ];
                        expect = Pipeline.Inorder.time program state input })
                   inputs)
              (Predictability.Harness.inorder_states program w)))
     |> Array.of_list)

let eval_ok cell line =
  ok_envelope line
  &&
  match find_sub line "\"time_cycles\":" with
  | None -> false
  | Some i ->
    let j = ref i in
    while !j < String.length line && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
    int_of_string_opt (String.sub line i (!j - i)) = Some cell.expect

let stats_line = request_line [ ("op", Json.String "stats") ]
let shutdown_line = request_line [ ("op", Json.String "shutdown") ]

let ok_result line =
  match Json.parse line with
  | Ok json when ok_envelope line -> Json.member "result" json
  | _ -> None

(* --- Daemon lifecycle -------------------------------------------------------- *)

(* Sockets live in a scratch directory under the working directory, by a
   relative path: short enough for sun_path wherever the checkout is. *)
let run_dir = ".predbench"

let socket_path () =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  Filename.concat run_dir (Printf.sprintf "d%d.sock" (Unix.getpid ()))

type daemon = { pid : int; socket : string }

let live_daemons = ref []

let reap d ~budget_s =
  let deadline = Mono.now () +. budget_s in
  let rec wait () =
    match waitpid_retry [ Unix.WNOHANG ] d.pid with
    | 0, _ when Mono.now () < deadline -> Mono.sleep 0.01; wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid_retry [] d.pid)
    | _ -> ()
  in
  wait ();
  live_daemons := List.filter (fun l -> l.pid <> d.pid) !live_daemons;
  List.iter
    (fun path -> try Sys.remove path with Sys_error _ -> ())
    [ d.socket; d.socket ^ ".lock" ]

(* A run that dies half-way must not leave a daemon behind. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
           (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
           reap d ~budget_s:5.)
        !live_daemons;
      try Sys.rmdir run_dir with Sys_error _ -> ())

let stop_daemon d =
  (match connect d.socket with
   | conn ->
     (try ignore (request conn shutdown_line) with _ -> ());
     close conn
   | exception _ -> ());
  (* The daemon's own drain budget is 5 s. *)
  reap d ~budget_s:10.

let start_daemon cfg socket =
  let argv =
    [| cfg.predlab; "serve"; "--socket"; socket; "--jobs"; "1"; "--conns"; "2" |]
  in
  let pid =
    Unix.create_process argv.(0) argv (Lazy.force devnull) (Lazy.force devnull)
      Unix.stderr
  in
  let d = { pid; socket } in
  live_daemons := d :: !live_daemons;
  d

(* Connect once the socket answers, polling every 2 ms for up to 10 s. *)
let connect_ready d =
  let started = Mono.now () in
  let rec go () =
    match connect d.socket with
    | conn -> Some conn
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Mono.now () -. started < 10.
           && fst (waitpid_retry [ Unix.WNOHANG ] d.pid) = 0 ->
      Mono.sleep 0.002;
      go ()
    | exception _ -> None
  in
  go ()

(* Set-up: spawn the daemon, wait until `stats` answers, then warm every
   eval cell once (each checked against the table). The warm-up
   connection is closed before anything is timed: with --conns 2 a
   connection holds one of the two workers for as long as it is open, so
   a lingering one would stall the second client for the whole run. *)
let setup_daemon cfg socket =
  let started = Mono.now () in
  let d = start_daemon cfg socket in
  (match connect_ready d with
   | None -> check false (fun () -> "daemon did not come up on " ^ socket)
   | Some conn ->
     Fun.protect ~finally:(fun () -> close conn) (fun () ->
         check (ok_result (request conn stats_line) <> None)
           (fun () -> "readiness stats");
         Array.iter
           (fun cell ->
              let line = request conn cell.line in
              check (eval_ok cell line) (fun () ->
                  Printf.sprintf "warm-up %s-> %s" cell.line line))
           (Lazy.force eval_cells)));
  (d, Mono.now () -. started)

let shuffle rng items =
  let a = Array.of_list items in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

type client_log = {
  latencies : samples;
  mutable finished : float;
  mutable responses : (string * int * string) list;
      (** sample ops: workload, seed, response line *)
}

(* Closed loop: each request waits for the previous reply. A failed or
   timed-out round trip ends the client, since its connection is then in
   an unknown state. *)
let closed_loop ~socket ~deadline ~log step =
  (match connect socket with
   | exception e ->
     check false (fun () -> "client connect: " ^ Printexc.to_string e)
   | conn ->
     let k = ref 0 in
     (try
        while Mono.now () < deadline do
          step conn !k;
          incr k
        done
      with e -> check false (fun () -> "client: " ^ Printexc.to_string e));
     close conn);
  log.finished <- Mono.now ()

let eval_client ~cfg ~id ~socket ~deadline log =
  let cells = Lazy.force eval_cells in
  let rng = Random.State.make [| cfg.seed; id |] in
  closed_loop ~socket ~deadline ~log (fun conn _ ->
      let cell = cells.(Random.State.int rng (Array.length cells)) in
      let t0 = Mono.now () in
      let line = request conn cell.line in
      push log.latencies (Mono.now () -. t0);
      check (eval_ok cell line) (fun () ->
          Printf.sprintf "eval %s-> %s" cell.line line))

(* Sample ops cycle through a seeded permutation of the registry, one
   workload each, so every run weighs the workloads equally. *)
let sample_client ~cfg ~socket ~deadline log =
  let order = shuffle (Random.State.make [| cfg.seed; 2 |]) registry_names in
  closed_loop ~socket ~deadline ~log (fun conn k ->
      let workload = order.(k mod Array.length order) and seed = cfg.seed + k in
      let line =
        request_line
          [ ("op", Json.String "sample");
            ("workloads", Json.List [ Json.String workload ]);
            ("seed", Json.Int seed) ]
      in
      let t0 = Mono.now () in
      let response = request conn line in
      push log.latencies (Mono.now () -. t0);
      log.responses <- (workload, seed, response) :: log.responses;
      check (ok_envelope response) (fun () -> "sample -> " ^ response))

(* Three seeded sample responses must be byte-identical to the one-shot
   CLI (the daemon runs --jobs 1, so the CLI does too). *)
let cmp_sample_responses cfg responses =
  let responses = Array.of_list responses in
  let picks =
    Array.sub
      (shuffle (Random.State.make [| cfg.seed; 3 |])
         (List.init (Array.length responses) Fun.id))
      0
      (min 3 (Array.length responses))
  in
  Array.iter
    (fun idx ->
       let workload, seed, response = responses.(idx) in
       let argv =
         Array.append (sample_argv cfg ~jobs:1 seed) [| workload |]
       in
       let p = run_process argv in
       let served =
         Option.map
           (fun r -> Json.to_string_pretty r ^ "\n")
           (ok_result response)
       in
       check (exited_ok p && served = Some p.stdout) (fun () ->
           "daemon sample differs from " ^ describe argv))
    picks

let int_field json name =
  Option.value ~default:0 (Option.bind (Json.member name json) Json.int_value)

let serve cfg ~mixed ~seconds ~setups =
  let socket = socket_path () in
  (* The harness's own table is not part of any set-up time. *)
  ignore (Lazy.force eval_cells);
  let rec set_up k times =
    let d, t = setup_daemon cfg socket in
    if k > 1 then begin
      stop_daemon d;
      set_up (k - 1) (t :: times)
    end
    else (d, t :: times)
  in
  let d, setup_times = set_up setups [] in
  let log () = { latencies = samples (); finished = 0.; responses = [] } in
  let a = log () and b = log () in
  let started = Mono.now () in
  let deadline = started +. seconds in
  (* One domain per client: on threads of one domain the two clients
     contend for its runtime lock, which measured slower and noisier. *)
  let clients =
    [ Domain.spawn (fun () -> eval_client ~cfg ~id:0 ~socket ~deadline a);
      Domain.spawn (fun () ->
          if mixed then sample_client ~cfg ~socket ~deadline b
          else eval_client ~cfg ~id:1 ~socket ~deadline b) ]
  in
  List.iter Domain.join clients;
  let window_s = Float.max a.finished b.finished -. started in
  let stats =
    match connect d.socket with
    | exception _ -> None
    | conn ->
      let r = try ok_result (request conn stats_line) with _ -> None in
      close conn;
      r
  in
  check (stats <> None) (fun () -> "stats after the timed phase");
  let rss_kb = Option.value ~default:0 (peak_rss_kb d.pid) in
  stop_daemon d;
  if mixed then cmp_sample_responses cfg b.responses;
  let daemon =
    match stats with
    | None -> []
    | Some s ->
      let hits = int_field s "memo_hits" and misses = int_field s "memo_misses" in
      [ ("served", float_of_int (int_field s "served"));
        ("errors", float_of_int (int_field s "errors"));
        ("shed", float_of_int (int_field s "shed"));
        ("memo_hit_frac",
         float_of_int hits /. float_of_int (max 1 (hits + misses))) ]
  in
  check
    (List.assoc_opt "errors" daemon = Some 0. && List.assoc_opt "shed" daemon = Some 0.)
    (fun () -> "daemon counted errors or shed connections");
  (* The key op is the slowest class the workload sends: sample in
     serve_mixed, eval in serve_eval. Throughput counts every request. *)
  let key = if mixed then b else a in
  let ops = a.latencies.n + b.latencies.n in
  let metrics, extra =
    latency_metrics ~setup_s:(median_list setup_times) ~latencies:key.latencies ~ops
      ~window_s ~rss_kb:(float_of_int rss_kb)
  in
  let eval_sorted = sorted_values a.latencies in
  let extra =
    extra
    @ [ ("daemon", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) daemon)) ]
    @
    if mixed && eval_sorted <> [||] then
      [ ("eval_p50_ms", Json.Float (1e3 *. percentile eval_sorted 0.5));
        ("eval_p90_ms", Json.Float (1e3 *. percentile eval_sorted 0.9));
        ("eval_latency_us_histogram", histogram_json eval_sorted) ]
    else []
  in
  ({ metrics; extra }, daemon)

(* --- Workload table ----------------------------------------------------------- *)

let workloads =
  [ ("paper_all", fun cfg seconds -> paper_all cfg ~seconds ~setup_reps:21);
    ("sample_sweep", fun cfg seconds -> sample_sweep cfg ~seconds ~setup_reps:21);
    ("serve_eval", fun cfg seconds -> fst (serve cfg ~mixed:false ~seconds ~setups:5));
    ("serve_mixed", fun cfg seconds -> fst (serve cfg ~mixed:true ~seconds ~setups:5)) ]

(* --- Per-layer trace ------------------------------------------------------------ *)

let time f =
  let t0 = Mono.now () in
  let v = f () in
  (v, Mono.now () -. t0)

(* Median seconds per call over [rounds] rounds of [iters] calls. *)
let per_call ?(rounds = 7) ~iters f =
  median_list
    (List.init rounds (fun _ ->
         let t0 = Mono.now () in
         for _ = 1 to iters do ignore (Sys.opaque_identity (f ())) done;
         (Mono.now () -. t0) /. float_of_int iters))

let kinds =
  [ (Cache.Policy.Lru, "lru"); (Cache.Policy.Fifo, "fifo"); (Cache.Policy.Plru, "plru");
    (Cache.Policy.Mru, "mru"); (Cache.Policy.Round_robin, "rr") ]

(* Calls into each layer's public functions, timed from this process,
   plus the per-experiment wall lines of one `predlab all --jobs 1`
   (timed from outside). The same metrics for every workload; the daemon
   counters come from a short session of the traced workload's traffic
   (serve_eval's for the CLI workloads). *)
let trace_layers cfg workload =
  let out = ref [] in
  let emit name unit value = out := (name, value, unit) :: !out in
  (* Experiments: where paper_all's time goes. *)
  let argv = [| cfg.predlab; "all"; "--jobs"; "1" |] in
  let p = run_process argv in
  let golden = load_golden cfg.golden in
  check (exited_ok p && sections_ok ~golden ~all:true p.stdout) (fun () ->
      describe argv);
  let walls =
    List.map (fun s -> (s.id, Option.value ~default:0. s.wall_s)) (sections p.stdout)
  in
  let wall id = Option.value ~default:0. (List.assoc_opt id walls) in
  let wall_sum = List.fold_left (fun acc (_, w) -> acc +. w) 0. walls in
  let rw_cache_s = wall "RW.CACHE" in
  emit "experiments.rw_cache_s" "s" rw_cache_s;
  emit "experiments.def_sample_s" "s" (wall "DEF.SAMPLE");
  emit "experiments.def_cert_s" "s" (wall "DEF.CERT");
  emit "experiments.other_s" "s"
    (wall_sum -. rw_cache_s -. wall "DEF.SAMPLE" -. wall "DEF.CERT");
  emit "experiments.elapsed_s" "s" p.elapsed_s;
  emit "experiments.attributed_frac" "ratio" (wall_sum /. p.elapsed_s);
  (* Cache_metrics: the calls RW.CACHE makes, one by one, at jobs 1. *)
  Prelude.Parallel.set_default_jobs 1;
  let evals0 = (Prelude.Instrument.snapshot ()).Prelude.Instrument.evals in
  let ways2 = ref 0. and cache_sum = ref 0. in
  List.iter
    (fun ways ->
       List.iter
         (fun (kind, short) ->
            let max_probes = (3 * ways) + 2 in
            let _, evict_s =
              time (fun () ->
                  Predictability.Cache_metrics.evict ~engine:`Fast kind ~ways ~max_probes)
            in
            let _, fill_s =
              time (fun () ->
                  Predictability.Cache_metrics.fill ~engine:`Fast kind ~ways ~max_probes)
            in
            cache_sum := !cache_sum +. evict_s +. fill_s;
            if ways = 4 then begin
              emit (Printf.sprintf "cache_metrics.evict_s.%s4" short) "s" evict_s;
              emit (Printf.sprintf "cache_metrics.fill_s.%s4" short) "s" fill_s
            end
            else ways2 := !ways2 +. evict_s +. fill_s)
         kinds)
    [ 2; 4 ];
  emit "cache_metrics.ways2_s" "s" !ways2;
  emit "cache_metrics.evals" "count"
    (float_of_int ((Prelude.Instrument.snapshot ()).Prelude.Instrument.evals - evals0));
  emit "cache_metrics.rw_cache_frac" "ratio" (!cache_sum /. rw_cache_s);
  (* Cache.Policy: state enumeration vs stepping, at RW.CACHE's deepest
     ways=4 point (4 unknown blocks + 14 probes). *)
  List.iter
    (fun (kind, short) ->
       let probes = List.init 14 (fun i -> i + 1) in
       let blocks = List.init 4 (fun i -> -(i + 1)) @ probes in
       let states, enumerate_s =
         time (fun () -> Cache.Policy.enumerate_full_states kind ~ways:4 ~blocks)
       in
       let _, step_s =
         time (fun () ->
             List.iter
               (fun s ->
                  ignore
                    (List.fold_left (fun s b -> snd (Cache.Policy.access s b)) s probes))
               states)
       in
       emit ("policy.enumerate_s." ^ short) "s" enumerate_s;
       emit ("policy.states." ^ short) "count" (float_of_int (List.length states));
       emit ("policy.step_s." ^ short) "s" step_s)
    [ (Cache.Policy.Plru, "plru"); (Cache.Policy.Mru, "mru") ];
  (* Sampling: the estimators behind every `sample` op. *)
  let rng = Random.State.make [| cfg.seed; 4 |] in
  let times = Array.init 384 (fun _ -> 300 + Random.State.int rng 200) in
  let spec = { Sampling.Sampler.default with Sampling.Sampler.seed = cfg.seed } in
  emit "tail.estimate_ms" "ms"
    (1e3
     *. per_call ~iters:3 (fun () ->
         Sampling.Tail.estimate ~rng:(Prelude.Rng.make cfg.seed)
           ~resamples:spec.resamples ~confidence:spec.confidence
           ~tail_fraction:spec.tail_fraction ~exceed_p:spec.exceed_p
           Sampling.Tail.Upper times));
  let floats = Array.map float_of_int times in
  emit "estimate.bootstrap_ms" "ms"
    (1e3
     *. per_call ~iters:20 (fun () ->
         Sampling.Estimate.bootstrap ~rng:(Prelude.Rng.make cfg.seed)
           ~resamples:spec.resamples ~confidence:spec.confidence
           ~stat:(fun a -> Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a))
           floats));
  List.iter
    (fun jobs ->
       emit (Printf.sprintf "sampler.run_ms.jobs%d" jobs) "ms"
         (1e3
          *. per_call ~iters:2 (fun () ->
              Sampling.Sampler.run ~jobs ~spec ~n_states:6 ~n_inputs:24
                ~time:(fun q i -> 300 + (((q * 7919) + (i * 104729)) mod 97))
                ())))
    [ 1; 2 ];
  let entry = List.hd Isa.Workload.registry in
  let row = Predictability.Sampled.analyze ~jobs:1 ~spec entry in
  emit "sampled.analyze_ms" "ms"
    (1e3 *. per_call ~iters:2 (fun () -> Predictability.Sampled.analyze ~jobs:1 ~spec entry));
  (* Prelude.Parallel: the per-call pool behind `--jobs 2`. *)
  let items = List.init 64 Fun.id in
  List.iter
    (fun (jobs, iters) ->
       emit (Printf.sprintf "parallel.map_us.jobs%d" jobs) "us"
         (1e6 *. per_call ~iters (fun () -> Prelude.Parallel.map ~jobs succ items)))
    [ (1, 2000); (2, 20) ];
  (* Serve.Protocol and Prelude.Json: one eval frame in, one envelope out. *)
  let cells = Lazy.force eval_cells in
  let frame = String.trim cells.(Random.State.int rng (Array.length cells)).line in
  emit "protocol.decode_ns" "ns"
    (1e9
     *. per_call ~iters:20000 (fun () ->
         match Json.parse frame with
         | Ok json -> Serve.Protocol.request_of_json json
         | Error message -> Error message));
  let eval_doc =
    Serve.Protocol.ok ~op:"eval"
      (Json.Obj
         [ ("schema", Json.String "predlab/serve-eval"); ("version", Json.Int 1);
           ("workload", Json.String "bubble_sort"); ("state", Json.Int 0);
           ("input", Json.Int 0); ("time_cycles", Json.Int 361);
           ("cached", Json.Bool true) ])
  in
  emit "json.encode_eval_ns" "ns"
    (1e9 *. per_call ~iters:20000 (fun () -> Json.to_string eval_doc));
  let sample_doc = Predictability.Sampled.report_to_json ~jobs:1 [ row ] in
  emit "json.encode_sample_us" "us"
    (1e6 *. per_call ~iters:200 (fun () -> Json.to_string_pretty sample_doc));
  (* Fastpath.Engine vs the exact interpreter, on the first workload. *)
  let w = (snd entry) () in
  let program, _ = Isa.Workload.program w in
  let grid =
    List.concat_map
      (fun q -> List.map (fun i -> (q, i)) (Prelude.Listx.take Predictability.Sampled.input_cap w.Isa.Workload.inputs))
      (Predictability.Harness.inorder_states program w)
    |> Array.of_list
  in
  let sweep time_cell () = Array.iter (fun (q, i) -> ignore (time_cell q i)) grid in
  let per_cell time_cell =
    per_call ~iters:5 (sweep time_cell) /. float_of_int (Array.length grid)
  in
  emit "fastpath.create_us" "us"
    (1e6 *. per_call ~iters:200 (fun () -> Fastpath.Engine.create program));
  let warm = Fastpath.Engine.create program in
  sweep (Fastpath.Engine.time warm) ();
  emit "fastpath.cell_warm_ns" "ns" (1e9 *. per_cell (Fastpath.Engine.time warm));
  let replay = Fastpath.Engine.create ~memo:false program in
  sweep (Fastpath.Engine.time replay) ();
  emit "fastpath.cell_replay_ns" "ns" (1e9 *. per_cell (Fastpath.Engine.time replay));
  emit "inorder.cell_exact_ns" "ns" (1e9 *. per_cell (Pipeline.Inorder.time program));
  (* Analysis.Certify: the whole registry on both standard machines. *)
  emit "certify.registry_ms" "ms"
    (1e3
     *. per_call ~rounds:3 ~iters:1 (fun () ->
         List.map (fun (_, make) -> Predictability.Certifier.row (make ())) Isa.Workload.registry));
  (* Serve.Daemon counters after a short session of this traffic. *)
  let _, daemon = serve cfg ~mixed:(workload = "serve_mixed") ~seconds:2. ~setups:1 in
  List.iter
    (fun (name, unit) ->
       emit ("daemon." ^ name) unit
         (Option.value ~default:0. (List.assoc_opt name daemon)))
    [ ("served", "count"); ("memo_hit_frac", "ratio") ];
  { metrics = List.rev !out; extra = [] }

(* --- Output ------------------------------------------------------------------------- *)

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (name, value, unit) ->
          (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ]))
       metrics)

let print_metrics ~prefix metrics =
  List.iter
    (fun (name, value, unit) -> Printf.printf "%-40s %14.6g %s\n" (prefix ^ name) value unit)
    metrics

let command_output argv =
  match run_process argv with
  | p when exited_ok p -> String.trim p.stdout
  | _ -> "unknown"
  | exception Unix.Unix_error _ -> "unknown"

let write_run_json ~cfg ~seconds ~trace path runs =
  let header =
    Json.Obj
      [ ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml", Json.String Sys.ocaml_version);
        ("git", Json.String (command_output [| "git"; "rev-parse"; "HEAD" |]));
        ("seed", Json.Int cfg.seed);
        ("seconds", Json.Float seconds);
        ("trace", Json.Bool trace) ]
  in
  let doc =
    Json.Obj
      [ ("schema", Json.String "predbench/run");
        ("version", Json.Int 1);
        ("header", header);
        ("workloads",
         Json.List
           (List.map
              (fun (name, r) ->
                 Json.Obj
                   ([ ("name", Json.String name); ("metrics", metrics_json r.metrics) ]
                    @ r.extra))
              runs)) ]
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string_pretty doc))

let run_workloads cfg ~names ~seconds ~trace ~out =
  let runs =
    List.map
      (fun name ->
         let r =
           if trace then trace_layers cfg name else (List.assoc name workloads) cfg seconds
         in
         (name, r))
      names
  and single = List.length names = 1 in
  List.iter
    (fun (name, r) -> print_metrics ~prefix:(if single then "" else name ^ ".") r.metrics)
    runs;
  Option.iter (fun path -> write_run_json ~cfg ~seconds ~trace path runs) out;
  let metrics =
    List.concat_map
      (fun (name, r) ->
         List.map
           (fun (m, v, u) -> ((if single then m else name ^ "." ^ m), v, u))
           r.metrics)
      runs
  in
  let correct = Atomic.get failed = 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Int (Atomic.get attempted));
            ("failed", Json.Int (Atomic.get failed));
            ("metrics", metrics_json metrics) ]));
  if not correct then exit 1

(* --- Smoke mode -------------------------------------------------------------------- *)

(* Every correctness gate on a small scale (one `predlab run EQ4`, two
   sample invocations, one second per serve workload) and no timing
   assertion: `dune runtest` runs it so the harness cannot rot. *)
let smoke cfg =
  let golden = load_golden cfg.golden in
  let argv = [| cfg.predlab; "run"; "EQ4" |] in
  let p = run_process argv in
  check
    (exited_ok p
     && List.exists (fun s -> s.id = "EQ4") (sections p.stdout)
     && sections_ok ~golden ~all:false p.stdout)
    (fun () -> describe argv);
  ignore (sample_sweep cfg ~seconds:0. ~setup_reps:1);
  ignore (serve cfg ~mixed:false ~seconds:1. ~setups:1);
  ignore (serve cfg ~mixed:true ~seconds:1. ~setups:1);
  Printf.printf "predbench smoke: %d operations checked, %d failed\n"
    (Atomic.get attempted) (Atomic.get failed);
  if Atomic.get failed > 0 then exit 1

(* --- Summaries of run sets --------------------------------------------------------- *)

let parse_file path =
  match Json.parse (In_channel.with_open_text path In_channel.input_all) with
  | Ok json -> json
  | Error message -> failwith (path ^ ": " ^ message)
  | exception Sys_error message -> failwith message

let list_field name json =
  Option.value ~default:[] (Option.bind (Json.member name json) Json.to_list)

let string_field name json =
  Option.value ~default:"" (Option.bind (Json.member name json) Json.string_value)

(* (workload, metric) -> value, for every metric of one run.json. *)
let run_values path =
  List.concat_map
    (fun w ->
       match Json.member "metrics" w with
       | Some (Json.Obj metrics) ->
         List.filter_map
           (fun (name, m) ->
              Option.map
                (fun v -> ((string_field "name" w, name), v))
                (Option.bind (Json.member "value" m) Json.float_value))
           metrics
       | _ -> [])
    (list_field "workloads" (parse_file path))

(* Median and quartiles of each metric x workload per run set, and each
   later set against the first under BENCHMARK.json's bounds. A pair whose
   spread exceeds the bound is unresolved, never "unchanged", unless every
   run of one side beats every run of the other. Exit 1 when any pair is
   worse or unresolved. *)
let summarize ~benchmark sets =
  let bench = parse_file benchmark in
  let bounds =
    List.map
      (fun m ->
         ( string_field "name" m,
           ( string_field "better" m,
             Option.bind (Json.member "bound" m) Json.float_value ) ))
      (list_field "end_to_end" bench @ list_field "per_layer" bench)
  in
  let sets = List.map (List.concat_map run_values) sets in
  let keys =
    List.fold_left
      (fun acc (k, _) -> if List.mem k acc then acc else acc @ [ k ])
      [] (List.concat sets)
  in
  let flagged = ref 0 in
  List.iter
    (fun ((workload, metric) as key) ->
       let values set =
         let s = samples () in
         List.iter (fun (k, v) -> if k = key then push s v) set;
         sorted_values s
       in
       let per_set = List.map values sets in
       let better, bound =
         Option.value ~default:("lower", None) (List.assoc_opt metric bounds)
       in
       let spread sorted =
         let q1, med, q3 = quartiles sorted in
         (med, (q3 -. q1) /. Float.abs med)
       in
       Printf.printf "%-14s %-34s" workload metric;
       List.iter
         (fun sorted ->
            if sorted = [||] then Printf.printf " | (no runs)"
            else
              let q1, med, q3 = quartiles sorted in
              Printf.printf " | %.6g [%.6g, %.6g] n=%d" med q1 q3 (Array.length sorted))
         per_set;
       (match per_set, bound with
        | base :: (_ :: _ as rest), Some bound when base <> [||] ->
          List.iter
            (fun other ->
               if other <> [||] then begin
                 let m0, s0 = spread base and m1, s1 = spread other in
                 let sign = if better = "higher" then -1. else 1. in
                 let worse = sign *. (m1 -. m0) /. Float.abs m0 in
                 let beats a b =
                   Array.for_all
                     (fun x -> Array.for_all (fun y -> sign *. (x -. y) < 0.) b)
                     a
                 in
                 let verdict =
                   if beats other base then "better in every run"
                   else if beats base other then (incr flagged; "WORSE in every run")
                   else if Float.max s0 s1 > bound then begin
                     incr flagged;
                     Printf.sprintf "UNRESOLVED (spread %.1f%% > bound %.0f%%)"
                       (100. *. Float.max s0 s1) (100. *. bound)
                   end
                   else if worse > bound then begin
                     incr flagged;
                     Printf.sprintf "WORSE by %.1f%% (bound %.0f%%)" (100. *. worse)
                       (100. *. bound)
                   end
                   else if -.worse > bound then
                     Printf.sprintf "better by %.1f%%" (-100. *. worse)
                   else
                     Printf.sprintf "within bound (%.1f%% %s, spread %.1f%%)"
                       (100. *. Float.abs worse)
                       (if worse > 0. then "worse" else "better")
                       (100. *. Float.max s0 s1)
                 in
                 Printf.printf " | %s" verdict
               end)
            rest
        | [ base ], Some bound when base <> [||] ->
          let _, s = spread base in
          Printf.printf " | spread %.1f%% of bound %.0f%%" (100. *. s) (100. *. bound)
        | _ -> ());
       print_newline ())
    keys;
  if !flagged > 0 then exit 1

(* --- Command line --------------------------------------------------------------------- *)

let usage =
  "usage:\n\
  \  e2e.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
  \          [--predlab PATH] [--golden FILE]\n\
  \  e2e.exe --smoke [--predlab PATH] [--golden FILE]\n\
  \  e2e.exe --summarize RUN.json... [vs RUN.json...]... [--benchmark FILE]\n\
   Without --workload every workload runs in turn. Workloads: paper_all, \
   sample_sweep, serve_eval, serve_mixed.\n"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref None and seed = ref 1 and seconds = ref 25. in
  let trace_flag = ref 0 and out = ref None and smoke_flag = ref false in
  let summarize_flag = ref false and files = ref [] in
  let predlab = ref "_build/default/bin/predlab.exe" in
  let golden = ref "predbench/golden/paper_all.digests" in
  let benchmark = ref "BENCHMARK.json" in
  let specs =
    [ ("--workload", Arg.String (fun w -> workload := Some w), "NAME  one workload");
      ("--seed", Arg.Set_int seed, "N  seed of every generated input");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds per workload");
      ("--trace", Arg.Set_int trace_flag, "0|1  per-layer metrics instead");
      ("--out", Arg.String (fun f -> out := Some f), "FILE  also write run.json");
      ("--predlab", Arg.Set_string predlab, "PATH  the predlab binary");
      ("--golden", Arg.Set_string golden, "FILE  pinned section digests");
      ("--smoke", Arg.Set smoke_flag, " small-scale correctness gates only");
      ("--summarize", Arg.Set summarize_flag, " compare run sets (files, split by vs)");
      ("--benchmark", Arg.Set_string benchmark, "FILE  bounds for --summarize") ]
  in
  let fail message =
    prerr_string ("e2e: " ^ message ^ "\n" ^ usage);
    exit 2
  in
  (try Arg.parse_argv Sys.argv specs (fun f -> files := !files @ [ f ]) usage with
   | Arg.Help text -> print_string text; exit 0
   | Arg.Bad text -> prerr_string text; exit 2);
  if !summarize_flag then begin
    let rec split current acc = function
      | [] -> List.rev (List.rev current :: acc)
      | "vs" :: rest -> split [] (List.rev current :: acc) rest
      | f :: rest -> split (f :: current) acc rest
    in
    let sets = split [] [] !files in
    if List.exists (( = ) []) sets then fail "--summarize needs run.json files";
    match summarize ~benchmark:!benchmark sets with
    | () -> ()
    | exception Failure message -> fail message
  end
  else begin
    if !files <> [] then fail ("unexpected argument " ^ List.hd !files);
    if not (Sys.file_exists !predlab) then fail ("no predlab binary at " ^ !predlab);
    if not (Sys.file_exists !golden) then fail ("no digest file at " ^ !golden);
    if !trace_flag <> 0 && !trace_flag <> 1 then fail "--trace takes 0 or 1";
    let cfg = { predlab = !predlab; golden = !golden; seed = !seed } in
    if !smoke_flag then smoke cfg
    else
      let names =
        match !workload with
        | None -> List.map fst workloads
        | Some w when List.mem_assoc w workloads -> [ w ]
        | Some w -> fail ("unknown workload " ^ w)
      in
      run_workloads cfg ~names ~seconds:!seconds ~trace:(!trace_flag = 1) ~out:!out
  end
