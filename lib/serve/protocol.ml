module Json = Prelude.Json

type request =
  | Eval of { workload : string; state : int; input : int }
  | Run of { id : string; retries : int }
  | Sample of {
      workloads : string list;
      seed : int option;
      samples : int option;
      confidence : float option;
    }
  | Lint of { workloads : string list }
  | Certify of { workloads : string list }
  | Compare of {
      baseline : Json.t;
      current : Json.t;
      tolerance : float option;
    }
  | Stats
  | Shutdown

let op_name = function
  | Eval _ -> "eval"
  | Run _ -> "run"
  | Sample _ -> "sample"
  | Lint _ -> "lint"
  | Certify _ -> "certify"
  | Compare _ -> "compare"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

let request_to_json ?deadline_s request =
  let deadline =
    match deadline_s with
    | None -> []
    | Some d -> [ ("deadline", Json.Float d) ]
  in
  let opt name to_json = function
    | None -> []
    | Some v -> [ (name, to_json v) ]
  in
  let fields =
    match request with
    | Eval { workload; state; input } ->
      [ ("workload", Json.String workload); ("state", Json.Int state);
        ("input", Json.Int input) ]
    | Run { id; retries } ->
      ("id", Json.String id)
      :: (if retries = 0 then [] else [ ("retries", Json.Int retries) ])
    | Sample { workloads; seed; samples; confidence } ->
      [ ("workloads",
         Json.List (List.map (fun w -> Json.String w) workloads)) ]
      @ opt "seed" (fun s -> Json.Int s) seed
      @ opt "samples" (fun s -> Json.Int s) samples
      @ opt "confidence" (fun c -> Json.Float c) confidence
    | Lint { workloads } | Certify { workloads } ->
      [ ("workloads",
         Json.List (List.map (fun w -> Json.String w) workloads)) ]
    | Compare { baseline; current; tolerance } ->
      [ ("baseline", baseline); ("current", current) ]
      @ opt "tolerance" (fun t -> Json.Float t) tolerance
    | Stats | Shutdown -> []
  in
  Json.Obj (("op", Json.String (op_name request)) :: fields @ deadline)

(* --- Request parsing ---------------------------------------------------- *)

let ( let* ) = Result.bind

let field name conv json =
  match Option.bind (Json.member name json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "request needs a %S field" name)

let opt_field name conv json =
  match Json.member name json with
  | None -> Ok None
  | Some v -> (
      match conv v with
      | Some v -> Ok (Some v)
      | None -> Error (Printf.sprintf "malformed %S field" name))

let workloads_field json =
  match Json.member "workloads" json with
  | None -> Ok []
  | Some v -> (
      match Json.to_list v with
      | None -> Error "malformed \"workloads\" field (want a string array)"
      | Some items ->
        let rec strings acc = function
          | [] -> Ok (List.rev acc)
          | Json.String s :: rest -> strings (s :: acc) rest
          | _ -> Error "malformed \"workloads\" field (want a string array)"
        in
        strings [] items)

let request_of_json json =
  let* op = field "op" Json.string_value json in
  let* deadline_s = opt_field "deadline" Json.float_value json in
  let* () =
    match deadline_s with
    | Some d when d <= 0. -> Error "\"deadline\" must be > 0"
    | _ -> Ok ()
  in
  let* request =
    match op with
    | "eval" ->
      let* workload = field "workload" Json.string_value json in
      let* state = field "state" Json.int_value json in
      let* input = field "input" Json.int_value json in
      Ok (Eval { workload; state; input })
    | "run" ->
      let* id = field "id" Json.string_value json in
      let* retries = opt_field "retries" Json.int_value json in
      let retries = Option.value ~default:0 retries in
      if retries < 0 then Error "\"retries\" must be >= 0"
      else Ok (Run { id; retries })
    | "sample" ->
      let* workloads = workloads_field json in
      let* seed = opt_field "seed" Json.int_value json in
      let* samples = opt_field "samples" Json.int_value json in
      let* confidence = opt_field "confidence" Json.float_value json in
      Ok (Sample { workloads; seed; samples; confidence })
    | "lint" ->
      let* workloads = workloads_field json in
      Ok (Lint { workloads })
    | "certify" ->
      let* workloads = workloads_field json in
      Ok (Certify { workloads })
    | "compare" ->
      let doc name =
        match Json.member name json with
        | Some doc -> Ok doc
        | None -> Error (Printf.sprintf "request needs a %S field" name)
      in
      let* baseline = doc "baseline" in
      let* current = doc "current" in
      let* tolerance = opt_field "tolerance" Json.float_value json in
      let* () =
        match tolerance with
        | Some t when t < 0. -> Error "\"tolerance\" must be >= 0"
        | _ -> Ok ()
      in
      Ok (Compare { baseline; current; tolerance })
    | "stats" -> Ok Stats
    | "shutdown" -> Ok Shutdown
    | other ->
      Error
        (Printf.sprintf
           "unknown op %S (want \
            eval/run/sample/lint/certify/compare/stats/shutdown)"
           other)
  in
  Ok (request, deadline_s)

(* --- Response envelopes ------------------------------------------------- *)

let ok ~op result =
  Json.Obj
    [ ("ok", Json.Bool true); ("op", Json.String op); ("result", result) ]

let error ?op ?(fields = []) message =
  Json.Obj
    (( ("ok", Json.Bool false)
       :: (match op with
           | None -> []
           | Some op -> [ ("op", Json.String op) ]) )
     @ (("error", Json.String message) :: fields))

let overloaded ~conns ~queue =
  error
    ~fields:
      [ ("status", Json.String "overloaded");
        ("conns", Json.Int conns);
        ("queue", Json.Int queue) ]
    (Printf.sprintf
       "overloaded: all %d connection workers busy and the pending queue \
        (bound %d) is full; retry later" conns queue)

let oversized ~max_frame =
  error
    ~fields:
      [ ("status", Json.String "oversized");
        ("max_frame", Json.Int max_frame) ]
    (Printf.sprintf
       "frame exceeds %d bytes; request dropped, connection kept" max_frame)

(* --- Reading an envelope back ------------------------------------------- *)

type reply =
  | Answered of { op : string option; result : Json.t }
  | Refused of { message : string; status : string option }

let reply_of_json json =
  let member name = Json.member name json in
  let string name = Option.bind (member name) Json.string_value in
  match member "ok" with
  | Some (Json.Bool true) ->
    Ok
      (Answered
         { op = string "op";
           result = Option.value ~default:Json.Null (member "result") })
  | Some (Json.Bool false) ->
    Ok
      (Refused
         { message = Option.value ~default:"unknown error" (string "error");
           status = string "status" })
  | _ -> Error "malformed response envelope"
