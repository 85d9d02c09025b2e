type check = {
  label : string;
  passed : bool;
}

type outcome = {
  title : string;
  body : string;
  checks : check list;
}

type timing = {
  wall_s : float;
  cells : int;
  evals : int;
}

type status =
  | Completed
  | Crashed of { error : string }
  | Timed_out of { after_s : float }

let check label passed = { label; passed }

let all_passed outcome = List.for_all (fun c -> c.passed) outcome.checks

let timing_string t =
  Printf.sprintf "wall %.3fs  Q*I cells %d  kernel evals %d"
    t.wall_s t.cells t.evals

let check_to_json c =
  Prelude.Json.Obj
    [ ("label", Prelude.Json.String c.label);
      ("passed", Prelude.Json.Bool c.passed) ]

let timing_fields t =
  [ ("wall_s", Prelude.Json.Float t.wall_s);
    ("cells", Prelude.Json.Int t.cells);
    ("evals", Prelude.Json.Int t.evals) ]

let status_string = function
  | Completed -> "completed"
  | Crashed _ -> "crashed"
  | Timed_out _ -> "timed_out"

(* Status is flattened into the enclosing experiment object (schema v2), so
   the converter returns the field list, not a nested object. *)
let status_fields = function
  | Completed -> [ ("status", Prelude.Json.String "completed") ]
  | Crashed { error } ->
    [ ("status", Prelude.Json.String "crashed");
      ("error", Prelude.Json.String error) ]
  | Timed_out { after_s } ->
    [ ("status", Prelude.Json.String "timed_out");
      ("after_s", Prelude.Json.Float after_s) ]

(* Reads the v2 fields back; an object without a "status" field is a v1
   experiment record, i.e. one that ran to completion. *)
let status_of_json json =
  match Prelude.Json.member "status" json with
  | None -> Ok Completed
  | Some (Prelude.Json.String "completed") -> Ok Completed
  | Some (Prelude.Json.String "crashed") ->
    let error =
      match
        Option.bind (Prelude.Json.member "error" json)
          Prelude.Json.string_value
      with
      | Some error -> error
      | None -> "unknown error"
    in
    Ok (Crashed { error })
  | Some (Prelude.Json.String "timed_out") ->
    let after_s =
      match
        Option.bind (Prelude.Json.member "after_s" json)
          Prelude.Json.float_value
      with
      | Some s -> s
      | None -> 0.
    in
    Ok (Timed_out { after_s })
  | Some (Prelude.Json.String other) ->
    Error (Printf.sprintf "unknown experiment status %S" other)
  | Some _ -> Error "experiment \"status\" is not a string"

let render ~id outcome =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "=== %s: %s ===\n" id outcome.title);
  Buffer.add_string buf outcome.body;
  if outcome.body <> "" && not (String.length outcome.body > 0 &&
                                outcome.body.[String.length outcome.body - 1] = '\n')
  then Buffer.add_char buf '\n';
  List.iter
    (fun c ->
       Buffer.add_string buf
         (Printf.sprintf "  [%s] %s\n" (if c.passed then "PASS" else "FAIL") c.label))
    outcome.checks;
  Buffer.contents buf
