module Json = Prelude.Json

type entry = {
  id : string;
  title : string;
  status : Report.status;
  attempts : int;
  checks : Report.check list;
  timing : Report.timing;
}

let entry_to_json e =
  Json.Obj
    ([ ("schema", Json.String "predlab/journal");
       ("version", Json.Int 1);
       ("id", Json.String e.id);
       ("title", Json.String e.title) ]
     @ Report.status_fields e.status
     @ [ ("attempts", Json.Int e.attempts);
         ("checks", Json.List (List.map Report.check_to_json e.checks));
         ("wall_s", Json.Float e.timing.Report.wall_s);
         ("cells", Json.Int e.timing.Report.cells);
         ("evals", Json.Int e.timing.Report.evals) ])

let entry_of_json json =
  let str field = Option.bind (Json.member field json) Json.string_value in
  let num field = Option.bind (Json.member field json) Json.float_value in
  let int field = Option.bind (Json.member field json) Json.int_value in
  match str "id", str "title" with
  | None, _ -> Error "journal entry without a string \"id\""
  | _, None -> Error "journal entry without a string \"title\""
  | Some id, Some title ->
    Result.bind (Report.status_of_json json) (fun status ->
        let checks =
          match Option.bind (Json.member "checks" json) Json.to_list with
          | None -> []
          | Some checks ->
            List.filter_map
              (fun c ->
                 match
                   Option.bind (Json.member "label" c) Json.string_value,
                   Option.bind (Json.member "passed" c) Json.bool_value
                 with
                 | Some label, Some passed -> Some (Report.check label passed)
                 | _ -> None)
              checks
        in
        Ok
          { id; title; status;
            attempts = Option.value ~default:1 (int "attempts");
            checks;
            timing =
              { Report.wall_s = Option.value ~default:0. (num "wall_s");
                cells = Option.value ~default:0 (int "cells");
                evals = Option.value ~default:0 (int "evals") } })

type writer = {
  mu : Mutex.t;
  channel : out_channel;
}

let create path =
  { mu = Mutex.create ();
    channel = open_out_gen [ Open_append; Open_creat ] 0o644 path }

(* One line per call, flushed and fsynced before the mutex is released:
   after [append] returns, the entry survives a process kill. The fsync is
   what makes "killed mid-run, then --resume" lose at most the experiments
   that had not finished — never one that had. *)
let append t e =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
       output_string t.channel (Json.to_string (entry_to_json e));
       output_char t.channel '\n';
       flush t.channel;
       Unix.fsync (Unix.descr_of_out_channel t.channel))

let close t =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () -> close_out t.channel)

(* Durability helper shared with the atomic-report writer: after a rename,
   the new directory entry lives in the parent directory's metadata, and
   only an fsync of the directory itself forces that to disk — fsyncing
   the data fd alone leaves a window where a crash rolls the rename back.
   Best-effort by design: some filesystems refuse fsync on a directory fd
   (EINVAL), which loses nothing relative to not calling it. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> Prelude.Lineio.close fd)
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* Atomic, durable document write: temp file in the same directory, data
   fsync, rename over the destination, parent-directory fsync. A crash at
   any point leaves either the complete old document or the complete new
   one — and once [write_atomic] returns, the new one survives power
   loss, not just process death. *)
let write_atomic path contents =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc contents;
      Out_channel.flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Unix.rename tmp path;
  fsync_dir (Filename.dirname path)

(* Replay through the bounded line reader rather than slurping the file:
   memory stays O(one line) however large the journal grew, and a single
   line over the 1 MiB frame cap — no append of ours ever writes one, so
   it is corruption or tampering — is a named load error, not an
   allocation storm. A torn final line (no trailing newline: the mark of
   a mid-write crash) is ignored, exactly as before. *)
let load path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> Ok []
  | fd ->
    Fun.protect
      ~finally:(fun () -> Prelude.Lineio.close fd)
      (fun () ->
         let reader = Prelude.Lineio.reader fd in
         let rec parse acc lineno =
           match Prelude.Lineio.read_line reader with
           | `Eof | `Partial _ -> Ok (List.rev acc)
           | `Idle -> assert false  (* no idle budget armed *)
           | `Oversized ->
             Error
               (Printf.sprintf
                  "%s:%d: journal line exceeds the %d-byte frame cap" path
                  lineno Prelude.Lineio.default_max_line)
           | `Line "" -> parse acc (lineno + 1)
           | `Line line when String.trim line = "" ->
             parse acc (lineno + 1)
           | `Line line -> (
               match Json.parse line with
               | Error message ->
                 Error (Printf.sprintf "%s:%d: %s" path lineno message)
               | Ok json -> (
                   match entry_of_json json with
                   | Error message ->
                     Error (Printf.sprintf "%s:%d: %s" path lineno message)
                   | Ok entry -> parse (entry :: acc) (lineno + 1)))
         in
         parse [] 1)

let completed_ids entries =
  let last_status =
    List.fold_left
      (fun acc e ->
         (e.id, e.status) :: List.remove_assoc e.id acc)
      [] entries
  in
  List.rev
    (List.filter_map
       (fun (id, status) ->
          match status with Report.Completed -> Some id | _ -> None)
       last_status)
