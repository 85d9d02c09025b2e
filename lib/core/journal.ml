module Json = Prelude.Json

type writer = {
  mu : Mutex.t;
  channel : out_channel;
}

let create path =
  { mu = Mutex.create ();
    channel = open_out_gen [ Open_append; Open_creat ] 0o644 path }

(* One line per call, flushed and fsynced before the mutex is released:
   after [append] returns, the line survives a process kill. The fsync is
   what makes "killed mid-run, then --resume" lose at most the experiments
   that had not finished — never one that had. *)
let append t json =
  let line = Json.to_string json in
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
       output_string t.channel line;
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

let temp_of path = path ^ ".tmp"

(* Atomic, durable document write: temp file in the same directory, data
   fsync, rename over the destination, parent-directory fsync. A crash at
   any point leaves either the complete old document or the complete new
   one — and once [write_atomic] returns, the new one survives power
   loss, not just process death. A write or rename that raises removes
   the temp file before re-raising, so a failed write leaves nothing
   behind. *)
let write_atomic path contents =
  let tmp = temp_of path in
  (try
     Out_channel.with_open_bin tmp (fun oc ->
         Out_channel.output_string oc contents;
         Out_channel.flush oc;
         Unix.fsync (Unix.descr_of_out_channel oc));
     Unix.rename tmp path
   with exn ->
     let bt = Printexc.get_raw_backtrace () in
     (try Sys.remove tmp with Sys_error _ -> ());
     Printexc.raise_with_backtrace exn bt);
  fsync_dir (Filename.dirname path)

let check_writable path =
  if Sys.file_exists path && Sys.is_directory path then
    raise (Sys_error (path ^ ": " ^ Unix.error_message Unix.EISDIR));
  let tmp = temp_of path in
  Out_channel.with_open_bin tmp ignore;
  Sys.remove tmp

(* Replay through the bounded line reader rather than slurping the file:
   memory stays O(one line) however large the journal grew, and a single
   line over the 1 MiB frame cap — no append of ours ever writes one, so
   it is corruption or tampering — is a named load error, not an
   allocation storm. A torn final line (no trailing newline: the mark of
   a mid-write crash) is ignored. *)
let load path decode =
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
           | `Line line when String.trim line = "" -> parse acc (lineno + 1)
           | `Line line -> (
               match Result.bind (Json.parse line) decode with
               | Error message ->
                 Error (Printf.sprintf "%s:%d: %s" path lineno message)
               | Ok entry -> parse (entry :: acc) (lineno + 1))
         in
         parse [] 1)
