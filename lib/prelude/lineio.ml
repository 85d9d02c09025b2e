(* Bounded, deadline-aware line IO over raw file descriptors.

   The stdlib's [input_line] has two failure modes a server (or any
   long-running reader of untrusted bytes) cannot afford: it buffers an
   unterminated line without bound (one adversarial connection exhausts
   memory), and it blocks without limit (one wedged peer parks a worker
   forever). This module reads lines through a caller-owned buffer with a
   hard per-line byte cap and an optional monotonic-clock budget per call,
   and writes with the mirror-image budget. All waiting is [Unix.select]
   on the fd, so a budget of [None] degrades to plain blocking IO. *)

type line =
  [ `Line of string
  | `Partial of string
  | `Eof
  | `Oversized
  | `Idle ]

type reader = {
  fd : Unix.file_descr;
  max_line : int;
  chunk : Bytes.t;
  mutable pending : string;  (* bytes read but not yet returned *)
  mutable scanned : int;     (* prefix of [pending] known newline-free *)
}

let default_max_line = 1 lsl 20

let reader ?(max_line = default_max_line) fd =
  if max_line < 1 then invalid_arg "Lineio.reader: max_line must be >= 1";
  { fd; max_line; chunk = Bytes.create 8192; pending = ""; scanned = 0 }

(* Wait until [fd] is ready (readable or writable) or the monotonic
   deadline passes. [None] means block in the IO call itself. *)
let wait ~read fd deadline =
  match deadline with
  | None -> `Ready
  | Some deadline ->
    let rec go () =
      let remaining = deadline -. Mono.now () in
      if remaining <= 0. then `Deadline
      else
        let rd = if read then [ fd ] else [] in
        let wr = if read then [] else [ fd ] in
        match Unix.select rd wr [] remaining with
        | [], [], _ -> go ()
        | _ -> `Ready
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()

let read_line ?idle_s t =
  (match idle_s with
   | Some s when s <= 0. -> invalid_arg "Lineio.read_line: idle_s must be > 0"
   | _ -> ());
  let deadline = Option.map (fun s -> Mono.now () +. s) idle_s in
  (* [discarding] = the current line already blew the cap; its bytes are
     dropped until the terminating newline so the connection stays usable
     for the next request. *)
  let rec refill ~discarding =
    match wait ~read:true t.fd deadline with
    | `Deadline -> `Idle
    | `Ready -> (
        match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill ~discarding
        | exception Unix.Unix_error _ -> at_eof ~discarding
        | 0 -> at_eof ~discarding
        | n ->
          let s = Bytes.sub_string t.chunk 0 n in
          if discarding then
            match String.index_opt s '\n' with
            | Some i ->
              t.pending <-
                String.sub s (i + 1) (String.length s - i - 1);
              t.scanned <- 0;
              `Oversized
            | None -> refill ~discarding
          else begin
            t.pending <- t.pending ^ s;
            scan ()
          end)
  and at_eof ~discarding =
    if discarding then `Eof
    else if t.pending = "" then `Eof
    else begin
      let line = t.pending in
      t.pending <- "";
      t.scanned <- 0;
      `Partial line
    end
  and scan () =
    match String.index_from_opt t.pending t.scanned '\n' with
    | Some i ->
      let line = String.sub t.pending 0 i in
      t.pending <-
        String.sub t.pending (i + 1) (String.length t.pending - i - 1);
      t.scanned <- 0;
      if String.length line > t.max_line then `Oversized else `Line line
    | None ->
      t.scanned <- String.length t.pending;
      if t.scanned > t.max_line then begin
        t.pending <- "";
        t.scanned <- 0;
        refill ~discarding:true
      end
      else refill ~discarding:false
  in
  scan ()

let write_line ?deadline_s fd line =
  (match deadline_s with
   | Some s when s <= 0. ->
     invalid_arg "Lineio.write_line: deadline_s must be > 0"
   | _ -> ());
  let deadline = Option.map (fun s -> Mono.now () +. s) deadline_s in
  let data = line ^ "\n" in
  let len = String.length data in
  let rec go off =
    if off >= len then Ok ()
    else
      match wait ~read:false fd deadline with
      | `Deadline -> Error `Timeout
      | `Ready -> (
          match Unix.write_substring fd data off (len - off) with
          | exception
              Unix.Unix_error
                ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            go off
          | exception Unix.Unix_error _ -> Error `Closed
          | exception Sys_error _ -> Error `Closed
          | n -> go (off + n))
  in
  go 0

(* A close that cannot fail the caller. [EBADF] is the one error that
   means a bug rather than a bad peer: the descriptor was already closed,
   and if its number had been handed out again in between, this close
   shut somebody else's file. So it is counted, process-wide. *)
let bad = Atomic.make 0

let bad_closes () = Atomic.get bad

let close fd =
  try Unix.close fd with
  | Unix.Unix_error (Unix.EBADF, _, _) -> Atomic.incr bad
  | Unix.Unix_error _ -> ()
