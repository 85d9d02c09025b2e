module Lineio = Prelude.Lineio

type t = {
  fd : Unix.file_descr;
  reader : Lineio.reader;
  closed : bool Atomic.t;
}

type error =
  | Timeout of float
  | Closed of string
  | Malformed of string

let error_message = function
  | Timeout s -> Printf.sprintf "timed out after %gs waiting for the daemon" s
  | Closed detail -> detail
  | Malformed detail -> detail

let connect ?(retry_for_s = 0.) ?max_frame path =
  let deadline = Prelude.Mono.now () +. retry_for_s in
  let attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      Ok
        { fd; reader = Lineio.reader ?max_line:max_frame fd;
          closed = Atomic.make false }
    | exception exn ->
      Lineio.close fd;
      Error exn
  in
  let rec go () =
    match attempt () with
    | Ok t -> Ok t
    | Error _ when Prelude.Mono.now () < deadline ->
      Prelude.Mono.sleep 0.02;
      go ()
    | Error exn ->
      Error (Printf.sprintf "%s: %s" path (Printexc.to_string exn))
  in
  go ()

let send ?timeout_s t json =
  match Lineio.write_line ?deadline_s:timeout_s t.fd (Prelude.Json.to_string json)
  with
  | Ok () -> Ok ()
  | Error `Timeout -> Error (Timeout (Option.value ~default:0. timeout_s))
  | Error `Closed -> Error (Closed "connection closed while sending")

let recv ?timeout_s t =
  match Lineio.read_line ?idle_s:timeout_s t.reader with
  | `Idle -> Error (Timeout (Option.value ~default:0. timeout_s))
  | `Eof | `Partial _ ->
    Error (Closed "connection closed before a response arrived")
  | `Oversized -> Error (Malformed "response exceeds the frame cap")
  | `Line line -> (
      match Prelude.Json.parse line with
      | Ok response -> Ok response
      | Error message -> Error (Malformed ("unparseable response: " ^ message)))

let request ?timeout_s t json =
  (* The budget covers the whole round trip: a deadline armed before the
     send keeps a daemon that reads but never answers from consuming
     [timeout_s] twice. *)
  match timeout_s with
  | None -> Result.bind (send t json) (fun () -> recv t)
  | Some budget ->
    let deadline = Prelude.Mono.now () +. budget in
    let remaining () = Float.max 0.001 (deadline -. Prelude.Mono.now ()) in
    Result.bind
      (send ~timeout_s:(remaining ()) t json)
      (fun () ->
         match recv ~timeout_s:(remaining ()) t with
         | Error (Timeout _) -> Error (Timeout budget)
         | other -> other)

let reply ?timeout_s t json =
  Result.bind (request ?timeout_s t json) (fun response ->
      Result.map_error (fun m -> Malformed m) (Protocol.reply_of_json response))

(* Close at most once: after the first close the kernel may hand the same
   descriptor number to another socket, which a second close would shut. *)
let close t =
  if Atomic.compare_and_set t.closed false true then Lineio.close t.fd

let call ?timeout_s socket json =
  Result.bind (connect socket) (fun t ->
      Fun.protect
        ~finally:(fun () -> close t)
        (fun () ->
           Result.map_error error_message (reply ?timeout_s t json)))
