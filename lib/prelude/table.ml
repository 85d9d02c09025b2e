type line = Row of string list | Separator

type t = {
  header : string list;
  mutable lines : line list;  (* reversed *)
}

let make ~header = { header; lines = [] }
let add_row t cells = t.lines <- Row cells :: t.lines
let add_separator t = t.lines <- Separator :: t.lines

let render t =
  let rows = List.rev t.lines in
  let all_cells =
    t.header :: List.filter_map (function Row r -> Some r | Separator -> None) rows
  in
  let columns =
    List.fold_left (fun acc r -> Stdlib.max acc (List.length r)) 0 all_cells
  in
  let width i =
    let cell_width r = try String.length (List.nth r i) with Failure _ -> 0 in
    List.fold_left (fun acc r -> Stdlib.max acc (cell_width r)) 0 all_cells
  in
  let widths = List.init columns width in
  let render_cells cells =
    let padded =
      List.mapi
        (fun i w ->
           let cell = try List.nth cells i with Failure _ -> "" in
           cell ^ String.make (w - String.length cell) ' ')
        widths
    in
    "| " ^ String.concat " | " padded ^ " |"
  in
  let sep =
    "|" ^ String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "|"
  in
  let body =
    List.map
      (function Row r -> render_cells r | Separator -> sep)
      rows
  in
  String.concat "\n" ((render_cells t.header :: sep :: body) @ [ "" ])
