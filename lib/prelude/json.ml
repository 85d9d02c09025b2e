type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- Emitter ----------------------------------------------------------- *)

(* The JSON string literal for [s], including the surrounding quotes. *)
let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\b' -> Buffer.add_string buf "\\b"
       | '\012' -> Buffer.add_string buf "\\f"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* Shortest %.Ng rendering that parses back to exactly the same double:
   reprinting the parsed value re-runs the same deterministic search, so the
   text is a fixed point (the stability the .mli promises). %.17g always
   round-trips IEEE doubles, so the search terminates.

   Non-finite floats raise: JSON has no nan/infinity literal, and the old
   silent [null] coercion meant a long-running emitter could corrupt a
   document (a number field becoming null) without anyone noticing. *)
let float_string f =
  if not (Float.is_finite f) then
    invalid_arg
      (Printf.sprintf "Json: cannot emit non-finite float %h (JSON has no \
                       nan/infinity; encode such values explicitly)" f)
  else begin
    let rec search p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else search (p + 1)
    in
    let s = search 1 in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"
  end

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_string f)
  | String s -> Buffer.add_string buf (escape_string s)
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
         if i > 0 then Buffer.add_char buf ',';
         emit buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (key, value) ->
         if i > 0 then Buffer.add_char buf ',';
         Buffer.add_string buf (escape_string key);
         Buffer.add_char buf ':';
         emit buf value)
      fields;
    Buffer.add_char buf '}'

let to_string json =
  let buf = Buffer.create 256 in
  emit buf json;
  Buffer.contents buf

let to_string_pretty json =
  let buf = Buffer.create 1024 in
  let pad depth = Buffer.add_string buf (String.make (2 * depth) ' ') in
  let rec pp depth = function
    | (Null | Bool _ | Int _ | Float _ | String _) as scalar ->
      emit buf scalar
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
           if i > 0 then Buffer.add_string buf ",\n";
           pad (depth + 1);
           pp (depth + 1) item)
        items;
      Buffer.add_char buf '\n';
      pad depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (key, value) ->
           if i > 0 then Buffer.add_string buf ",\n";
           pad (depth + 1);
           Buffer.add_string buf (escape_string key);
           Buffer.add_string buf ": ";
           pp (depth + 1) value)
        fields;
      Buffer.add_char buf '\n';
      pad depth;
      Buffer.add_char buf '}'
  in
  pp 0 json;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- Parser ------------------------------------------------------------ *)

exception Fail of int * string

let parse input =
  let n = String.length input in
  let fail pos msg = raise (Fail (pos, msg)) in
  let peek pos = if pos < n then Some input.[pos] else None in
  let rec skip_ws pos =
    match peek pos with
    | Some (' ' | '\t' | '\n' | '\r') -> skip_ws (pos + 1)
    | _ -> pos
  in
  let expect pos c =
    match peek pos with
    | Some got when got = c -> pos + 1
    | Some got -> fail pos (Printf.sprintf "expected %C, found %C" c got)
    | None -> fail pos (Printf.sprintf "expected %C, found end of input" c)
  in
  let literal pos word value =
    let len = String.length word in
    if pos + len <= n && String.sub input pos len = word then (value, pos + len)
    else fail pos (Printf.sprintf "expected %s" word)
  in
  let hex4 pos =
    if pos + 4 > n then fail pos "truncated \\u escape";
    let digit i =
      match input.[pos + i] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | c -> fail (pos + i) (Printf.sprintf "invalid hex digit %C" c)
    in
    (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4) lor digit 3
  in
  let parse_string pos =
    let pos = expect pos '"' in
    let buf = Buffer.create 16 in
    let rec loop pos =
      match peek pos with
      | None -> fail pos "unterminated string"
      | Some '"' -> (Buffer.contents buf, pos + 1)
      | Some '\\' -> (
          match peek (pos + 1) with
          | None -> fail (pos + 1) "truncated escape"
          | Some '"' -> Buffer.add_char buf '"'; loop (pos + 2)
          | Some '\\' -> Buffer.add_char buf '\\'; loop (pos + 2)
          | Some '/' -> Buffer.add_char buf '/'; loop (pos + 2)
          | Some 'b' -> Buffer.add_char buf '\b'; loop (pos + 2)
          | Some 'f' -> Buffer.add_char buf '\012'; loop (pos + 2)
          | Some 'n' -> Buffer.add_char buf '\n'; loop (pos + 2)
          | Some 'r' -> Buffer.add_char buf '\r'; loop (pos + 2)
          | Some 't' -> Buffer.add_char buf '\t'; loop (pos + 2)
          | Some 'u' ->
            let hi = hex4 (pos + 2) in
            if hi >= 0xD800 && hi <= 0xDBFF then begin
              (* High surrogate: must pair with \uDC00-\uDFFF. *)
              if not (pos + 8 < n && input.[pos + 6] = '\\'
                      && input.[pos + 7] = 'u')
              then fail (pos + 2) "unpaired high surrogate";
              let lo = hex4 (pos + 8) in
              if lo < 0xDC00 || lo > 0xDFFF then
                fail (pos + 8) "unpaired high surrogate";
              let cp =
                0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
              in
              Buffer.add_utf_8_uchar buf (Uchar.of_int cp);
              loop (pos + 12)
            end
            else if hi >= 0xDC00 && hi <= 0xDFFF then
              fail (pos + 2) "unpaired low surrogate"
            else begin
              Buffer.add_utf_8_uchar buf (Uchar.of_int hi);
              loop (pos + 6)
            end
          | Some c -> fail (pos + 1) (Printf.sprintf "invalid escape \\%c" c))
      | Some c when Char.code c < 0x20 ->
        fail pos "unescaped control character in string"
      | Some c -> Buffer.add_char buf c; loop (pos + 1)
    in
    loop pos
  in
  let parse_number pos =
    let start = pos in
    let pos = if peek pos = Some '-' then pos + 1 else pos in
    let digits p =
      let rec go p =
        match peek p with Some '0' .. '9' -> go (p + 1) | _ -> p
      in
      let p' = go p in
      if p' = p then fail p "expected digit";
      p'
    in
    let pos = digits pos in
    let pos, is_float =
      if peek pos = Some '.' then (digits (pos + 1), true) else (pos, false)
    in
    let pos, is_float =
      match peek pos with
      | Some ('e' | 'E') ->
        let p =
          match peek (pos + 1) with
          | Some ('+' | '-') -> pos + 2
          | _ -> pos + 1
        in
        (digits p, true)
      | _ -> (pos, is_float)
    in
    let text = String.sub input start (pos - start) in
    (* A grammatically valid literal can still overflow the double range
       ([1e400] parses to [infinity]); accepting it would hand callers a
       value the emitter must refuse, so the round trip parse-emit-parse
       would break. Reject it here instead. *)
    let finite_float () =
      let f = float_of_string text in
      if Float.is_finite f then Float f
      else fail start "number out of double range"
    in
    let value =
      if is_float then finite_float ()
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> finite_float ()  (* beyond native int range *)
    in
    (value, pos)
  in
  let rec parse_value pos =
    let pos = skip_ws pos in
    match peek pos with
    | None -> fail pos "expected value, found end of input"
    | Some 'n' -> literal pos "null" Null
    | Some 't' -> literal pos "true" (Bool true)
    | Some 'f' -> literal pos "false" (Bool false)
    | Some '"' ->
      let s, pos = parse_string pos in
      (String s, pos)
    | Some ('-' | '0' .. '9') -> parse_number pos
    | Some '[' ->
      let pos = skip_ws (pos + 1) in
      if peek pos = Some ']' then (List [], pos + 1)
      else
        let rec items acc pos =
          let v, pos = parse_value pos in
          let pos = skip_ws pos in
          match peek pos with
          | Some ',' -> items (v :: acc) (pos + 1)
          | Some ']' -> (List (List.rev (v :: acc)), pos + 1)
          | _ -> fail pos "expected ',' or ']' in array"
        in
        items [] pos
    | Some '{' ->
      let pos = skip_ws (pos + 1) in
      if peek pos = Some '}' then (Obj [], pos + 1)
      else
        let field pos =
          let pos = skip_ws pos in
          let key, pos = parse_string pos in
          let pos = expect (skip_ws pos) ':' in
          let v, pos = parse_value pos in
          ((key, v), pos)
        in
        let rec fields acc pos =
          let kv, pos = field pos in
          let pos = skip_ws pos in
          match peek pos with
          | Some ',' -> fields (kv :: acc) (pos + 1)
          | Some '}' -> (Obj (List.rev (kv :: acc)), pos + 1)
          | _ -> fail pos "expected ',' or '}' in object"
        in
        fields [] pos
    | Some c -> fail pos (Printf.sprintf "unexpected character %C" c)
  in
  match parse_value 0 with
  | value, pos ->
    let pos = skip_ws pos in
    if pos = n then Ok value
    else Error (Printf.sprintf "trailing content at offset %d" pos)
  | exception Fail (pos, msg) ->
    Error (Printf.sprintf "%s at offset %d" msg pos)

let parse_exn input =
  match parse input with
  | Ok v -> v
  | Error msg -> invalid_arg ("Json.parse: " ^ msg)

(* --- Accessors --------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List items -> Some items | _ -> None
let string_value = function String s -> Some s | _ -> None
let bool_value = function Bool b -> Some b | _ -> None
let int_value = function Int n -> Some n | _ -> None

let float_value = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None
