type item =
  | Label of string
  | Ins of Instr.t

type func = {
  name : string;
  body : item list;
}

type t = {
  code : Instr.t array;
  entry : int;
  labels : (string * int) list;
  functions : (string * (int * int)) list;
}

exception Invalid of string

let link funcs =
  if funcs = [] then raise (Invalid "program has no functions");
  (* First pass: compute label positions and function extents. *)
  let position = ref 0 in
  let labels = ref [] in
  let extents = ref [] in
  let add_label name =
    if List.mem_assoc name !labels then
      raise (Invalid (Printf.sprintf "duplicate label %S" name));
    labels := (name, !position) :: !labels
  in
  let scan_func f =
    let start = !position in
    add_label f.name;
    let scan_item = function
      | Label name -> add_label name
      | Ins _ -> incr position
    in
    List.iter scan_item f.body;
    if !position = start then
      raise (Invalid (Printf.sprintf "function %S is empty" f.name));
    extents := (f.name, (start, !position - start)) :: !extents
  in
  List.iter scan_func funcs;
  let labels = !labels in
  let check_target label =
    if not (List.mem_assoc label labels) then
      raise (Invalid (Printf.sprintf "unresolved label %S" label))
  in
  let code = Array.make !position Instr.Nop in
  let fill = ref 0 in
  let emit_item = function
    | Label _ -> ()
    | Ins ins ->
      (match ins with
       | Instr.Br (_, _, _, target) | Instr.Jmp target | Instr.Call target ->
         check_target target
       | Instr.Nop | Instr.Alu _ | Instr.Alui _ | Instr.Li _ | Instr.Mul _
       | Instr.Div _ | Instr.Ld _ | Instr.St _ | Instr.Sel _ | Instr.Ret
       | Instr.Halt -> ());
      code.(!fill) <- ins;
      incr fill
  in
  List.iter (fun f -> List.iter emit_item f.body) funcs;
  { code; entry = 0; labels; functions = List.rev !extents }

let entry t = t.entry
let length t = Array.length t.code
let resolve t name = List.assoc name t.labels
let instr t pc = t.code.(pc)
let instr_address _ pc = pc * 4
let functions t = t.functions

(* FNV-style fold over a canonical rendering of the code. Stable across
   processes (no [Hashtbl.hash] dependence on runtime internals), cheap to
   compute once per program, and sensitive to every instruction field via
   [Instr.pp] — the fast-path engine uses it to key memo tables. *)
let digest t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (string_of_int t.entry);
  Array.iter
    (fun ins ->
       Buffer.add_char buf '\n';
       Buffer.add_string buf (Format.asprintf "%a" Instr.pp ins))
    t.code;
  let h = ref 0x1505 in
  String.iter
    (fun c -> h := ((!h * 0x100000001b3) + Char.code c) land max_int)
    (Buffer.contents buf);
  !h

let function_of_pc t pc =
  let covers (_, (start, len)) = pc >= start && pc < start + len in
  match List.find_opt covers t.functions with
  | Some (name, _) -> name
  | None -> raise Not_found

let pp ppf t =
  Array.iteri
    (fun pc ins ->
       let marks =
         List.filter_map (fun (name, p) -> if p = pc then Some name else None)
           t.labels
       in
       List.iter (fun name -> Format.fprintf ppf "%s:@." name) marks;
       Format.fprintf ppf "  %4d  %a@." pc Instr.pp ins)
    t.code
