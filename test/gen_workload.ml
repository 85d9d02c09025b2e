(* The one generator of structured workloads for every property that
   quantifies over programs. A failure shrinks to a smaller program.

   A workload is [main] plus up to three callees f1..f3; a callee calls
   only later callees, since Analysis.Wcet rejects recursion. Calls occur
   in loops and in both arms of an If. 2-5 inputs vary the input registers
   and data words. Registers:
   - r0..r7 count loops, one per function and nesting depth, so no callee
     resets a counter that a loop up the call chain still counts with;
   - r8..r13 hold data; every If condition reads an input register
     (r8..r10);
   - r15, the memory base, is only loaded with non-negative constants:
     the packed replay requires non-negative addresses;
   - r14 ([Isa.Ast.zero]) is never written.
   A Div follows the Li of its non-zero divisor; the shrinker drops both. *)

open Isa.Instr

let max_depth = 2
let counter ~func ~depth = Isa.Reg.make ((max_depth * func) + depth)
let data = Array.init 6 (fun i -> Isa.Reg.make (8 + i))
let input_regs = Array.sub data 0 3
let base = Isa.Reg.r15
let words = 32

(* One instruction, or the pair that sets up a memory access or a Div. *)
let instrs =
  let open QCheck.Gen in
  let r = oneofa data and imm = int_range (-20) 20 in
  let op = oneofl [ Add; Sub; And; Or; Xor; Shl; Shr; Slt ] in
  let at = int_range 0 (words - 8) and off = int_range 0 7 in
  let divisor = oneof [ int_range (-300) (-1); int_range 1 300 ] in
  frequency
    [ (3, map3 (fun op rd (a, b) -> [ Alu (op, rd, a, b) ]) op r (pair r r));
      (2, map3 (fun op (rd, a) k -> [ Alui (op, rd, a, k) ]) op (pair r r) imm);
      (2, map2 (fun rd k -> [ Li (rd, k) ]) r imm);
      (2, map3 (fun rd ra rb -> [ Mul (rd, ra, rb) ]) r r r);
      (1, map2 (fun (rd, rc) (ra, rb) -> [ Sel (rd, rc, ra, rb) ])
         (pair r r) (pair r r));
      (2, map3 (fun rd a o -> [ Li (base, a); Ld (rd, base, o) ]) r at off);
      (1, map3 (fun rs a o -> [ Li (base, a); St (rs, base, o) ]) r at off);
      (1, map3 (fun (rd, ra) rb k -> [ Li (rb, k); Div (rd, ra, rb) ])
         (pair r r) r divisor) ]

let block =
  QCheck.Gen.(map (fun units -> Isa.Ast.Block (List.concat units))
                (list_size (int_range 1 4) instrs))

let cond =
  QCheck.Gen.(map3 (fun cmp ra rb -> { Isa.Ast.cmp; ra; rb })
                (oneofl [ Eq; Ne; Lt; Ge ]) (oneofa input_regs) (oneofa data))

(* [later] are the callees function number [func] may call. *)
let rec node ~func ~later ~depth size =
  let open QCheck.Gen in
  let sub depth = node ~func ~later ~depth (size - 1) in
  let loop count body =
    Isa.Ast.Loop { count; counter = counter ~func ~depth; body }
  in
  if size <= 0 then block
  else
    frequency
      ([ (2, block);
         (2, map (fun nodes -> Isa.Ast.Seq nodes)
            (list_size (int_range 2 3) (sub depth)));
         (3, map3 (fun c a b -> Isa.Ast.If (c, a, b)) cond (sub depth)
            (sub depth)) ]
       @ (if depth < max_depth then
            [ (2, map2 loop (int_range 1 4) (sub (depth + 1))) ]
          else [])
       @
       if later = [] then []
       else [ (3, map (fun f -> Isa.Ast.Call f) (oneofl later)) ])

let input addrs =
  let open QCheck.Gen in
  let value = oneof [ int_range (-4) 4; int_range (-300) 300 ] in
  let bind keys = flatten_l (List.map (fun k -> pair (return k) value) keys) in
  map2 (fun regs mem -> Isa.Exec.input ~regs ~mem ())
    (bind (Array.to_list input_regs)) (bind addrs)

let gen =
  let open QCheck.Gen in
  let* callees = int_range 0 3 in
  let names =
    "main" :: List.init callees (fun k -> Printf.sprintf "f%d" (k + 1))
  in
  let func k name =
    let later = List.filteri (fun j _ -> j > k) names in
    map (fun body -> { Isa.Ast.name; body }) (node ~func:k ~later ~depth:0 3)
  in
  let* funcs = flatten_l (List.mapi func names) in
  let* addrs = list_size (int_range 0 3) (int_range 0 (words - 1)) in
  let* inputs = list_size (int_range 2 5) (input addrs) in
  return
    { Isa.Workload.name = "generated"; description = "generated workload";
      funcs; inputs; result_regs = Array.to_list data }

(* --- Printing and shrinking ----------------------------------------------- *)

let print (w : Isa.Workload.t) =
  let sep ppf () = Format.pp_print_string ppf ", " in
  let bindings pp_key =
    Format.pp_print_list ~pp_sep:sep (fun ppf (k, v) ->
        Format.fprintf ppf "%a=%d" pp_key k v)
  in
  let pp_input ppf (i : Isa.Exec.input) =
    Format.fprintf ppf "{%a; %a}" (bindings Isa.Reg.pp) i.Isa.Exec.regs
      (bindings (fun ppf -> Format.fprintf ppf "mem[%d]")) i.Isa.Exec.mem
  in
  let pp_func ppf (f : Isa.Ast.func) =
    Format.fprintf ppf "@[<v 2>%s:@ %a@]" f.Isa.Ast.name Isa.Ast.pp
      f.Isa.Ast.body
  in
  Format.asprintf "@[<v>%a@ inputs:@ %a@]" (Format.pp_print_list pp_func)
    w.Isa.Workload.funcs (Format.pp_print_list pp_input) w.Isa.Workload.inputs

let without i xs = List.filteri (fun j _ -> j <> i) xs

(* Every copy of [xs] with one element shrunk one step. *)
let shrink_one shrink xs =
  List.concat
    (List.mapi
       (fun i x ->
          List.map (fun x' -> List.mapi (fun j y -> if i = j then x' else y) xs)
            (shrink x))
       xs)

(* Dropping the Li that loads a divisor drops its Div too. *)
let drop_instr i instrs =
  match List.nth instrs i, List.nth_opt instrs (i + 1) with
  | Li (r, _), Some (Div (_, _, d)) when Isa.Reg.equal r d ->
    without i (without i instrs)
  | _ -> without i instrs

(* One-step shrinks of a node, coarsest first. *)
let rec shrink_node = function
  | Isa.Ast.Block instrs ->
    List.mapi (fun i _ -> Isa.Ast.Block (drop_instr i instrs)) instrs
  | Isa.Ast.Seq nodes ->
    List.mapi (fun i _ -> Isa.Ast.Seq (without i nodes)) nodes
    @ List.map (fun nodes -> Isa.Ast.Seq nodes) (shrink_one shrink_node nodes)
  | Isa.Ast.If (c, a, b) ->
    (a :: b :: List.map (fun a -> Isa.Ast.If (c, a, b)) (shrink_node a))
    @ List.map (fun b -> Isa.Ast.If (c, a, b)) (shrink_node b)
  | Isa.Ast.Loop l ->
    (l.body
     :: (if l.count > 1 then [ Isa.Ast.Loop { l with count = l.count - 1 } ]
         else []))
    @ List.map (fun body -> Isa.Ast.Loop { l with body }) (shrink_node l.body)
  | Isa.Ast.Call _ -> [ Isa.Ast.Block [] ]
  | Isa.Ast.While _ -> []

let rec calls = function
  | Isa.Ast.Call f -> [ f ]
  | Isa.Ast.Block _ -> []
  | Isa.Ast.Seq nodes -> List.concat_map calls nodes
  | Isa.Ast.If (_, a, b) -> calls a @ calls b
  | Isa.Ast.Loop { body; _ } | Isa.Ast.While { body; _ } -> calls body

(* Drop an unused callee, shrink a function body, or drop an input while
   more than two are left. *)
let shrink (w : Isa.Workload.t) =
  let funcs = w.Isa.Workload.funcs and inputs = w.Isa.Workload.inputs in
  let called = List.concat_map (fun f -> calls f.Isa.Ast.body) funcs in
  let drop_unused i (f : Isa.Ast.func) =
    if i = 0 || List.mem f.Isa.Ast.name called then []
    else [ { w with funcs = without i funcs } ]
  in
  let shrink_func (f : Isa.Ast.func) =
    List.map (fun body -> { f with body }) (shrink_node f.Isa.Ast.body)
  in
  QCheck.Iter.of_list
    (List.concat (List.mapi drop_unused funcs)
     @ List.map (fun funcs -> { w with funcs }) (shrink_one shrink_func funcs)
     @
     if List.length inputs <= 2 then []
     else List.mapi (fun i _ -> { w with inputs = without i inputs }) inputs)

let arbitrary = QCheck.make ~print ~shrink gen

(* --- Pinned counterexamples ---------------------------------------------- *)

(* A generated failure, shrunk by hand: both arms of an input-dependent
   branch call f, so f's entry postdominates the branch, yet the code after
   the then-arm's call runs on one input only. *)
let call_in_both_arms =
  let open Isa.Reg in
  let after_call = Isa.Ast.Block [ Mul (r9, r7, r7); Li (r11, 1) ] in
  let with_r10 v = Isa.Exec.input ~regs:[ (r10, v); (r7, 3) ] () in
  { Isa.Workload.name = "call_in_both_arms"; description = "call in both arms";
    funcs =
      [ { Isa.Ast.name = "main";
          body =
            Isa.Ast.If ({ Isa.Ast.cmp = Lt; ra = r10; rb = r8 },
                        Isa.Ast.Seq [ Isa.Ast.Call "f"; after_call ],
                        Isa.Ast.Call "f") };
        { Isa.Ast.name = "f"; body = Isa.Ast.Block [ Alui (Add, r7, r7, 1) ] }
      ];
    inputs = [ with_r10 (-1); with_r10 1 ]; result_regs = [ r11 ] }
