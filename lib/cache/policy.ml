type kind = Lru | Fifo | Plru | Mru | Round_robin

let all_kinds = [ Lru; Fifo; Plru; Mru; Round_robin ]

let kind_name = function
  | Lru -> "LRU"
  | Fifo -> "FIFO"
  | Plru -> "PLRU"
  | Mru -> "MRU"
  | Round_robin -> "RR"

(* PLRU tree: a node's bit points to the subtree holding the next victim. *)
type tree =
  | Leaf of int option
  | Node of bool * tree * tree

type state =
  | Slru of int * int list          (* ways, tags MRU-first *)
  | Sfifo of int * int list         (* ways, tags newest-first *)
  | Splru of tree
  | Smru of (int option * bool) list  (* ways in physical order, MRU-bit *)
  | Srr of int option list * int    (* ways in physical order, next victim *)

let rec build_tree ways =
  if ways = 1 then Leaf None
  else Node (false, build_tree (ways / 2), build_tree (ways / 2))

let init kind ~ways =
  if ways < 1 then invalid_arg "Policy.init: ways must be >= 1";
  match kind with
  | Lru -> Slru (ways, [])
  | Fifo -> Sfifo (ways, [])
  | Plru ->
    if ways land (ways - 1) <> 0 || ways > 8 then
      invalid_arg "Policy.init: PLRU requires ways in {1,2,4,8}"
    else Splru (build_tree ways)
  | Mru -> Smru (List.init ways (fun _ -> (None, false)))
  | Round_robin -> Srr (List.init ways (fun _ -> None), 0)

let rec tree_ways = function
  | Leaf _ -> 1
  | Node (_, left, right) -> tree_ways left + tree_ways right

let ways = function
  | Slru (w, _) | Sfifo (w, _) -> w
  | Splru t -> tree_ways t
  | Smru ws -> List.length ws
  | Srr (ws, _) -> List.length ws

let kind = function
  | Slru _ -> Lru
  | Sfifo _ -> Fifo
  | Splru _ -> Plru
  | Smru _ -> Mru
  | Srr _ -> Round_robin

let rec tree_resident tag = function
  | Leaf (Some t) -> t = tag
  | Leaf None -> false
  | Node (_, left, right) -> tree_resident tag left || tree_resident tag right

(* Touch [tag] (known resident): flip bits along its path to point away. *)
let rec tree_touch tag = function
  | Leaf _ as leaf -> leaf
  | Node (bit, left, right) ->
    if tree_resident tag left then Node (true, tree_touch tag left, right)
    else if tree_resident tag right then Node (false, left, tree_touch tag right)
    else Node (bit, left, right)

let rec tree_has_empty = function
  | Leaf None -> true
  | Leaf (Some _) -> false
  | Node (_, left, right) -> tree_has_empty left || tree_has_empty right

(* Fill the leftmost empty leaf with [tag], flipping bits away from it. *)
let rec tree_fill tag = function
  | Leaf None -> Leaf (Some tag)
  | Leaf (Some _) as leaf -> leaf
  | Node (bit, left, right) ->
    if tree_has_empty left then Node (true, tree_fill tag left, right)
    else if tree_has_empty right then Node (false, left, tree_fill tag right)
    else Node (bit, left, right)

(* Replace the victim designated by the bits, flipping bits away from it. *)
let rec tree_evict tag = function
  | Leaf _ -> Leaf (Some tag)
  | Node (bit, left, right) ->
    if bit then Node (false, left, tree_evict tag right)
    else Node (true, tree_evict tag left, right)

let access state tag =
  match state with
  | Slru (w, tags) ->
    let hit = List.mem tag tags in
    let rest = List.filter (fun t -> t <> tag) tags in
    let tags' = tag :: Prelude.Listx.take (w - 1) rest in
    (hit, Slru (w, tags'))
  | Sfifo (w, tags) ->
    if List.mem tag tags then (true, state)
    else (false, Sfifo (w, tag :: Prelude.Listx.take (w - 1) tags))
  | Splru tree ->
    if tree_resident tag tree then (true, Splru (tree_touch tag tree))
    else if tree_has_empty tree then (false, Splru (tree_fill tag tree))
    else (false, Splru (tree_evict tag tree))
  | Smru ways_list ->
    let hit = List.exists (fun (t, _) -> t = Some tag) ways_list in
    if hit then begin
      let set_bit = List.map (fun (t, b) -> (t, b || t = Some tag)) ways_list in
      (* If every bit is now set, clear all but the just-accessed way. *)
      let all_set = List.for_all snd set_bit in
      let final =
        if all_set then List.map (fun (t, _) -> (t, t = Some tag)) set_bit
        else set_bit
      in
      (true, Smru final)
    end
    else begin
      (* Victim: first invalid way, else first way with MRU-bit 0. *)
      let rec place seen = function
        | [] ->
          (* All bits set and no invalid way cannot happen: bits are cleared
             when the last zero bit would be set. Fall back to replacing the
             first way. *)
          (match List.rev seen with
           | [] -> [ (Some tag, true) ]
           | _ :: rest -> (Some tag, true) :: rest)
        | (None, _) :: rest -> List.rev_append seen ((Some tag, true) :: rest)
        | (Some _, false) :: rest ->
          List.rev_append seen ((Some tag, true) :: rest)
        | ((Some _, true) as w) :: rest -> place (w :: seen) rest
      in
      let placed = place [] ways_list in
      let all_set = List.for_all snd placed in
      let final =
        if all_set then List.map (fun (t, _) -> (t, t = Some tag)) placed
        else placed
      in
      (false, Smru final)
    end
  | Srr (ways_list, next) ->
    if List.exists (fun t -> t = Some tag) ways_list then (true, state)
    else begin
      let ways_arr = Array.of_list ways_list in
      (* Prefer an invalid way; otherwise replace at the pointer. *)
      let invalid = ref (-1) in
      Array.iteri (fun i t -> if t = None && !invalid < 0 then invalid := i)
        ways_arr;
      let slot = if !invalid >= 0 then !invalid else next in
      ways_arr.(slot) <- Some tag;
      let next' = if !invalid >= 0 then next else (next + 1) mod Array.length ways_arr in
      (false, Srr (Array.to_list ways_arr, next'))
    end

let resident state tag =
  match state with
  | Slru (_, tags) | Sfifo (_, tags) -> List.mem tag tags
  | Splru tree -> tree_resident tag tree
  | Smru ways_list -> List.exists (fun (t, _) -> t = Some tag) ways_list
  | Srr (ways_list, _) -> List.exists (fun t -> t = Some tag) ways_list

let rec tree_contents = function
  | Leaf t -> [ t ]
  | Node (_, left, right) -> tree_contents left @ tree_contents right

let contents state =
  match state with
  | Slru (w, tags) | Sfifo (w, tags) ->
    List.map (fun t -> Some t) tags
    @ List.init (w - List.length tags) (fun _ -> None)
  | Splru tree -> tree_contents tree
  | Smru ways_list -> List.map fst ways_list
  | Srr (ways_list, _) -> ways_list

let equal a b = a = b
let compare = Stdlib.compare

let kind_ordinal = function
  | Lru -> 0
  | Fifo -> 1
  | Plru -> 2
  | Mru -> 3
  | Round_robin -> 4

(* Canonical integer encoding of the complete state: kind, geometry, slot
   contents in policy order, and the policy metadata that [contents] alone
   does not carry (MRU bits, PLRU bits, RR pointer). Injective on states,
   so it can serve both as a memo-table key component and as the source for
   the fast path's bit-packed replay arrays. Empty slots encode as -1. *)
let pack state =
  let slot = function None -> -1 | Some t -> t in
  let slots = List.map slot (contents state) in
  let meta =
    match state with
    | Slru _ | Sfifo _ -> []
    | Splru tree ->
      let rec bits = function
        | Leaf _ -> []
        | Node (b, left, right) -> (if b then 1 else 0) :: (bits left @ bits right)
      in
      bits tree
    | Smru ways_list -> List.map (fun (_, b) -> if b then 1 else 0) ways_list
    | Srr (_, next) -> [ next ]
  in
  (kind_ordinal (kind state) :: ways state :: slots) @ meta

let meta_width kind ~ways =
  match kind with
  | Lru | Fifo -> 0
  | Round_robin -> 1
  | Plru -> ways - 1
  | Mru -> ways

(* In-place single-set access on a packed segment laid out as [pack]'s
   slot and metadata sections: [slots.(base .. base + ways - 1)] holds tags
   in policy order (LRU MRU-first, FIFO newest-first, PLRU leaves left to
   right, MRU/RR physical), -1 marking empty slots; [meta.(mbase ..)] holds
   the [meta_width] metadata words (RR victim pointer, PLRU tree bits in
   pre-order, MRU bits). Tags must be non-negative. Mirrors [access]
   exactly, including on sets that are not full — pinned by the test suite;
   empty (-1) slots sit at the list tail for LRU/FIFO, so a plain shift
   reproduces the list semantics on non-full sets. *)
let packed_step kind ~slots ~base ~ways ~meta ~mbase tag =
  let pos = ref (-1) in
  (try
     for k = 0 to ways - 1 do
       if slots.(base + k) = tag then begin
         pos := k;
         raise Exit
       end
     done
   with Exit -> ());
  match kind with
  | Lru ->
    (* Hit: rotate the prefix up to the tag's slot; miss: rotate the whole
       set, dropping the LRU tail. *)
    let upto = if !pos >= 0 then !pos else ways - 1 in
    for k = upto downto 1 do
      slots.(base + k) <- slots.(base + k - 1)
    done;
    slots.(base) <- tag;
    !pos >= 0
  | Fifo ->
    if !pos >= 0 then true
    else begin
      for k = ways - 1 downto 1 do
        slots.(base + k) <- slots.(base + k - 1)
      done;
      slots.(base) <- tag;
      false
    end
  | Round_robin ->
    if !pos >= 0 then true
    else begin
      let invalid = ref (-1) in
      for k = ways - 1 downto 0 do
        if slots.(base + k) = -1 then invalid := k
      done;
      if !invalid >= 0 then slots.(base + !invalid) <- tag
      else begin
        slots.(base + meta.(mbase)) <- tag;
        meta.(mbase) <- (meta.(mbase) + 1) mod ways
      end;
      false
    end
  | Plru ->
    (* A node's bit is 1 when the next victim lies in its right subtree; in
       pre-order, the node over [size] leaves at index [i] has its children
       at [i + 1] and [i + size / 2]. The target leaf is the hit, else the
       leftmost empty leaf, else the victim the bits designate; every node
       on its path is pointed away from it. *)
    let target = ref !pos in
    if !target < 0 then begin
      target := 0;
      while !target < ways && slots.(base + !target) <> -1 do incr target done
    end;
    let victim = !target = ways in
    let node = ref 0 and lo = ref 0 and size = ref ways in
    while !size > 1 do
      let half = !size / 2 in
      let right =
        if victim then meta.(mbase + !node) = 1 else !target >= !lo + half
      in
      meta.(mbase + !node) <- (if right then 0 else 1);
      if right then begin
        lo := !lo + half;
        node := !node + half
      end
      else incr node;
      size := half
    done;
    slots.(base + !lo) <- tag;
    !pos >= 0
  | Mru ->
    (* The target is the hit, else the first way that is empty or has its
       bit clear, else way 0. Its bit is set; if that sets every bit, all
       the others are cleared. *)
    let target = ref !pos in
    if !target < 0 then begin
      let k = ref 0 in
      while
        !k < ways && slots.(base + !k) <> -1 && meta.(mbase + !k) = 1
      do
        incr k
      done;
      target := if !k < ways then !k else 0
    end;
    slots.(base + !target) <- tag;
    meta.(mbase + !target) <- 1;
    let k = ref 0 in
    while !k < ways && meta.(mbase + !k) = 1 do incr k done;
    if !k = ways then
      for k = 0 to ways - 1 do
        meta.(mbase + k) <- (if k = !target then 1 else 0)
      done;
    !pos >= 0

(* All ways-length sequences of pairwise-distinct blocks. *)
let rec arrangements ways blocks =
  if ways = 0 then [ [] ]
  else
    List.concat_map
      (fun b ->
         let rest = List.filter (fun x -> x <> b) blocks in
         List.map (fun tail -> b :: tail) (arrangements (ways - 1) rest))
      blocks

(* Every metadata section, in [pack]'s layout, that a full set can hold:
   all PLRU tree-bit patterns, all MRU bit patterns but all-ones (which is
   transient: it is normalised away on the access that would create it),
   and every RR pointer. *)
let meta_patterns kind ~ways =
  let bit_vectors n =
    List.init (1 lsl n) (fun m -> List.init n (fun k -> (m lsr k) land 1))
  in
  match kind with
  | Lru | Fifo -> [ [] ]
  | Plru -> bit_vectors (ways - 1)
  | Mru -> List.filter (List.mem 0) (bit_vectors ways)
  | Round_robin -> List.init ways (fun p -> [ p ])

(* Rebuild a PLRU tree from leaf contents and an explicit bit assignment
   (pre-order over internal nodes). *)
let tree_of ways contents bits =
  let rec build contents bits ways =
    if ways = 1 then begin
      match contents with
      | [ c ] -> (Leaf (Some c), bits)
      | _ -> assert false
    end
    else begin
      match bits with
      | [] -> assert false
      | bit :: bits ->
        let half = ways / 2 in
        let rec split k xs =
          if k = 0 then ([], xs)
          else match xs with
            | [] -> assert false
            | x :: rest -> let l, r = split (k - 1) rest in (x :: l, r)
        in
        let left_contents, right_contents = split half contents in
        let left, bits = build left_contents bits half in
        let right, bits = build right_contents bits half in
        (Node (bit, left, right), bits)
    end
  in
  let tree, leftover = build contents bits ways in
  assert (leftover = []);
  tree

let enumerate_full_states kind ~ways ~blocks =
  if ways < 1 then invalid_arg "Policy.enumerate_full_states: ways must be >= 1";
  if kind = Plru && (ways land (ways - 1) <> 0 || ways > 8) then
    invalid_arg "Policy.enumerate_full_states: PLRU requires ways in {1,2,4,8}";
  let state contents meta =
    match kind with
    | Lru -> Slru (ways, contents)
    | Fifo -> Sfifo (ways, contents)
    | Plru -> Splru (tree_of ways contents (List.map (( = ) 1) meta))
    | Mru -> Smru (List.map2 (fun c b -> (Some c, b = 1)) contents meta)
    | Round_robin -> Srr (List.map Option.some contents, List.hd meta)
  in
  let patterns = meta_patterns kind ~ways in
  List.concat_map
    (fun contents -> List.map (state contents) patterns)
    (arrangements ways blocks)

let pp ppf state =
  let pp_slot ppf = function
    | None -> Format.pp_print_string ppf "-"
    | Some t -> Format.pp_print_int ppf t
  in
  Format.fprintf ppf "%s[%a]" (kind_name (kind state))
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       pp_slot)
    (contents state)
