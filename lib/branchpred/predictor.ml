type branch_event = {
  pc : int;
  backward : bool;
  taken : bool;
}

type static_scheme =
  | Always_taken
  | Always_not_taken
  | Btfn
  | Per_branch of (int * bool) list

type dynamic_kind = One_bit | Two_bit | Gshare of int

type t =
  | Static of static_scheme
  | Dynamic of {
      kind : dynamic_kind;
      table : int array;   (* copy-on-write saturating counters *)
      history : int;
    }

let static scheme = Static scheme

let seeded_table ~entries ~init ~max_counter =
  match init with
  | 0 -> Array.make entries 0
  | 1 -> Array.make entries max_counter
  | seed ->
    let rng = Prelude.Rng.make seed in
    Array.init entries (fun _ -> Prelude.Rng.int rng (max_counter + 1))

let one_bit ~entries ~init =
  Dynamic { kind = One_bit; table = seeded_table ~entries ~init ~max_counter:1;
            history = 0 }

let two_bit ~entries ~init =
  Dynamic { kind = Two_bit; table = seeded_table ~entries ~init ~max_counter:3;
            history = 0 }

let gshare ~entries ~history_bits ~init =
  Dynamic { kind = Gshare history_bits;
            table = seeded_table ~entries ~init ~max_counter:3; history = 0 }

let describe = function
  | Static Always_taken -> "static always-taken"
  | Static Always_not_taken -> "static always-not-taken"
  | Static Btfn -> "static BTFN"
  | Static (Per_branch _) -> "static WCET-oriented"
  | Dynamic { kind = One_bit; _ } -> "dynamic 1-bit"
  | Dynamic { kind = Two_bit; _ } -> "dynamic 2-bit bimodal"
  | Dynamic { kind = Gshare h; _ } -> Printf.sprintf "dynamic gshare(h=%d)" h

let table_index kind table history pc =
  let entries = Array.length table in
  match kind with
  | One_bit | Two_bit -> pc mod entries
  | Gshare bits ->
    let mask = (1 lsl bits) - 1 in
    (pc lxor (history land mask)) mod entries

let predict t event =
  match t with
  | Static Always_taken -> true
  | Static Always_not_taken -> false
  | Static Btfn -> event.backward
  | Static (Per_branch dirs) ->
    (match List.assoc_opt event.pc dirs with Some d -> d | None -> false)
  | Dynamic { kind; table; history } ->
    let counter = table.(table_index kind table history event.pc) in
    let threshold = match kind with One_bit -> 1 | Two_bit | Gshare _ -> 2 in
    counter >= threshold

let update t event =
  match t with
  | Static _ -> t
  | Dynamic { kind; table; history } ->
    let idx = table_index kind table history event.pc in
    let max_counter = match kind with One_bit -> 1 | Two_bit | Gshare _ -> 3 in
    let table = Array.copy table in
    let v = table.(idx) in
    table.(idx) <-
      (if event.taken then Stdlib.min max_counter (v + 1) else Stdlib.max 0 (v - 1));
    let history = (history lsl 1) lor (if event.taken then 1 else 0) in
    Dynamic { kind; table; history }

let run t events =
  let step (misses, p) event =
    let wrong = predict p event <> event.taken in
    ((if wrong then misses + 1 else misses), update p event)
  in
  List.fold_left step (0, t) events

let initial_states t =
  match t with
  | Static _ -> [ t ]
  | Dynamic { kind; table; history = _ } ->
    let entries = Array.length table in
    let remake init =
      match kind with
      | One_bit -> one_bit ~entries ~init
      | Two_bit -> two_bit ~entries ~init
      | Gshare bits -> gshare ~entries ~history_bits:bits ~init
    in
    List.map remake [ 0; 1; 0x51ed; 0xbeef; 0x1234 ]

(* --- Mutable replay ------------------------------------------------------ *)

(* [update] copies the counter table on every trained branch; a replay
   mutates one working copy in place. Static schemes carry no state, so
   their replay is the predictor itself. *)
type replay =
  | Rstatic of t
  | Rdyn of {
      kind : dynamic_kind;
      rtable : int array;
      mutable rhistory : int;
      threshold : int;
      max_counter : int;
    }

let replay t =
  match t with
  | Static _ -> Rstatic t
  | Dynamic { kind; table; history } ->
    let threshold, max_counter =
      match kind with One_bit -> (1, 1) | Two_bit | Gshare _ -> (2, 3)
    in
    Rdyn { kind; rtable = Array.copy table; rhistory = history;
           threshold; max_counter }

let replay_copy = function
  | Rstatic _ as r -> r
  | Rdyn d -> Rdyn { d with rtable = Array.copy d.rtable }

let replay_reset ~dst ~src =
  match dst, src with
  | Rstatic _, Rstatic _ -> ()
  | Rdyn d, Rdyn s ->
    Array.blit s.rtable 0 d.rtable 0 (Array.length s.rtable);
    d.rhistory <- s.rhistory
  | (Rstatic _ | Rdyn _), _ ->
    invalid_arg "Predictor.replay_reset: mismatched replay kinds"

let replay_correct r event =
  match r with
  | Rstatic p -> predict p event = event.taken
  | Rdyn d ->
    let idx = table_index d.kind d.rtable d.rhistory event.pc in
    let predicted = d.rtable.(idx) >= d.threshold in
    let v = d.rtable.(idx) in
    d.rtable.(idx) <-
      (if event.taken then Stdlib.min d.max_counter (v + 1)
       else Stdlib.max 0 (v - 1));
    d.rhistory <- (d.rhistory lsl 1) lor (if event.taken then 1 else 0);
    predicted = event.taken

(* Canonical integer encoding of the full predictor state, for memo keys.
   Injective across schemes: the head discriminates static/dynamic and the
   scheme/kind shape. *)
let pack = function
  | Static Always_taken -> [ 0 ]
  | Static Always_not_taken -> [ 1 ]
  | Static Btfn -> [ 2 ]
  | Static (Per_branch dirs) ->
    3 :: List.concat_map (fun (pc, d) -> [ pc; (if d then 1 else 0) ]) dirs
  | Dynamic { kind; table; history } ->
    let kind_code = match kind with
      | One_bit -> 0
      | Two_bit -> 1
      | Gshare bits -> 2 + bits
    in
    4 :: kind_code :: history :: Array.to_list table

let wcet_oriented traces =
  let votes = Hashtbl.create 16 in
  let count event =
    let taken_count, total =
      match Hashtbl.find_opt votes event.pc with
      | Some (t, n) -> (t, n)
      | None -> (0, 0)
    in
    Hashtbl.replace votes event.pc
      ((taken_count + if event.taken then 1 else 0), total + 1)
  in
  List.iter (List.iter count) traces;
  let dirs =
    Hashtbl.fold
      (fun pc (taken_count, total) acc -> (pc, 2 * taken_count >= total) :: acc)
      votes []
  in
  Per_branch (List.sort Stdlib.compare dirs)
