type config = {
  sets : int;
  ways : int;
  line : int;
  kind : Policy.kind;
}

type t = {
  config : config;
  state : Policy.state array;  (* one per set; copy-on-write *)
}

let make config =
  if config.sets < 1 || config.ways < 1 || config.line < 1 then
    invalid_arg "Set_assoc.make: geometry must be positive";
  { config;
    state = Array.init config.sets (fun _ -> Policy.init config.kind ~ways:config.ways) }

let config t = t.config
let block_of_addr config addr = addr / config.line
let set_of_addr config addr = block_of_addr config addr mod config.sets

let access t addr =
  let set = set_of_addr t.config addr in
  let tag = block_of_addr t.config addr in
  let hit, state' = Policy.access t.state.(set) tag in
  let state = Array.copy t.state in
  state.(set) <- state';
  (hit, { t with state })

let access_seq t addrs =
  let step (hits, misses, c) addr =
    let hit, c' = access c addr in
    if hit then (hits + 1, misses, c') else (hits, misses + 1, c')
  in
  List.fold_left step (0, 0, t) addrs

let resident t addr =
  let set = set_of_addr t.config addr in
  Policy.resident t.state.(set) (block_of_addr t.config addr)

let equal a b = a.config = b.config && a.state = b.state

let warmed config ~seed ~touches ~universe =
  let rng = Prelude.Rng.make seed in
  let rec go c n =
    if n = 0 || universe = [] then c
    else begin
      let addr = Prelude.Rng.pick rng universe in
      let _, c' = access c addr in
      go c' (n - 1)
    end
  in
  go (make config) touches

let state_samples config ~universe ~count ~seed =
  let states =
    List.init count (fun i ->
        warmed config ~seed:(seed + (i * 7919)) ~touches:(16 + (i * 3)) ~universe)
  in
  make config :: states

(* --- Mutable replay ------------------------------------------------------ *)

(* The persistent [access] copies the per-set state array (and, inside
   Policy, rebuilds lists) on every access — fine for exploration, fatal in
   the T_p(q,i) hot loop. A [replay] is a mutable working copy in
   [Policy.pack]'s layout: one [int array] of tags per set (policy order,
   -1 = empty) and one of policy metadata, [Policy.meta_width] words per
   set, both stepped in place by [Policy.packed_step]. Tags must be
   non-negative (true for all real address streams). *)
type replay = {
  rconfig : config;
  slots : int array;   (* sets * ways tags, -1 empty *)
  meta : int array;    (* sets * meta_width metadata words *)
  meta_width : int;
}

let replay t =
  let w = t.config.ways in
  let meta_width = Policy.meta_width t.config.kind ~ways:w in
  let slots = Array.make (t.config.sets * w) (-1) in
  let meta = Array.make (t.config.sets * meta_width) 0 in
  Array.iteri
    (fun set s ->
       (* pack = kind :: ways :: slots @ meta. *)
       match Policy.pack s with
       | _ :: _ :: rest ->
         List.iteri
           (fun k v ->
              if k < w then slots.((set * w) + k) <- v
              else meta.((set * meta_width) + k - w) <- v)
           rest
       | _ -> assert false)
    t.state;
  { rconfig = t.config; slots; meta; meta_width }

let replay_copy r =
  { r with slots = Array.copy r.slots; meta = Array.copy r.meta }

let replay_reset ~dst ~src =
  Array.blit src.slots 0 dst.slots 0 (Array.length src.slots);
  Array.blit src.meta 0 dst.meta 0 (Array.length src.meta)

let replay_access r addr =
  let set = set_of_addr r.rconfig addr in
  Policy.packed_step r.rconfig.kind ~slots:r.slots
    ~base:(set * r.rconfig.ways) ~ways:r.rconfig.ways ~meta:r.meta
    ~mbase:(set * r.meta_width)
    (block_of_addr r.rconfig addr)

let pack t =
  t.config.sets :: t.config.ways :: t.config.line
  :: Policy.kind_ordinal t.config.kind
  :: List.concat_map Policy.pack (Array.to_list t.state)
