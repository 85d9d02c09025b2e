module Block_map = Map.Make (Int)

type t = {
  config : Cache.Set_assoc.config;
  (* block -> upper bound on LRU age (presence implies guaranteed cached) *)
  must : int Block_map.t;
  (* block -> lower bound on LRU age; None when any block may be anywhere *)
  may : int Block_map.t option;
}

let check_config (config : Cache.Set_assoc.config) =
  match config.kind with
  | Cache.Policy.Lru -> ()
  | Cache.Policy.Fifo | Cache.Policy.Plru | Cache.Policy.Mru
  | Cache.Policy.Round_robin ->
    invalid_arg "Must_may: analysis supports LRU only"

let unknown config = check_config config; { config; must = Block_map.empty; may = None }
let cold config = check_config config; { config; must = Block_map.empty; may = Some Block_map.empty }

type classification = Always_hit | Always_miss | Unclassified

let classification_name = function
  | Always_hit -> "AH"
  | Always_miss -> "AM"
  | Unclassified -> "NC"

let block_of t addr = Cache.Set_assoc.block_of_addr t.config addr
let set_of_block t block = block mod t.config.Cache.Set_assoc.sets
let same_set t b b' = set_of_block t b = set_of_block t b'

let classify t addr =
  let b = block_of t addr in
  if Block_map.mem b t.must then Always_hit
  else
    match t.may with
    | None -> Unclassified
    | Some may -> if Block_map.mem b may then Unclassified else Always_miss

let access t addr =
  let b = block_of t addr in
  let ways = t.config.Cache.Set_assoc.ways in
  let old_must_age =
    match Block_map.find_opt b t.must with Some age -> age | None -> ways
  in
  let age_must blk age =
    if blk = b || not (same_set t blk b) then Some age
    else if age < old_must_age then
      (if age + 1 >= ways then None else Some (age + 1))
    else Some age
  in
  let must =
    Block_map.add b 0
      (Block_map.filter_map age_must (Block_map.remove b t.must))
  in
  let may =
    match t.may with
    | None -> None
    | Some may ->
      let old_may_age =
        match Block_map.find_opt b may with Some age -> age | None -> ways
      in
      let age_may blk age =
        if blk = b || not (same_set t blk b) then Some age
        else if age <= old_may_age then
          (if age + 1 >= ways then None else Some (age + 1))
        else Some age
      in
      Some (Block_map.add b 0 (Block_map.filter_map age_may (Block_map.remove b may)))
  in
  { t with must; may }

let access_unknown t =
  let ways = t.config.Cache.Set_assoc.ways in
  let age blk age =
    ignore blk;
    if age + 1 >= ways then None else Some (age + 1)
  in
  (* Must: the access may alias any set, so everything ages. May: the unknown
     block cannot evict guarantees of absence for tracked blocks beyond the
     same aging, but it can only *add* contents; tracked lower bounds are
     unaffected (ages can only grow, which keeps lower bounds sound). *)
  { t with must = Block_map.filter_map age t.must }

let join a b =
  assert (a.config = b.config);
  let must =
    Block_map.merge
      (fun _blk x y ->
         match x, y with
         | Some xa, Some ya -> Some (Stdlib.max xa ya)
         | Some _, None | None, Some _ | None, None -> None)
      a.must b.must
  in
  let may =
    match a.may, b.may with
    | None, _ | _, None -> None
    | Some ma, Some mb ->
      Some
        (Block_map.merge
           (fun _blk x y ->
              match x, y with
              | Some xa, Some ya -> Some (Stdlib.min xa ya)
              | Some xa, None -> Some xa
              | None, Some ya -> Some ya
              | None, None -> None)
           ma mb)
  in
  { a with must; may }

let restrict t ~max_tracked =
  if max_tracked < 0 then invalid_arg "Must_may.restrict: negative budget";
  (* Per set, keep the [max_tracked] entries with the smallest age bound. *)
  let by_set = Hashtbl.create 8 in
  Block_map.iter
    (fun blk age ->
       let set = set_of_block t blk in
       let existing =
         match Hashtbl.find_opt by_set set with Some l -> l | None -> []
       in
       Hashtbl.replace by_set set ((blk, age) :: existing))
    t.must;
  let kept = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _set entries ->
       let sorted =
         List.sort (fun (_, a) (_, b) -> Stdlib.compare a b) entries
       in
       List.iter (fun (blk, age) -> Hashtbl.replace kept blk age)
         (Prelude.Listx.take max_tracked sorted))
    by_set;
  let must =
    Block_map.filter_map
      (fun blk _age -> Hashtbl.find_opt kept blk)
      t.must
  in
  { t with must }

let equal a b =
  a.config = b.config
  && Block_map.equal Int.equal a.must b.must
  && (match a.may, b.may with
      | None, None -> true
      | Some ma, Some mb -> Block_map.equal Int.equal ma mb
      | None, Some _ | Some _, None -> false)

let must_resident_blocks t = List.map fst (Block_map.bindings t.must)
