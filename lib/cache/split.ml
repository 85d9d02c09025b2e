type region = Static | Stack | Heap

type classifier = int -> region

type t = {
  static_cache : Set_assoc.t;
  stack_cache : Set_assoc.t;
  heap_cache : Set_assoc.t;
}

let make ~static_cfg ~stack_cfg ~heap_ways ~heap_line =
  { static_cache = Set_assoc.make static_cfg;
    stack_cache = Set_assoc.make stack_cfg;
    heap_cache =
      Set_assoc.make
        { Set_assoc.sets = 1; ways = heap_ways; line = heap_line;
          kind = Policy.Lru } }

let access t classify addr =
  match classify addr with
  | Static ->
    let hit, c = Set_assoc.access t.static_cache addr in
    (hit, { t with static_cache = c })
  | Stack ->
    let hit, c = Set_assoc.access t.stack_cache addr in
    (hit, { t with stack_cache = c })
  | Heap ->
    let hit, c = Set_assoc.access t.heap_cache addr in
    (hit, { t with heap_cache = c })
