type config = {
  blocks : int;
  block_size : int;
}

type t = {
  config : config;
  (* Resident methods, oldest first (FIFO eviction order). *)
  resident : (string * int) list;
}

let make config =
  if config.blocks < 1 || config.block_size < 1 then
    invalid_arg "Method_cache.make: geometry must be positive";
  { config; resident = [] }

let blocks_for config size = (size + config.block_size - 1) / config.block_size

let occupancy t = Prelude.Listx.sum (List.map snd t.resident)

let resident t name = List.mem_assoc name t.resident

type fit = { hit : bool; loaded_blocks : int; evicted : string list }

let request t ~name ~size =
  let needed = blocks_for t.config size in
  if needed > t.config.blocks then
    invalid_arg
      (Printf.sprintf "Method_cache.request: method %S (%d blocks) exceeds capacity %d"
         name needed t.config.blocks);
  if resident t name then ({ hit = true; loaded_blocks = 0; evicted = [] }, t)
  else begin
    let rec evict acc methods =
      let used = Prelude.Listx.sum (List.map snd methods) in
      if used + needed <= t.config.blocks then (List.rev acc, methods)
      else
        match methods with
        | [] -> (List.rev acc, [])
        | (victim, _) :: rest -> evict (victim :: acc) rest
    in
    let evicted, kept = evict [] t.resident in
    let t' = { t with resident = kept @ [ (name, needed) ] } in
    ({ hit = false; loaded_blocks = needed; evicted }, t')
  end

let equal a b = a = b

