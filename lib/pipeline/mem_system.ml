type level =
  | Flat of int
  | Cached of { cache : Cache.Set_assoc.t; hit : int; miss : int }
  | Spm of { spm : Cache.Scratchpad.t; hit : int; backing : int }

type t = {
  imem : level;
  dmem : level;
}

let perfect = { imem = Flat 1; dmem = Flat 1 }

let access_level level addr =
  match level with
  | Flat lat -> (lat, level)
  | Cached { cache; hit; miss } ->
    let was_hit, cache' = Cache.Set_assoc.access cache addr in
    ((if was_hit then hit else miss), Cached { cache = cache'; hit; miss })
  | Spm { spm; hit; backing } ->
    ((if Cache.Scratchpad.contains spm addr then hit else backing), level)

let fetch t addr =
  let cycles, imem = access_level t.imem addr in
  (cycles, { t with imem })

let data t addr =
  let cycles, dmem = access_level t.dmem addr in
  (cycles, { t with dmem })

let level_worst = function
  | Flat lat -> lat
  | Cached { miss; _ } -> miss
  | Spm { hit; backing; _ } -> Stdlib.max hit backing
