type estimate =
  | Exact of int
  | Beyond of int

let estimate_to_string = function
  | Exact n -> string_of_int n
  | Beyond n -> Printf.sprintf ">%d" n

(* --- Exact engine: the boxed reference exploration ------------------------ *)

(* Old (unknown) blocks are negative ids, probes positive: by renaming
   symmetry, [ways] distinct unknown blocks cover every initial content mix,
   and initial states may already contain some of the probe blocks — the
   case that makes FIFO need 2k-1 probes rather than k. *)
let initial_states kind ~ways ~probes =
  let olds = List.init ways (fun i -> -(i + 1)) in
  Cache.Policy.enumerate_full_states kind ~ways ~blocks:(olds @ probes)

let final_state state probes =
  List.fold_left
    (fun s p ->
       let _, s' = Cache.Policy.access s p in
       s')
    state probes

let olds_all_evicted state ways =
  let olds = List.init ways (fun i -> -(i + 1)) in
  not (List.exists (Cache.Policy.resident state) olds)

let search ?jobs ~check ~ways ~max_probes kind =
  let rec try_probes j =
    if j > max_probes then Beyond max_probes
    else begin
      let probes = List.init j (fun i -> i + 1) in
      let states = initial_states kind ~ways ~probes in
      (* Each initial state is pushed through the probe sequence
         independently, so the states fan out across domains. *)
      let finals = Prelude.Parallel.map ?jobs (fun s -> final_state s probes) states in
      (* One eval per state-transition explored (state x probe), matching
         Quantify's cells-based accounting of kernel work. *)
      Prelude.Instrument.add_evals (List.length states * j);
      if check finals then Exact j else try_probes (j + 1)
    end
  in
  try_probes 1

(* --- Fast engine: one packed exploration for every policy ----------------- *)

(* Old blocks are never accessed, and every policy compares a slot only with
   the accessed tag or with "empty". So mapping every old block to the one
   reserved tag 0 (probes are 1..j) commutes with [access]: the collapsed
   initial states are the images of the exact engine's, and the collapsed
   finals are the images of its finals. A final without tag 0 is its own
   image, so "no old block survives" and "no old block survives and every
   final is the same state" are decided on the collapsed finals with the
   same verdicts. *)
let old = 0

(* Bits needed to hold every value in 0..n. *)
let bits n =
  let rec go b = if n lsr b = 0 then b else go (b + 1) in
  max 1 (go 0)

(* An insert-only set of distinct non-negative ints: open addressing with
   linear probing, -1 marking a free cell, grown to stay at most half
   full. *)
type set = { mutable cells : int array; mutable count : int }

let set_create n =
  let rec cap c = if c >= 2 * n then c else cap (2 * c) in
  { cells = Array.make (cap 64) (-1); count = 0 }

let rec set_add s key =
  if 2 * (s.count + 1) > Array.length s.cells then begin
    let cells = s.cells in
    s.cells <- Array.make (2 * Array.length cells) (-1);
    s.count <- 0;
    Array.iter (fun k -> if k >= 0 then set_add s k) cells
  end;
  let mask = Array.length s.cells - 1 in
  let h = key * 0x9E3779B1 in
  let i = ref ((h lxor (h lsr 29)) land mask) in
  while s.cells.(!i) <> -1 && s.cells.(!i) <> key do
    i := (!i + 1) land mask
  done;
  if s.cells.(!i) = -1 then begin
    s.cells.(!i) <- key;
    s.count <- s.count + 1
  end

let set_iter f s = Array.iter (fun k -> if k >= 0 then f k) s.cells

(* Depth j's collapsed initial states are depth j-1's (each slot holds the
   old tag or a probe below j, no probe twice) plus each of them with one
   old slot holding j. Like tag 0, tag j is not accessed before probe j, so
   it commutes with probes 1..j-1 (a relabelled block they evict leaves the
   same final): depth j's finals are depth j-1's distinct finals and each
   copy of one with an old slot relabelled j, all stepped by probe j. The
   search starts from the all-old states, one per metadata pattern, and
   reads each depth's verdicts before going deeper. A state is one int key,
   the slot tags in [bits j] bits each and then the metadata words, so
   depth j-1's keys are decoded at their own width. One eval per
   transition stepped. *)
let fast_search ~fill kind ~ways ~max_probes =
  (* Rejects the geometries the policy cannot represent. *)
  ignore (Cache.Policy.init kind ~ways);
  let patterns =
    List.map Array.of_list (Cache.Policy.meta_patterns kind ~ways)
  in
  let width = Cache.Policy.meta_width kind ~ways in
  let meta_bits = bits (List.fold_left (Array.fold_left max) 1 patterns) in
  let slots = Array.make ways old and meta = Array.make width 0 in
  let encode tag_bits =
    let key = ref 0 in
    for k = 0 to ways - 1 do key := (!key lsl tag_bits) lor slots.(k) done;
    for k = 0 to width - 1 do key := (!key lsl meta_bits) lor meta.(k) done;
    !key
  in
  let decode tag_bits key =
    let key = ref key in
    for k = width - 1 downto 0 do
      meta.(k) <- !key land ((1 lsl meta_bits) - 1);
      key := !key lsr meta_bits
    done;
    for k = ways - 1 downto 0 do
      slots.(k) <- !key land ((1 lsl tag_bits) - 1);
      key := !key lsr tag_bits
    done
  in
  let rec deeper j finals =
    if j > max_probes then Beyond max_probes
    else begin
      let tag_bits = bits j and final_bits = bits (j - 1) in
      if (ways * tag_bits) + (width * meta_bits) > Sys.int_size - 1 then
        invalid_arg
          "Cache_metrics: geometry too large for the packed exploration";
      Prelude.Parallel.check_deadline ();
      let next = set_create finals.count in
      let evals = ref 0 and old_survives = ref false in
      set_iter
        (fun key ->
           (* [relabel] -1 steps the final itself. *)
           for relabel = -1 to ways - 1 do
             decode final_bits key;
             if relabel < 0 || slots.(relabel) = old then begin
               if relabel >= 0 then slots.(relabel) <- j;
               ignore
                 (Cache.Policy.packed_step kind ~slots ~base:0 ~ways ~meta
                    ~mbase:0 j);
               incr evals;
               if Array.mem old slots then old_survives := true;
               set_add next (encode tag_bits)
             end
           done)
        finals;
      Prelude.Instrument.add_evals !evals;
      if (not !old_survives) && ((not fill) || next.count = 1) then Exact j
      else deeper (j + 1) next
    end
  in
  let start = set_create (List.length patterns) in
  List.iter
    (fun pattern ->
       Array.blit pattern 0 meta 0 width;
       set_add start (encode (bits 0)))
    patterns;
  deeper 1 start

let evict ?jobs ?(engine = `Exact) kind ~ways ~max_probes =
  match engine with
  | `Fast -> fast_search ~fill:false kind ~ways ~max_probes
  | `Exact ->
    let check finals =
      List.for_all (fun s -> olds_all_evicted s ways) finals
    in
    search ?jobs ~check ~ways ~max_probes kind

let fill ?jobs ?(engine = `Exact) kind ~ways ~max_probes =
  match engine with
  | `Fast -> fast_search ~fill:true kind ~ways ~max_probes
  | `Exact ->
    let check = function
      | [] -> true
      | first :: rest ->
        olds_all_evicted first ways
        && List.for_all (fun s -> Cache.Policy.equal s first) rest
    in
    search ?jobs ~check ~ways ~max_probes kind
