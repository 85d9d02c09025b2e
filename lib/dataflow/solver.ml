module type LATTICE = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t
  val widen : t -> t -> t
end

(* A block's in-state may be updated this many times before further
   updates widen; after stabilisation, this many descending passes run. *)
let widen_delay = 4
let narrow_passes = 2

module Make (L : LATTICE) = struct
  let solve ~cfg ~init ~transfer () =
    let blocks = Cfg.blocks cfg in
    let n = Array.length blocks in
    let states : L.t option array = Array.make n None in
    (* Process dirty blocks in reverse postorder so loop bodies stabilise
       before their exits are explored; unreachable blocks (absent from the
       RPO) sort last and are only visited if an analysis edge reaches
       them. *)
    let order = Array.make n max_int in
    List.iteri (fun i b -> order.(b) <- i) (Cfg.reverse_postorder cfg);
    let visits = Array.make n 0 in
    let dirty = Array.make n false in
    let entry = Cfg.entry cfg in
    states.(entry) <- Some init;
    dirty.(entry) <- true;
    let pick () =
      let best = ref (-1) and best_order = ref max_int in
      for id = 0 to n - 1 do
        if dirty.(id) && order.(id) < !best_order then begin
          best := id;
          best_order := order.(id)
        end
      done;
      !best
    in
    let update target incoming =
      let next =
        match states.(target) with
        | None -> incoming
        | Some old ->
          let joined = L.join old incoming in
          if visits.(target) > widen_delay then L.widen old joined else joined
      in
      match states.(target) with
      | Some old when L.equal old next -> ()
      | None | Some _ ->
        states.(target) <- Some next;
        dirty.(target) <- true
    in
    let rec iterate () =
      match pick () with
      | -1 -> ()
      | id ->
        dirty.(id) <- false;
        visits.(id) <- visits.(id) + 1;
        (match states.(id) with
         | None -> ()
         | Some st ->
           List.iter (fun (succ, out) -> update succ out) (transfer blocks.(id) st));
        iterate ()
    in
    iterate ();
    (* Descending passes: recompute every in-state as the plain join of its
       predecessors' edge-outs (no widening). Starting from a post-fixpoint
       of a monotone transfer, each recomputation still overapproximates
       the least fixpoint, so stopping after any number of passes is
       sound. *)
    for _ = 1 to narrow_passes do
      let fresh : L.t option array = Array.make n None in
      fresh.(entry) <- Some init;
      Array.iter
        (fun block ->
           match states.(block.Cfg.id) with
           | None -> ()
           | Some st ->
             List.iter
               (fun (succ, out) ->
                  fresh.(succ) <-
                    (match fresh.(succ) with
                     | None -> Some out
                     | Some acc -> Some (L.join acc out)))
               (transfer block st))
        blocks;
      Array.blit fresh 0 states 0 n
    done;
    states
end
