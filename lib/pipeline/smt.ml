type policy = Fair | Rt_priority

type result = {
  completion : int list;
}

let mem_access_cost = 2

let event_cost (ev : Isa.Exec.event) =
  Latency.base ~operand:ev.operand ev.ins
  + (match ev.addr with Some _ -> mem_access_cost | None -> 0)

let run policy ~threads =
  if threads = [] then invalid_arg "Smt.run: no threads";
  let n = List.length threads in
  let remaining =
    Array.of_list
      (List.map
         (fun outcome -> List.map event_cost (Array.to_list outcome.Isa.Exec.trace))
         threads)
  in
  let busy_until = Array.make n 0 in
  let completion = Array.make n 0 in
  let unfinished = ref n in
  let rr = ref 0 in
  let cycle = ref 0 in
  let ready t = busy_until.(t) <= !cycle && remaining.(t) <> [] in
  let select () =
    match policy with
    | Rt_priority ->
      if ready 0 then Some 0
      else begin
        let rec scan k =
          if k = n then None
          else begin
            let t = 1 + ((!rr + k - 1) mod (Stdlib.max 1 (n - 1))) in
            if t < n && ready t then begin rr := t; Some t end
            else scan (k + 1)
          end
        in
        if n > 1 then scan 1 else None
      end
    | Fair ->
      let rec scan k =
        if k = n then None
        else begin
          let t = (!rr + k) mod n in
          if ready t then begin rr := (t + 1) mod n; Some t end else scan (k + 1)
        end
      in
      scan 0
  in
  while !unfinished > 0 do
    (match select () with
     | None -> ()
     | Some t ->
       (match remaining.(t) with
        | [] -> assert false
        | cost :: rest ->
          remaining.(t) <- rest;
          busy_until.(t) <- !cycle + cost;
          if rest = [] then begin
            completion.(t) <- !cycle + cost;
            decr unfinished
          end));
    incr cycle
  done;
  { completion = Array.to_list completion }

let rt_time policy ~rt ~others =
  match (run policy ~threads:(rt :: others)).completion with
  | [] -> assert false
  | rt_completion :: _ -> rt_completion
