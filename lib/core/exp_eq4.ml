(* EQ4 — Section 2.2 / Equation 4: the PowerPC-755-style domino effect.
   Two initial pipeline states of the greedy dual-unit machine from which n
   iterations of the same loop kernel take 9n+1 and 12n cycles, bounding the
   state-induced predictability by (9n+1)/(12n) -> 3/4.

   The kernel parameters were found by exhaustive search over the space of
   PPC755-shaped kernels (two simple ops + one complex op per iteration; see
   bin/find_domino.ml): simple ops cost 9 on U0 and 6 on U1; the complex op
   runs only on U1 at cost 3; dependences reach 1, 3 and 2 operations back.
   From the empty pipeline the greedy dispatcher serialises each iteration
   (12 cycles); from the state where U0 is busy for one more cycle it finds
   the overlapped schedule (9 cycles) — and each schedule recreates the
   pipeline state that forces the same decision in the next iteration. *)

let kernel_latency klass unit =
  match klass, unit with
  | 0, Pipeline.Ooo.U0 -> Some 9
  | 0, Pipeline.Ooo.U1 -> Some 6
  | 1, Pipeline.Ooo.U0 -> None
  | 1, Pipeline.Ooo.U1 -> Some 3
  | _, _ -> None

let iteration =
  [ { Pipeline.Ooo.klass = 0; deps = [ 1 ] };
    { Pipeline.Ooo.klass = 0; deps = [ 3 ] };
    { Pipeline.Ooo.klass = 1; deps = [ 2 ] } ]

let q_primed = (1, 0)  (* the paper's q1*: partially filled pipeline *)
let q_empty = (0, 0)   (* the paper's q2*: empty pipeline *)

let time ~dispatch n init =
  let config = { Pipeline.Ooo.latency = kernel_latency; dispatch } in
  Pipeline.Ooo.run_kernel config ~iteration ~n ~init

let run () =
  let ns = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let table =
    Prelude.Table.make
      ~header:[ "n"; "T(q1*) greedy"; "9n+1"; "T(q2*) greedy"; "12n";
                "SIPr(n)"; "(9n+1)/12n"; "T alternate q1*/q2*" ]
  in
  let exact = ref true in
  List.iter
    (fun n ->
       let t1 = time ~dispatch:Pipeline.Ooo.Greedy n q_primed in
       let t2 = time ~dispatch:Pipeline.Ooo.Greedy n q_empty in
       let a1 = time ~dispatch:Pipeline.Ooo.Alternate n q_primed in
       let a2 = time ~dispatch:Pipeline.Ooo.Alternate n q_empty in
       if t1 <> (9 * n) + 1 || t2 <> 12 * n then exact := false;
       let sipr = Prelude.Ratio.make (Stdlib.min t1 t2) (Stdlib.max t1 t2) in
       Prelude.Table.add_row table
         [ string_of_int n; string_of_int t1; string_of_int ((9 * n) + 1);
           string_of_int t2; string_of_int (12 * n);
           Printf.sprintf "%.4f" (Prelude.Ratio.to_float sipr);
           Printf.sprintf "%.4f"
             (Prelude.Ratio.to_float (Domino.eq4_bound ~n));
           Printf.sprintf "%d/%d" a1 a2 ])
    ns;
  let verdict =
    Domino.detect ~time:(fun n q -> time ~dispatch:Pipeline.Ooo.Greedy n q)
      ~q1:q_primed ~q2:q_empty ~horizon:32
  in
  let alternate_verdict =
    Domino.detect ~time:(fun n q -> time ~dispatch:Pipeline.Ooo.Alternate n q)
      ~q1:q_primed ~q2:q_empty ~horizon:32
  in
  let body =
    Prelude.Table.render table
    ^ Printf.sprintf
        "domino verdict (greedy): diverges=%b rates=%s limit=%s\n\
         domino verdict (alternate dispatch ablation): diverges=%b\n"
        verdict.Domino.diverges
        (match verdict.Domino.per_iteration_rates with
         | Some (a, b) -> Printf.sprintf "(%d,%d)" a b
         | None -> "-")
        (match verdict.Domino.ratio_limit with
         | Some r -> Harness.ratio_string r
         | None -> "-")
        alternate_verdict.Domino.diverges
  in
  { Report.title = "Domino effect: T(q1*)=9n+1 vs T(q2*)=12n, SIPr -> 3/4";
    body;
    checks =
      [ Report.check "exact cycle counts 9n+1 and 12n for all sampled n" !exact;
        Report.check "detector reports divergence under greedy dispatch"
          verdict.Domino.diverges;
        Report.check "per-iteration rates are 9 and 12"
          (verdict.Domino.per_iteration_rates = Some (9, 12)
           || verdict.Domino.per_iteration_rates = Some (12, 9));
        Report.check "SIPr limit equals 3/4"
          (match verdict.Domino.ratio_limit with
           | Some r -> Prelude.Ratio.equal r (Prelude.Ratio.make 3 4)
           | None -> false);
        Report.check "round-robin dispatch ablation removes the domino"
          (not alternate_verdict.Domino.diverges) ] }
