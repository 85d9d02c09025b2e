(* Tests for the dataflow layer: CFG construction, the interval analysis'
   soundness against the concrete interpreter, liveness, and the linter on
   both fixtures and the shipped workloads. *)

let link_main items =
  Isa.Program.link [ { Isa.Program.name = "main"; body = items } ]

let string_contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i =
    if i + n > h then false
    else if String.sub haystack i n = needle then true
    else scan (i + 1)
  in
  scan 0

(* --- CFG --------------------------------------------------------------- *)

let test_cfg_structure () =
  let open Isa.Instr in
  let r1 = Isa.Reg.r1 and r2 = Isa.Reg.r2 in
  let program =
    link_main
      [ Isa.Program.Ins (Li (r1, 1));
        Isa.Program.Ins (Br (Eq, r1, r2, "join"));
        Isa.Program.Ins (Alui (Add, r1, r1, 1));
        Isa.Program.Label "join";
        Isa.Program.Ins Halt ]
  in
  let cfg = Dataflow.Cfg.build program in
  let blocks = Dataflow.Cfg.blocks cfg in
  Alcotest.(check int) "three blocks" 3 (Array.length blocks);
  let b0 = blocks.(Dataflow.Cfg.entry cfg) in
  Alcotest.(check (list int)) "branch has two successors" [ 1; 2 ]
    (List.sort compare b0.Dataflow.Cfg.succs);
  Alcotest.(check int) "fallthrough block is one instruction" 1
    blocks.(1).Dataflow.Cfg.len;
  Alcotest.(check (list int)) "join block has two predecessors" [ 0; 1 ]
    (List.sort compare blocks.(2).Dataflow.Cfg.preds)

let test_cfg_call_ret_edges () =
  let open Isa.Instr in
  let r1 = Isa.Reg.r1 in
  let program =
    Isa.Program.link
      [ { Isa.Program.name = "main";
          body =
            [ Isa.Program.Ins (Call "f");
              Isa.Program.Ins (Call "f");
              Isa.Program.Ins Halt ] };
        { Isa.Program.name = "f";
          body = [ Isa.Program.Ins (Li (r1, 3)); Isa.Program.Ins Ret ] } ]
  in
  let cfg = Dataflow.Cfg.build program in
  let blocks = Dataflow.Cfg.blocks cfg in
  let callee_entry = Dataflow.Cfg.block_of_pc cfg (Isa.Program.resolve program "f") in
  Array.iter
    (fun b ->
       match snd (Dataflow.Cfg.terminator cfg b) with
       | Call _ ->
         Alcotest.(check (list int)) "call jumps to callee entry"
           [ callee_entry ] b.Dataflow.Cfg.succs
       | Ret ->
         (* Return sites: the instruction after each of the two calls. *)
         Alcotest.(check int) "ret has two successors" 2
           (List.length b.Dataflow.Cfg.succs)
       | _ -> ())
    blocks;
  Alcotest.(check bool) "all blocks reachable" true
    (Array.for_all Fun.id (Dataflow.Cfg.reachable cfg))

(* Blocks must partition the instruction range: every pc in exactly one
   block (S3). *)
let cfg_partitions program =
  let cfg = Dataflow.Cfg.build program in
  let n = Isa.Program.length program in
  let owner = Array.make n (-1) in
  Array.for_all
    (fun b ->
       List.for_all
         (fun (pc, _) ->
            if pc < 0 || pc >= n || owner.(pc) >= 0 then false
            else begin
              owner.(pc) <- b.Dataflow.Cfg.id;
              true
            end)
         (Dataflow.Cfg.instrs cfg b))
    (Dataflow.Cfg.blocks cfg)
  && Array.for_all (fun o -> o >= 0) owner

let test_cfg_partition_workloads () =
  List.iter
    (fun (name, make) ->
       let program, _ = Isa.Workload.program (make ()) in
       Alcotest.(check bool)
         (Printf.sprintf "%s blocks partition the program" name) true
         (cfg_partitions program))
    Isa.Workload.registry

(* Every pc executed by the interpreter appears in the compiled shape tree
   (S3): the trusted shape view and the untrusted flat view agree on what
   the program's instructions are. *)
let test_trace_pcs_in_shapes () =
  List.iter
    (fun (name, make) ->
       let w = make () in
       let program, shapes = Isa.Workload.program w in
       let shape_pcs = Hashtbl.create 64 in
       List.iter
         (fun (_, shape) ->
            List.iter
              (fun (pc, _) -> Hashtbl.replace shape_pcs pc ())
              (Isa.Ast.shape_instrs shape))
         shapes;
       List.iter
         (fun input ->
            let outcome = Isa.Exec.run program input in
            Array.iter
              (fun (e : Isa.Exec.event) ->
                 if not (Hashtbl.mem shape_pcs e.Isa.Exec.pc) then
                   Alcotest.failf "%s: executed pc %d not in any shape" name
                     e.Isa.Exec.pc)
              outcome.Isa.Exec.trace)
         (Prelude.Listx.take 3 w.Isa.Workload.inputs))
    Isa.Workload.registry

(* --- Intervals --------------------------------------------------------- *)

let test_interval_basics () =
  let open Dataflow.Interval in
  Alcotest.(check bool) "const membership" true (mem 5 (const 5));
  Alcotest.(check bool) "const exclusion" false (mem 6 (const 5));
  Alcotest.(check bool) "top contains everything" true (mem min_int top);
  Alcotest.(check bool) "join covers both" true
    (let j = join_itv (const 2) (const 9) in mem 2 j && mem 9 j && mem 5 j);
  Alcotest.(check bool) "add shifts bounds" true
    (let s = add (make 1 3) (const 10) in mem 11 s && mem 13 s && not (mem 14 s));
  Alcotest.(check string) "render" "[1, 3]" (to_string (make 1 3));
  Alcotest.(check bool) "make rejects inverted bounds" true
    (try ignore (make 3 1); false with Invalid_argument _ -> true)

let final_env_contains program input =
  let final =
    Dataflow.Interval.final_env (Dataflow.Interval.analyze program)
  in
  let outcome = Isa.Exec.run program input in
  List.for_all
    (fun r ->
       Dataflow.Interval.mem
         outcome.Isa.Exec.final_regs.(Isa.Reg.index r)
         (Dataflow.Interval.reg final r))
    Isa.Reg.all

let test_interval_sound_on_workloads () =
  List.iter
    (fun (name, make) ->
       let w = make () in
       let program, _ = Isa.Workload.program w in
       List.iter
         (fun input ->
            Alcotest.(check bool)
              (Printf.sprintf "%s final regs within intervals" name) true
              (final_env_contains program input))
         (Prelude.Listx.take 5 w.Isa.Workload.inputs))
    Isa.Workload.registry

(* The abstract final environment must contain the concrete final
   registers of every input of a generated workload. *)
let prop_interval_sound_on_random_programs =
  QCheck.Test.make
    ~name:"interval final env contains concrete final registers" ~count:150
    Gen_workload.arbitrary
    (fun w ->
       let program, _ = Isa.Workload.program w in
       List.for_all (final_env_contains program) w.Isa.Workload.inputs)

(* Exec.alu_eval shifts and adds without a check, so a straight-line
   program can wrap the native integers; its final registers must still lie
   inside their intervals. *)
let wrapped_inside_intervals instrs () =
  let program = link_main (List.map (fun i -> Isa.Program.Ins i) instrs) in
  Alcotest.(check bool) "wrapped value inside its interval" true
    (final_env_contains program (Isa.Exec.input ()))

(* 3 lsl 31 lsl 31 wraps to a negative value, so the abstract shift must
   not answer [limit, +oo]. *)
let test_interval_shift_wraps =
  let open Isa.Instr in
  let r1 = Isa.Reg.r1 and r2 = Isa.Reg.r2 in
  wrapped_inside_intervals
    [ Li (r1, 3); Li (r2, 31); Alu (Shl, r1, r1, r2); Alu (Shl, r1, r1, r2);
      Halt ]

(* 2^60 doubled twice ends at -2^62, so the abstract sum of [2^50, +oo]
   with itself must not stay at +oo. *)
let test_interval_add_wraps =
  let open Isa.Instr in
  let r1 = Isa.Reg.r1 and r2 = Isa.Reg.r2 in
  wrapped_inside_intervals
    [ Li (r1, 1); Li (r2, 30); Alu (Shl, r1, r1, r2); Alu (Shl, r1, r1, r2);
      Alu (Add, r1, r1, r1); Alu (Add, r1, r1, r1); Halt ]

(* 0 - min_int wraps to min_int, so the abstract negation of
   [-oo, -limit] must not answer [limit, +oo]. *)
let test_interval_neg_wraps =
  let open Isa.Instr in
  let r1 = Isa.Reg.r1 and r3 = Isa.Reg.r3 in
  wrapped_inside_intervals
    [ Li (r1, min_int); Li (r3, 0); Alu (Sub, r3, r3, r1); Halt ]

let test_dead_branch_detected () =
  let open Isa.Instr in
  let r1 = Isa.Reg.r1 and r2 = Isa.Reg.r2 and r3 = Isa.Reg.r3 in
  let program =
    link_main
      [ Isa.Program.Ins (Li (r1, 1));
        Isa.Program.Ins (Li (r2, 0));
        Isa.Program.Ins (Br (Eq, r1, r2, "skip"));
        Isa.Program.Ins (Alui (Add, r3, r3, 1));
        Isa.Program.Label "skip";
        Isa.Program.Ins Halt ]
  in
  let result = Dataflow.Interval.analyze program in
  Alcotest.(check bool) "taken arm of pc 2 is dead" true
    (List.mem (2, `Taken) (Dataflow.Interval.dead_edges result));
  (* The fall-through instruction still executes: it must not be dead. *)
  Alcotest.(check bool) "fallthrough arm is live" false
    (List.mem (2, `Fallthrough) (Dataflow.Interval.dead_edges result))

let test_no_dead_branches_in_workloads () =
  List.iter
    (fun (name, make) ->
       let program, _ = Isa.Workload.program (make ()) in
       let result = Dataflow.Interval.analyze program in
       Alcotest.(check int)
         (Printf.sprintf "%s has no dead branch arms" name) 0
         (List.length (Dataflow.Interval.dead_edges result)))
    Isa.Workload.registry

(* --- Liveness ---------------------------------------------------------- *)

let test_dead_store () =
  let open Isa.Instr in
  let r1 = Isa.Reg.r1 in
  let program =
    link_main
      [ Isa.Program.Ins (Li (r1, 1));
        Isa.Program.Ins (Li (r1, 2));
        Isa.Program.Ins Halt ]
  in
  let cfg = Dataflow.Cfg.build program in
  Alcotest.(check bool) "first write is dead" true
    (List.mem (0, r1) (Dataflow.Liveness.dead_stores cfg));
  (* Halt observes the final register file, so the surviving write is not
     dead. *)
  Alcotest.(check bool) "second write survives" false
    (List.mem (1, r1) (Dataflow.Liveness.dead_stores cfg))

let test_maybe_uninitialized () =
  let open Isa.Instr in
  let r1 = Isa.Reg.r1 and r2 = Isa.Reg.r2 and r3 = Isa.Reg.r3 in
  let program =
    link_main [ Isa.Program.Ins (Alu (Add, r1, r2, r3)); Isa.Program.Ins Halt ]
  in
  let cfg = Dataflow.Cfg.build program in
  Alcotest.(check bool) "r3 flagged" true
    (List.mem (0, r3) (Dataflow.Liveness.maybe_uninitialized cfg ~inputs:[ r2 ]));
  Alcotest.(check bool) "declared input exempt" false
    (List.mem (0, r2) (Dataflow.Liveness.maybe_uninitialized cfg ~inputs:[ r2 ]))

(* --- Taint ------------------------------------------------------------- *)

(* Diamond used by the postdominator and taint-region tests:
   block 0 = {Li; Br}, block 1 = the fall-through arm, block 2 = join. *)
let diamond () =
  let open Isa.Instr in
  let r1 = Isa.Reg.r1 and r2 = Isa.Reg.r2 in
  link_main
    [ Isa.Program.Ins (Li (r1, 1));
      Isa.Program.Ins (Br (Eq, r1, r2, "join"));
      Isa.Program.Ins (Alui (Add, r1, r1, 1));
      Isa.Program.Label "join";
      Isa.Program.Ins Halt ]

let test_postdominators () =
  let cfg = Dataflow.Cfg.build (diamond ()) in
  let pdom = Dataflow.Cfg.postdominators cfg in
  Alcotest.(check bool) "join postdominates the branch" true pdom.(0).(2);
  Alcotest.(check bool) "join postdominates the arm" true pdom.(1).(2);
  Alcotest.(check bool) "arm does not postdominate the branch" false
    pdom.(0).(1);
  Alcotest.(check bool) "every block postdominates itself" true
    (pdom.(0).(0) && pdom.(1).(1) && pdom.(2).(2))

let test_influence_region () =
  let cfg = Dataflow.Cfg.build (diamond ()) in
  let pdom = Dataflow.Cfg.postdominators cfg in
  let region = Dataflow.Cfg.influence_region cfg ~pdom 0 in
  Alcotest.(check bool) "arm is control-dependent on the branch" true
    region.(1);
  Alcotest.(check bool) "join is not (it always executes)" false region.(2)

let test_seeds_of_inputs () =
  let input regs = Isa.Exec.input ~regs () in
  let seeds =
    Dataflow.Taint.seeds_of_inputs
      [ input [ (Isa.Reg.r1, 0); (Isa.Reg.r2, 7) ];
        input [ (Isa.Reg.r1, 5); (Isa.Reg.r2, 7) ] ]
  in
  Alcotest.(check bool) "varying register seeded" true
    (Dataflow.Taint.reg_tainted seeds Isa.Reg.r1);
  Alcotest.(check bool) "constant register not seeded" false
    (Dataflow.Taint.reg_tainted seeds Isa.Reg.r2);
  Alcotest.(check bool) "identical memories leave mem clean" false
    (Dataflow.Taint.mem_tainted seeds);
  let with_mem =
    Dataflow.Taint.seeds_of_inputs
      [ Isa.Exec.input ~mem:[ (1000, 1) ] ();
        Isa.Exec.input ~mem:[ (1000, 2) ] () ]
  in
  Alcotest.(check bool) "differing memories seed mem" true
    (Dataflow.Taint.mem_tainted with_mem);
  Alcotest.(check bool) "single input taints nothing" false
    (Dataflow.Taint.reg_tainted
       (Dataflow.Taint.seeds_of_inputs [ input [ (Isa.Reg.r1, 3) ] ])
       Isa.Reg.r1)

let seed_reg r =
  { Dataflow.Taint.regs = 1 lsl Isa.Reg.index r; mem = false }

let test_taint_explicit_flow () =
  let open Isa.Instr in
  let r1 = Isa.Reg.r1 and r2 = Isa.Reg.r2 and r7 = Isa.Reg.r7 in
  let program =
    link_main
      [ Isa.Program.Ins (Li (r1, 4));
        Isa.Program.Ins (Alu (Add, r2, r1, r7));
        Isa.Program.Ins Halt ]
  in
  let t = Dataflow.Taint.analyze ~seeds:(seed_reg r7) program in
  let final = Dataflow.Taint.final_env t in
  Alcotest.(check bool) "sum of tainted operand is tainted" true
    (Dataflow.Taint.reg_tainted final r2);
  Alcotest.(check bool) "constant stays clean" false
    (Dataflow.Taint.reg_tainted final r1)

let test_taint_implicit_flow () =
  let open Isa.Instr in
  let r2 = Isa.Reg.r2 and r7 = Isa.Reg.r7 in
  let program =
    link_main
      [ Isa.Program.Ins (Br (Ne, r7, Isa.Reg.r0, "skip"));
        Isa.Program.Ins (Li (r2, 5));
        Isa.Program.Label "skip";
        Isa.Program.Ins Halt ]
  in
  let t = Dataflow.Taint.analyze ~seeds:(seed_reg r7) program in
  Alcotest.(check bool) "constant write under tainted branch is tainted"
    true
    (Dataflow.Taint.reg_tainted (Dataflow.Taint.final_env t) r2);
  Alcotest.(check bool) "arm is control-tainted" true
    (Dataflow.Taint.control_tainted t 1);
  Alcotest.(check bool) "the branch itself is not control-tainted" false
    (Dataflow.Taint.control_tainted t 0)

let test_taint_fixture_leaks () =
  let channels w =
    List.map
      (fun (l : Dataflow.Taint.leak) -> l.Dataflow.Taint.channel)
      (Dataflow.Taint.leaks (Dataflow.Taint.of_workload w))
  in
  Alcotest.(check bool) "leakfree has no time channel" true
    (channels (Dataflow.Fixtures.leakfree ()) = []);
  Alcotest.(check bool) "leaky branches on its secret" true
    (List.mem Dataflow.Taint.Branch (channels (Dataflow.Fixtures.leaky ())))

(* The soundness property the certifier rests on: a register the
   analysis leaves untainted must end with the bit-identical value on
   every admissible input — checked against the concrete interpreter on
   generated workloads. *)
let prop_taint_sound_on_random_programs =
  QCheck.Test.make
    ~name:"untainted registers are input-invariant on random programs"
    ~count:150 Gen_workload.arbitrary
    (fun w ->
       let program, _ = Isa.Workload.program w in
       let inputs = w.Isa.Workload.inputs in
       let t =
         Dataflow.Taint.analyze
           ~seeds:(Dataflow.Taint.seeds_of_inputs inputs) program
       in
       let final = Dataflow.Taint.final_env t in
       let outcomes = List.map (Isa.Exec.run program) inputs in
       List.for_all
         (fun r ->
            Dataflow.Taint.reg_tainted final r
            ||
            match outcomes with
            | [] -> true
            | first :: rest ->
              let v o = o.Isa.Exec.final_regs.(Isa.Reg.index r) in
              List.for_all (fun o -> v o = v first) rest)
         Isa.Reg.all)

(* Both arms call f: f's entry postdominates the branch, but r11 is set
   after the then-arm's call only, so it ends 1 on one input and 0 on the
   other. *)
let test_taint_call_in_both_arms () =
  let t = Dataflow.Taint.of_workload Gen_workload.call_in_both_arms in
  Alcotest.(check bool) "r11, set after one arm's call, is tainted" true
    (Dataflow.Taint.reg_tainted (Dataflow.Taint.final_env t) Isa.Reg.r11)

(* --- Lint -------------------------------------------------------------- *)

let rules findings =
  Prelude.Listx.uniq Stdlib.compare
    (List.map (fun f -> f.Dataflow.Lint.rule) findings)

let test_lint_clean_fixture () =
  let program, shapes = Dataflow.Fixtures.clean () in
  let findings =
    Dataflow.Lint.check_program program @ Dataflow.Lint.check_shapes shapes
  in
  Alcotest.(check (list string)) "no findings at all" []
    (List.map Dataflow.Lint.finding_string findings)

let test_lint_dirty_fixture () =
  let findings = Dataflow.Lint.check_program (Dataflow.Fixtures.dirty ()) in
  Alcotest.(check int) "three errors" 3 (Dataflow.Lint.errors findings);
  let expect rule =
    Alcotest.(check bool) (rule ^ " reported") true
      (List.mem rule (rules findings))
  in
  expect "div-by-zero";
  expect "negative-address";
  expect "shift-range";
  expect "uninitialized-read";
  expect "unreachable-code";
  (* Errors sort first so CLI consumers can stop at the first warning. *)
  (match findings with
   | f :: _ ->
     Alcotest.(check string) "errors first" "error"
       (Dataflow.Lint.severity_string f.Dataflow.Lint.severity)
   | [] -> Alcotest.fail "expected findings")

let test_lint_loop_clobber () =
  let open Isa.Instr in
  let r1 = Isa.Reg.r1 in
  let _, shapes =
    Isa.Ast.compile
      [ { Isa.Ast.name = "main";
          body =
            Isa.Ast.Loop
              { count = 3; counter = r1;
                body = Isa.Ast.Block [ Li (r1, 5) ] } } ]
  in
  let findings = Dataflow.Lint.check_shapes shapes in
  Alcotest.(check bool) "counter clobber is a loop-bound error" true
    (List.exists
       (fun f ->
          f.Dataflow.Lint.rule = "loop-bound"
          && f.Dataflow.Lint.severity = Dataflow.Lint.Error)
       findings)

let test_lint_while_bound () =
  let open Isa.Instr in
  let r1 = Isa.Reg.r1 in
  let make bound =
    let _, shapes =
      Isa.Ast.compile
        [ { Isa.Ast.name = "main";
            body =
              Isa.Ast.While
                { bound;
                  cond = { Isa.Ast.cmp = Ne; ra = r1; rb = Isa.Ast.zero };
                  body = Isa.Ast.Block [ Alui (Sub, r1, r1, 1) ] } } ]
    in
    Dataflow.Lint.check_shapes shapes
  in
  Alcotest.(check bool) "non-positive bound is an error" true
    (Dataflow.Lint.errors (make 0) = 1);
  Alcotest.(check bool) "positive bound is only an info" true
    (Dataflow.Lint.errors (make 4) = 0
     && List.mem "while-bound" (rules (make 4)))

let test_written_to_halt () =
  let open Isa.Instr in
  let r1 = Isa.Reg.r1 and r2 = Isa.Reg.r2 in
  let program =
    link_main
      [ Isa.Program.Ins (Li (r1, 1));
        Isa.Program.Ins (Br (Eq, r1, Isa.Reg.r0, "skip"));
        Isa.Program.Ins (Li (r2, 2));
        Isa.Program.Label "skip";
        Isa.Program.Ins Halt ]
  in
  let mask =
    Dataflow.Liveness.written_to_halt (Dataflow.Cfg.build program)
  in
  Alcotest.(check bool) "unconditional write reaches halt" true
    (mask land (1 lsl Isa.Reg.index r1) <> 0);
  Alcotest.(check bool) "conditional write reaches halt too" true
    (mask land (1 lsl Isa.Reg.index r2) <> 0);
  Alcotest.(check bool) "never-written register does not" false
    (mask land (1 lsl Isa.Reg.index Isa.Reg.r5) <> 0)

let test_lint_dead_result_reg () =
  let workload result_regs =
    { Isa.Workload.name = "t"; description = "test";
      funcs =
        [ { Isa.Ast.name = "main";
            body = Isa.Ast.Block [ Isa.Instr.Li (Isa.Reg.r1, 1) ] } ];
      inputs = [ Isa.Exec.input () ]; result_regs }
  in
  let has_rule rule regs =
    List.mem rule (rules (Dataflow.Lint.check_workload (workload regs)))
  in
  Alcotest.(check bool) "unwritten result register flagged" true
    (has_rule "dead-result-reg" [ Isa.Reg.r2 ]);
  Alcotest.(check bool) "written result register clean" false
    (has_rule "dead-result-reg" [ Isa.Reg.r1 ]);
  (* It is a warning, not an error: the lint gate must not trip. *)
  Alcotest.(check int) "no errors" 0
    (Dataflow.Lint.errors (Dataflow.Lint.check_workload (workload [ Isa.Reg.r2 ])))

let test_lint_timing_leak () =
  let rules_of w = rules (Dataflow.Lint.check_workload w) in
  Alcotest.(check bool) "leaky fixture trips timing-leak" true
    (List.mem "timing-leak" (rules_of (Dataflow.Fixtures.leaky ())));
  Alcotest.(check bool) "leakfree fixture does not" false
    (List.mem "timing-leak" (rules_of (Dataflow.Fixtures.leakfree ())));
  (* Warning severity: findings gate nothing. *)
  Alcotest.(check int) "leaky fixture has no errors" 0
    (Dataflow.Lint.errors
       (Dataflow.Lint.check_workload (Dataflow.Fixtures.leaky ())))

let test_lint_workloads_error_free () =
  List.iter
    (fun (name, make) ->
       let findings = Dataflow.Lint.check_workload (make ()) in
       Alcotest.(check int)
         (Printf.sprintf "%s has no error findings" name) 0
         (Dataflow.Lint.errors findings))
    Isa.Workload.registry

let test_lint_json_shape () =
  let findings = Dataflow.Lint.check_program (Dataflow.Fixtures.dirty ()) in
  let doc = Dataflow.Lint.report_to_json [ ("dirty", findings) ] in
  let rendered = Prelude.Json.to_string doc in
  List.iter
    (fun fragment ->
       Alcotest.(check bool)
         (Printf.sprintf "json contains %s" fragment) true
         (string_contains rendered fragment))
    [ "\"schema\""; "predlab/lint"; "\"errors\""; "div-by-zero" ]

let () =
  Alcotest.run "dataflow"
    [ ("cfg",
       [ Alcotest.test_case "structure" `Quick test_cfg_structure;
         Alcotest.test_case "call/ret edges" `Quick test_cfg_call_ret_edges;
         Alcotest.test_case "blocks partition all workloads" `Quick
           test_cfg_partition_workloads;
         Alcotest.test_case "trace pcs appear in shapes" `Quick
           test_trace_pcs_in_shapes ]);
      ("interval",
       [ Alcotest.test_case "basics" `Quick test_interval_basics;
         Alcotest.test_case "sound on workloads" `Quick
           test_interval_sound_on_workloads;
         QCheck_alcotest.to_alcotest prop_interval_sound_on_random_programs;
         Alcotest.test_case "left shift that wraps" `Quick
           test_interval_shift_wraps;
         Alcotest.test_case "addition that wraps" `Quick
           test_interval_add_wraps;
         Alcotest.test_case "negation that wraps" `Quick
           test_interval_neg_wraps;
         Alcotest.test_case "dead branch detected" `Quick
           test_dead_branch_detected;
         Alcotest.test_case "no dead branches in workloads" `Quick
           test_no_dead_branches_in_workloads ]);
      ("liveness",
       [ Alcotest.test_case "dead store" `Quick test_dead_store;
         Alcotest.test_case "maybe uninitialized" `Quick
           test_maybe_uninitialized;
         Alcotest.test_case "written to halt" `Quick test_written_to_halt ]);
      ("taint",
       [ Alcotest.test_case "postdominators" `Quick test_postdominators;
         Alcotest.test_case "influence region" `Quick test_influence_region;
         Alcotest.test_case "input seeding" `Quick test_seeds_of_inputs;
         Alcotest.test_case "explicit flow" `Quick test_taint_explicit_flow;
         Alcotest.test_case "implicit flow" `Quick test_taint_implicit_flow;
         Alcotest.test_case "fixture leaks" `Quick test_taint_fixture_leaks;
         Alcotest.test_case "call in both arms" `Quick
           test_taint_call_in_both_arms;
         QCheck_alcotest.to_alcotest prop_taint_sound_on_random_programs ]);
      ("lint",
       [ Alcotest.test_case "clean fixture" `Quick test_lint_clean_fixture;
         Alcotest.test_case "dirty fixture" `Quick test_lint_dirty_fixture;
         Alcotest.test_case "loop counter clobber" `Quick
           test_lint_loop_clobber;
         Alcotest.test_case "while bounds" `Quick test_lint_while_bound;
         Alcotest.test_case "dead result register" `Quick
           test_lint_dead_result_reg;
         Alcotest.test_case "timing-leak warning" `Quick
           test_lint_timing_leak;
         Alcotest.test_case "workloads are error-free" `Quick
           test_lint_workloads_error_free;
         Alcotest.test_case "json report" `Quick test_lint_json_shape ]) ]
