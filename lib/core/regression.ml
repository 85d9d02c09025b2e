type kind =
  | Schema
  | Missing
  | Check_regression
  | Slowdown

type finding = {
  kind : kind;
  subject : string;
  detail : string;
}

let kind_string = function
  | Schema -> "schema"
  | Missing -> "missing"
  | Check_regression -> "check-regression"
  | Slowdown -> "slowdown"

let finding_string f =
  Printf.sprintf "[%s] %s: %s" (kind_string f.kind) f.subject f.detail

(* Timing floors: below these the measurement is noise-dominated (a 0.001s
   experiment doubling is scheduler jitter, not a regression), so the
   slowdown gate only arms above them. Check regressions are always gated. *)
let min_wall_s = 0.01
let min_ns_per_run = 1.0

let slowdown ~tolerance_pct ~floor ~unit ~subject base cur =
  if base >= floor && cur > base *. (1. +. (tolerance_pct /. 100.)) then
    [ { kind = Slowdown;
        subject;
        detail =
          Printf.sprintf "%.3f%s -> %.3f%s (+%.0f%%, tolerance %.0f%%)"
            base unit cur unit
            (((cur /. base) -. 1.) *. 100.)
            tolerance_pct } ]
  else []

let index_by key items =
  List.filter_map
    (fun item ->
       match Prelude.Json.(member key item) with
       | Some (Prelude.Json.String name) -> Some (name, item)
       | _ -> None)
    items

let check_passed checks label =
  List.exists
    (fun c ->
       Prelude.Json.(member "label" c) = Some (Prelude.Json.String label)
       && Prelude.Json.(member "passed" c) = Some (Prelude.Json.Bool true))
    checks

let checks_of exp =
  match Prelude.Json.member "checks" exp with
  | Some checks -> Option.value ~default:[] (Prelude.Json.to_list checks)
  | None -> []

(* A baseline experiment that completed (v1 records always did — absent
   "status" parses as Completed) but is crashed/timed-out in the current
   report regressed even if it had no checks to lose. *)
let status_findings ~id ~base_exp ~cur_exp =
  match Report.status_of_json base_exp, Report.status_of_json cur_exp with
  | Ok Report.Completed, Ok (Report.Crashed { error }) ->
    [ { kind = Check_regression; subject = id;
        detail = "completed in baseline, crashed in current: " ^ error } ]
  | Ok Report.Completed, Ok (Report.Timed_out { after_s }) ->
    [ { kind = Check_regression; subject = id;
        detail =
          Printf.sprintf
            "completed in baseline, timed out in current (after %.3fs)"
            after_s } ]
  | Error message, _ | _, Error message ->
    [ { kind = Schema; subject = id; detail = message } ]
  | Ok _, Ok _ -> []

let compare_experiments ~tolerance_pct ~baseline ~current =
  let current_by_id = index_by "id" current in
  List.concat_map
    (fun base_exp ->
       match Prelude.Json.member "id" base_exp with
       | Some (Prelude.Json.String id) -> (
           match List.assoc_opt id current_by_id with
           | None ->
             [ { kind = Missing; subject = id;
                 detail = "experiment present in baseline, absent in current" } ]
           | Some cur_exp ->
             let cur_checks = checks_of cur_exp in
             let check_findings =
               List.filter_map
                 (fun c ->
                    match
                      Prelude.Json.member "label" c,
                      Prelude.Json.member "passed" c
                    with
                    | Some (Prelude.Json.String label),
                      Some (Prelude.Json.Bool true)
                      when not (check_passed cur_checks label) ->
                      Some
                        { kind = Check_regression;
                          subject = id;
                          detail =
                            Printf.sprintf
                              "check %S passed in baseline, fails in current"
                              label }
                    | _ -> None)
                 (checks_of base_exp)
             in
             let wall_findings =
               match
                 Option.bind (Prelude.Json.member "wall_s" base_exp)
                   Prelude.Json.float_value,
                 Option.bind (Prelude.Json.member "wall_s" cur_exp)
                   Prelude.Json.float_value
               with
               | Some base, Some cur ->
                 slowdown ~tolerance_pct ~floor:min_wall_s ~unit:"s"
                   ~subject:id base cur
               | _ -> []
             in
             status_findings ~id ~base_exp ~cur_exp
             @ check_findings @ wall_findings)
       | _ ->
         [ { kind = Schema; subject = "experiments";
             detail = "baseline entry without a string \"id\"" } ])
    baseline

(* Kernels ({"name", "ns_per_run"} from bench --json) are compared only when
   both documents carry them: a predlab/report current compared against a
   predlab/bench baseline simply skips the microbenchmark gate. *)
let compare_kernels ~tolerance_pct ~baseline ~current =
  let current_by_name = index_by "name" current in
  List.concat_map
    (fun base_kernel ->
       match Prelude.Json.member "name" base_kernel with
       | Some (Prelude.Json.String name) -> (
           match List.assoc_opt name current_by_name with
           | None ->
             [ { kind = Missing; subject = name;
                 detail = "kernel present in baseline, absent in current" } ]
           | Some cur_kernel -> (
               match
                 Option.bind (Prelude.Json.member "ns_per_run" base_kernel)
                   Prelude.Json.float_value,
                 Option.bind (Prelude.Json.member "ns_per_run" cur_kernel)
                   Prelude.Json.float_value
               with
               | Some base, Some cur ->
                 slowdown ~tolerance_pct ~floor:min_ns_per_run ~unit:"ns"
                   ~subject:name base cur
               | _ -> []))
       | _ ->
         [ { kind = Schema; subject = "kernels";
             detail = "baseline entry without a string \"name\"" } ])
    baseline

let experiments_of doc =
  Option.bind (Prelude.Json.member "experiments" doc) Prelude.Json.to_list

let kernels_of doc =
  Option.bind (Prelude.Json.member "kernels" doc) Prelude.Json.to_list

(* Both report schema versions are accepted on either side: v1 (plain
   results) and v2 (supervised, with per-experiment status). An absent
   "version" is fine — bench documents and hand-built fixtures never
   carried one. *)
let version_findings ~subject doc =
  match Prelude.Json.member "version" doc with
  | None | Some (Prelude.Json.Int (1 | 2)) -> []
  | Some (Prelude.Json.Int v) ->
    [ { kind = Schema; subject;
        detail =
          Printf.sprintf "unsupported report version %d (expected 1 or 2)" v } ]
  | Some _ ->
    [ { kind = Schema; subject; detail = "non-integer report version" } ]

(* Fast-engine kernel timings are only meaningful while the FIG1.FAST
   equivalence oracle holds: a document carrying one without a passing
   FIG1.FAST in the same run holds an unvalidated number. *)
let fast_gate doc =
  let fast kernel =
    Prelude.Json.member "engine" kernel = Some (Prelude.Json.String "fast")
  in
  let fig1_fast_passed exp =
    Prelude.Json.member "id" exp = Some (Prelude.Json.String "FIG1.FAST")
    && Report.status_of_json exp = Ok Report.Completed
    && List.for_all
         (fun c ->
            Prelude.Json.member "passed" c = Some (Prelude.Json.Bool true))
         (checks_of exp)
  in
  let exists p items = List.exists p (Option.value ~default:[] items) in
  if exists fast (kernels_of doc)
     && not (exists fig1_fast_passed (experiments_of doc))
  then
    [ { kind = Check_regression; subject = "FIG1.FAST";
        detail = "fast-engine kernels present but FIG1.FAST is absent or \
                  failing" } ]
  else []

let compare_reports ?(tolerance_pct = 50.) ~baseline ~current () =
  if tolerance_pct < 0. then
    invalid_arg "Regression.compare_reports: negative tolerance";
  match
    version_findings ~subject:"baseline" baseline
    @ version_findings ~subject:"current" current
  with
  | _ :: _ as findings -> findings
  | [] ->
  match experiments_of baseline with
  | None ->
    [ { kind = Schema; subject = "baseline";
        detail = "no \"experiments\" array" } ]
  | Some base_exps ->
    let exp_findings =
      match experiments_of current with
      | None ->
        [ { kind = Schema; subject = "current";
            detail = "no \"experiments\" array" } ]
      | Some cur_exps ->
        compare_experiments ~tolerance_pct ~baseline:base_exps
          ~current:cur_exps
    in
    let kernel_findings =
      match kernels_of baseline, kernels_of current with
      | Some base_kernels, Some cur_kernels ->
        compare_kernels ~tolerance_pct ~baseline:base_kernels
          ~current:cur_kernels
      | _ -> []
    in
    exp_findings @ kernel_findings @ fast_gate current
