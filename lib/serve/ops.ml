module Json = Prelude.Json
module Experiments = Predictability.Experiments

exception Usage of string

(* --- Selection ----------------------------------------------------------- *)

let workload name =
  match List.assoc_opt name Isa.Workload.registry with
  | Some make -> make
  | None ->
    raise
      (Usage (Printf.sprintf "unknown workload %S; try `predlab workloads`" name))

let select_workloads = function
  | [] -> Isa.Workload.registry
  | names -> List.map (fun name -> (name, workload name)) names

let experiment id =
  match Experiments.lookup id with
  | Ok entry -> entry
  | Error message -> raise (Usage message)

(* --- Builders ------------------------------------------------------------ *)

let run_supervised ~jobs ~supervision ?journal ?(resume = false) entries =
  let results, elapsed_s =
    Predictability.Harness.elapsed (fun () ->
        Experiments.run_supervised ~jobs ~supervision ?journal ~resume
          ~entries ())
  in
  (results, Experiments.supervised_to_json ~jobs ~elapsed_s results)

let sample_rows ~jobs ~spec ~cross_check names =
  List.map
    (Predictability.Sampled.analyze ~jobs ~spec ~cross_check)
    (select_workloads names)

let lint_targets names =
  List.map
    (fun (name, make) -> (name, Dataflow.Lint.check_workload (make ())))
    (select_workloads names)

let certify_rows ?expect names =
  List.map
    (fun (_, make) -> Predictability.Certifier.row ?expect (make ()))
    (select_workloads names)

let compare_doc findings =
  let module R = Predictability.Regression in
  Json.Obj
    [ ("schema", Json.String "predlab/serve-compare");
      ("version", Json.Int 1);
      ("passed", Json.Bool (findings = []));
      ("findings",
       Json.List
         (List.map
            (fun f ->
               Json.Obj
                 [ ("kind", Json.String (R.kind_string f.R.kind));
                   ("subject", Json.String f.R.subject);
                   ("detail", Json.String f.R.detail) ])
            findings)) ]

(* Every op but [run] holds the request to its budget here; [run] hands it
   to the experiment supervisor, which classifies an overrun inside the
   report, exactly like the one-shot [predlab run --deadline]. *)
let guarded deadline_s f =
  match deadline_s with
  | None -> f ()
  | Some deadline_s -> Prelude.Parallel.with_deadline ~deadline_s f

(* --- Exit classes, read back from the documents -------------------------- *)

let count name doc =
  Option.value ~default:0 (Option.bind (Json.member name doc) Json.int_value)

let nonzero name doc = if count name doc > 0 then 1 else 0

let run_exit doc =
  if count "crashed" doc > 0 || count "timed_out" doc > 0 then 3
  else if count "experiments_passed" doc < count "experiments_total" doc then 1
  else 0

(* A row carries a "contained" object only when the exhaustive values were
   computed next to the estimates (`predlab sample --check`). *)
let sample_exit doc =
  let escaped row =
    match Json.member "contained" row with
    | Some (Json.Obj flags) ->
      List.exists (fun (_, v) -> v <> Json.Bool true) flags
    | _ -> false
  in
  match Json.member "workloads" doc with
  | Some (Json.List rows) when List.exists escaped rows -> 1
  | _ -> 0

let error_exit = function
  | Some "usage" -> 2
  | Some "timed_out" -> 3
  | Some "overloaded" -> 5
  | _ -> 1

(* --- The table ----------------------------------------------------------- *)

type flags = {
  retries : int;
  seed : int option;
  samples : int option;
  confidence : float option;
  tolerance : float option;
}

type entry = {
  name : string;
  args : string;
  request : flags -> string list -> Protocol.request option;
  document : jobs:int -> deadline_s:float option -> Protocol.request -> Json.t;
  exit_code : Json.t -> int;
  newline : bool;
}

let mismatch name = invalid_arg ("Serve.Ops: not a " ^ name ^ " request")

let load_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error message -> raise (Usage message)
  | contents -> (
      match Json.parse contents with
      | Ok json -> json
      | Error message -> raise (Usage (Printf.sprintf "%s: %s" path message)))

let run =
  { name = "run";
    args = "ID";
    request =
      (fun flags -> function
         | [ id ] -> Some (Protocol.Run { id; retries = flags.retries })
         | _ -> None);
    document =
      (fun ~jobs ~deadline_s -> function
         | Protocol.Run { id; retries } ->
           let supervision = { Experiments.deadline_s; retries } in
           snd (run_supervised ~jobs ~supervision [ experiment id ])
         | _ -> mismatch "run");
    exit_code = run_exit;
    newline = false }

let sample =
  { name = "sample";
    args = "[WORKLOAD...]";
    request =
      (fun { seed; samples; confidence; _ } workloads ->
         Some (Protocol.Sample { workloads; seed; samples; confidence }));
    document =
      (fun ~jobs ~deadline_s -> function
         | Protocol.Sample { workloads; seed; samples; confidence } ->
           let d = Sampling.Sampler.default in
           let spec =
             { d with
               Sampling.Sampler.seed =
                 Option.value ~default:d.Sampling.Sampler.seed seed;
               n_cells = Option.value ~default:d.Sampling.Sampler.n_cells samples;
               confidence =
                 Option.value ~default:d.Sampling.Sampler.confidence confidence }
           in
           guarded deadline_s (fun () ->
               Predictability.Sampled.report_to_json ~jobs
                 (sample_rows ~jobs ~spec ~cross_check:false workloads))
         | _ -> mismatch "sample");
    exit_code = sample_exit;
    newline = true }

let lint =
  { name = "lint";
    args = "[WORKLOAD...]";
    request = (fun _ workloads -> Some (Protocol.Lint { workloads }));
    document =
      (fun ~jobs:_ ~deadline_s -> function
         | Protocol.Lint { workloads } ->
           guarded deadline_s (fun () ->
               Dataflow.Lint.report_to_json (lint_targets workloads))
         | _ -> mismatch "lint");
    exit_code = nonzero "errors";
    newline = true }

let certify =
  { name = "certify";
    args = "[WORKLOAD...]";
    request = (fun _ workloads -> Some (Protocol.Certify { workloads }));
    document =
      (fun ~jobs:_ ~deadline_s -> function
         | Protocol.Certify { workloads } ->
           guarded deadline_s (fun () ->
               Predictability.Certifier.report_to_json (certify_rows workloads))
         | _ -> mismatch "certify");
    exit_code = nonzero "contradictions";
    newline = true }

let compare =
  { name = "compare";
    args = "BASELINE.json CURRENT.json";
    request =
      (fun { tolerance; _ } -> function
         | [ baseline; current ] ->
           let baseline = load_json baseline in
           Some
             (Protocol.Compare
                { baseline; current = load_json current; tolerance })
         | _ -> None);
    document =
      (fun ~jobs:_ ~deadline_s -> function
         | Protocol.Compare { baseline; current; tolerance } ->
           guarded deadline_s (fun () ->
               compare_doc
                 (Predictability.Regression.compare_reports
                    ?tolerance_pct:tolerance ~baseline ~current ()))
         | _ -> mismatch "compare");
    exit_code =
      (fun doc -> if Json.member "passed" doc = Some (Json.Bool false) then 1 else 0);
    newline = false }

let table = [ run; sample; lint; certify; compare ]

let find name = List.find_opt (fun e -> e.name = name) table

let render entry doc =
  let s = Json.to_string_pretty doc in
  if entry.newline then s ^ "\n" else s
