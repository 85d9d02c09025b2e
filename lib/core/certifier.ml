(* The standard machine pair the certifier issues verdicts for, and the
   single JSON constructor shared by `predlab certify --format json`, the
   serve daemon's certify op, and the DEF.CERT oracle — byte-identity
   between the three is by construction, not by convention. *)

module Json = Prelude.Json

let flat_machine =
  { Analysis.Certify.label = "flat";
    upper =
      { Analysis.Wcet.icache = Analysis.Wcet.Flat_fetch 1;
        dmem = Analysis.Wcet.Flat_data 1; unroll = true; budget = None };
    lower =
      { Analysis.Wcet.icache = Analysis.Wcet.Flat_fetch 1;
        dmem = Analysis.Wcet.Flat_data 1; unroll = false; budget = None };
    dynamic_predictor = false }

(* Same analysis configurations as the FIG1.SOUND oracle. *)
let cached_machine =
  { Analysis.Certify.label = "cached";
    upper = Harness.cached_analysis ~unroll:true;
    lower = Harness.cached_analysis ~unroll:false;
    dynamic_predictor = false }

let machines = [ flat_machine; cached_machine ]

let certificates w = List.map (fun m -> Analysis.Certify.certify m w) machines

type row = {
  name : string;
  expect : Analysis.Certify.verdict option;
  certs : Analysis.Certify.certificate list;
}

let row ?expect (w : Isa.Workload.t) =
  { name = w.Isa.Workload.name; expect; certs = certificates w }

(* Expectations are judged against the flat machine: it isolates the
   input channel (SIPr/IIPr), which is what a constant-time claim is
   about. On the cached machine the unknown initial cache is itself an
   uncertainty source, so nothing non-trivial is Invariant there and the
   expectation would be vacuously contradicted. *)
let flat_cert row =
  match
    List.find_opt
      (fun (c : Analysis.Certify.certificate) ->
         c.Analysis.Certify.machine = flat_machine.Analysis.Certify.label)
      row.certs
  with
  | Some c -> c
  | None -> List.hd row.certs

let contradicted row =
  match row.expect with
  | None -> false
  | Some e -> (flat_cert row).Analysis.Certify.verdict <> e

let contradictions rows =
  List.length (List.filter contradicted rows)

(* --- JSON ---------------------------------------------------------------- *)

let leak_to_json (l : Dataflow.Taint.leak) =
  Json.Obj
    [ ("pc", Json.Int l.Dataflow.Taint.pc);
      ("channel",
       Json.String (Dataflow.Taint.channel_name l.Dataflow.Taint.channel));
      ("instr",
       Json.String (Format.asprintf "%a" Isa.Instr.pp l.Dataflow.Taint.ins)) ]

let certificate_to_json (c : Analysis.Certify.certificate) =
  Json.Obj
    [ ("machine", Json.String c.Analysis.Certify.machine);
      ("verdict",
       Json.String (Analysis.Certify.verdict_name c.Analysis.Certify.verdict));
      ("lb", Json.Int c.Analysis.Certify.lb);
      ("ub", Json.Int c.Analysis.Certify.ub);
      ("spread_ub", Json.Int c.Analysis.Certify.spread_ub);
      ("varying_sites", Json.Int c.Analysis.Certify.varying_sites);
      ("leaks", Json.List (List.map leak_to_json c.Analysis.Certify.leaks));
      ("state_channels",
       Json.List
         (List.map
            (fun s -> Json.String (Analysis.Certify.state_channel_name s))
            c.Analysis.Certify.state_channels)) ]

let row_to_json r =
  Json.Obj
    (("name", Json.String r.name)
     :: (match r.expect with
         | None -> []
         | Some e ->
           [ ("expected", Json.String (Analysis.Certify.verdict_name e));
             ("contradicted", Json.Bool (contradicted r)) ])
     @ [ ("certificates",
          Json.List (List.map certificate_to_json r.certs)) ])

let report_to_json rows =
  let count verdict =
    List.fold_left
      (fun acc r ->
         acc
         + List.length
             (List.filter
                (fun (c : Analysis.Certify.certificate) ->
                   c.Analysis.Certify.verdict = verdict)
                r.certs))
      0 rows
  in
  Json.Obj
    [ ("schema", Json.String "predlab/certify");
      ("version", Json.Int 1);
      ("targets", Json.List (List.map row_to_json rows));
      ("invariant", Json.Int (count Analysis.Certify.Invariant));
      ("bounded", Json.Int (count Analysis.Certify.Bounded));
      ("contradictions", Json.Int (contradictions rows)) ]

(* --- Text rendering ------------------------------------------------------ *)

let leak_summary (c : Analysis.Certify.certificate) =
  match c.Analysis.Certify.leaks with
  | [] -> "-"
  | leaks ->
    let channel ch =
      List.length
        (List.filter
           (fun (l : Dataflow.Taint.leak) -> l.Dataflow.Taint.channel = ch)
           leaks)
    in
    String.concat ","
      (List.filter_map
         (fun ch ->
            match channel ch with
            | 0 -> None
            | n ->
              Some (Printf.sprintf "%d %s" n (Dataflow.Taint.channel_name ch)))
         [ Dataflow.Taint.Branch; Dataflow.Taint.Latency;
           Dataflow.Taint.Address ])

let render rows =
  let table =
    Prelude.Table.make
      ~header:
        [ "workload"; "machine"; "verdict"; "LB"; "UB"; "spread <=";
          "leaks"; "state channels"; "expectation" ]
  in
  List.iter
    (fun r ->
       List.iter
         (fun (c : Analysis.Certify.certificate) ->
            let is_flat =
              c.Analysis.Certify.machine
              = flat_machine.Analysis.Certify.label
            in
            let expectation =
              match r.expect with
              | None -> ""
              | Some _ when not is_flat -> ""
              | Some e ->
                Printf.sprintf "%s: %s"
                  (Analysis.Certify.verdict_name e)
                  (if contradicted r then "CONTRADICTED" else "ok")
            in
            Prelude.Table.add_row table
              [ r.name; c.Analysis.Certify.machine;
                Analysis.Certify.verdict_name c.Analysis.Certify.verdict;
                string_of_int c.Analysis.Certify.lb;
                string_of_int c.Analysis.Certify.ub;
                string_of_int c.Analysis.Certify.spread_ub;
                leak_summary c;
                (match c.Analysis.Certify.state_channels with
                 | [] -> "-"
                 | chs ->
                   String.concat ","
                     (List.map Analysis.Certify.state_channel_name chs));
                expectation ])
         r.certs)
    rows;
  Prelude.Table.render table
