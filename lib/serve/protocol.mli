(** The wire protocol of [predlab serve]: JSONL over a Unix-domain socket.

    One compact JSON object per line in each direction. Requests carry an
    ["op"] discriminator; responses are an envelope
    [{"ok": true, "op": OP, "result": DOC}] or
    [{"ok": false, "op": OP?, "error": MSG, ...}] (read back by
    {!reply_of_json}) — where [DOC] for the
    [run]/[sample]/[lint]/[certify] ops is {e exactly} the document the
    one-shot CLI
    prints under [--format json] (same schema, same emitter), so a serve
    client and a batch run are byte-comparable.

    Request forms:
    {v
    {"op":"eval","workload":"clamp","state":0,"input":3}
    {"op":"run","id":"EQ4","deadline":5.0,"retries":1}
    {"op":"sample","workloads":["clamp"],"seed":7,"samples":256,
     "confidence":0.99}
    {"op":"lint","workloads":[]}
    {"op":"compare","baseline":DOC,"current":DOC,"tolerance":50}
    {"op":"stats"}
    {"op":"shutdown"}
    v}
    Omitted optional fields take the daemon's (or the sampler's)
    defaults; an empty [workloads] list means the whole registry, like
    the CLI's positional default. Any request may carry a ["deadline"]
    (seconds) overriding the daemon-wide per-request budget. *)

type request =
  | Eval of { workload : string; state : int; input : int }
      (** one [T_p(q, i)] cell: indexes into the standard uncertainty
          sets ({!Predictability.Harness.inorder_states} and the
          workload's admissible inputs, capped at
          {!Predictability.Sampled.input_cap}) *)
  | Run of { id : string; retries : int }
  | Sample of {
      workloads : string list;
      seed : int option;
      samples : int option;
      confidence : float option;
    }
  | Lint of { workloads : string list }
  | Certify of { workloads : string list }
      (** static predictability certificates over the standard machine
          pair ({!Predictability.Certifier}); empty list = the whole
          registry, like [lint] and [sample] *)
  | Compare of {
      baseline : Prelude.Json.t;
      current : Prelude.Json.t;
      tolerance : float option;
    }
      (** the regression gate over two embedded report documents
          ({!Predictability.Regression.compare_reports}); [tolerance] in
          percent, defaulting to the gate's own 50 *)
  | Stats
  | Shutdown

val op_name : request -> string
(** The wire ["op"] string. *)

val request_to_json : ?deadline_s:float -> request -> Prelude.Json.t
(** What the client sends; [deadline_s] adds the per-request override. *)

val request_of_json :
  Prelude.Json.t -> (request * float option, string) result
(** Parse a request line's JSON; the [float option] is the per-request
    ["deadline"] override. [Error] messages are what the daemon echoes in
    its error envelope. *)

val ok : op:string -> Prelude.Json.t -> Prelude.Json.t
(** Success envelope around a result document. *)

val error :
  ?op:string -> ?fields:(string * Prelude.Json.t) list -> string ->
  Prelude.Json.t
(** Failure envelope; [fields] splices extra detail (e.g.
    [("after_s", ...)] on a timed-out request). *)

val overloaded : conns:int -> queue:int -> Prelude.Json.t
(** The backpressure envelope a shed connection receives instead of
    service: [ok: false] with [status: "overloaded"] plus the daemon's
    worker count and queue bound, so clients can distinguish "at
    capacity, retry later" (exit 5 in the CLI taxonomy) from a request
    error. *)

val oversized : max_frame:int -> Prelude.Json.t
(** The request-level error for a frame over the daemon's [--max-frame]
    byte cap: [status: "oversized"] plus the cap. The offending line is
    discarded whole and the connection stays open for the next request. *)

(** {1 Reading an envelope back}

    The one reader of the envelopes above: [predlab query], the daemon's
    served/errors tally, the serve chaos campaign and the tests all go
    through {!reply_of_json}, so the exit class a script sees and the
    verdict the campaign gates on cannot read the same envelope two
    ways. *)

type reply =
  | Answered of { op : string option; result : Prelude.Json.t }
      (** [ok: true]: the echoed op, if any, and the result document
          ([Null] if the envelope carries none) *)
  | Refused of { message : string; status : string option }
      (** [ok: false]: the ["error"] message (["unknown error"] if absent)
          and the machine-readable ["status"], when there is one:
          ["usage"], ["timed_out"], ["overloaded"], ["oversized"] or
          ["idle_timeout"] *)

val reply_of_json : Prelude.Json.t -> (reply, string) result
(** Read a response envelope. [Error "malformed response envelope"] when
    the document has no boolean ["ok"] (a non-object included). *)
