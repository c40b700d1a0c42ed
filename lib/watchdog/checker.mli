(** The checker abstraction (§3.1, Table 2). Probe, signal and mimic
    checkers differ only in what {!field-run} does and what localisation they
    offer, so they share this one type and one driver. *)

type kind = Probe | Signal | Mimic

type outcome =
  | Pass
  | Skip of string  (** e.g. context not ready — counted, not a failure *)
  | Fail of Report.t

type t = {
  id : string;
  kind : kind;
  period : int64;
  timeout : int64;             (** the driver kills a run past this deadline *)
  slow_budget : int64 option;  (** absolute completed-but-slow threshold;
                                   [None] = the driver's adaptive baseline *)
  run : now:int64 -> outcome;
  locate :
    unit -> Wd_ir.Loc.t option * string * (string * Wd_ir.Ast.value) list;
      (** best-effort pinpoint after a timeout or crash:
          (location, op description, captured payload) *)
  slow_elapsed : unit -> int64 option;
      (** duration to assess for slowness after a Pass; [None] = wall time.
          Mimic checkers report operation time minus benign lock waits. *)
  ctx_version : (unit -> int) option;
      (** monotone version of the state the verdict depends on (the
          watchdog context's update counter for mimic checkers). An
          adaptive scheduler may skip a run whose version is unchanged
          since the last execution, within its latency bound. [None] =
          never dedupable — signal/probe checkers, and progress checkers
          whose point is noticing the version is {e not} advancing. *)
}

val kind_of_id : string -> kind
(** The kind a checker id names by its prefix convention: ["probe:"],
    ["signal:"], anything else mimic. Reports carry only the id, so
    consumers that group reports by family read the kind back here. *)

val make :
  ?kind:kind ->
  ?period:int64 ->
  ?timeout:int64 ->
  ?slow_budget:int64 ->
  ?locate:
    (unit -> Wd_ir.Loc.t option * string * (string * Wd_ir.Ast.value) list) ->
  ?slow_elapsed:(unit -> int64 option) ->
  ?ctx_version:(unit -> int) ->
  id:string ->
  (now:int64 -> outcome) ->
  t
