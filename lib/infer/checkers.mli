(** Checker compiler: lower a synthesized model into
    {!Wd_watchdog.Checker.t} values — one grouped signal-style checker per
    invariant family, all carrying the ["inferred:"] id prefix the harness
    classifies as the inferred checker family. They attach to the standard
    {!Wd_watchdog.Driver} unchanged. *)

val id_prefix : string

val compile :
  ?period:int64 ->
  ?timeout:int64 ->
  model:Synth.model ->
  monitor:Monitor.t ->
  unit ->
  Wd_watchdog.Checker.t list
(** Checkers returned in a canonical (id-sorted) order. Each run drains
    [monitor] and evaluates its family's invariants in model order,
    reporting the first violation: envelope breaches as Hang/Slow,
    never-fail breaches as Error_sig, ordering/exclusion as Assert_fail. *)

val eval :
  Monitor.t ->
  now:int64 ->
  id:string ->
  Synth.invariant ->
  Wd_watchdog.Report.t option
(** Exposed for tests: evaluate a single invariant. *)
