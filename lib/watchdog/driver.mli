(** The watchdog driver (§3.1): schedules checkers, executes each run in a
    confined worker fiber with a deadline, catches failure signatures
    (error, crash, hang, slowness), debounces and validates them, and
    surfaces reports to registered actions.

    How checkers are scheduled is a typed {!Schedule.policy} chosen at
    {!create}: {!Schedule.fixed} reproduces the historical per-checker
    daemon loops exactly, while [Schedule.adaptive ()] runs one central
    loop that throttles cadence under load pressure (within a hard
    detection-latency bound), batches co-scheduled context syncs, and
    deduplicates runs whose context version is unchanged.

    A hung or crashed checker never takes the driver down. *)

type t

val create : ?policy:Policy.t -> ?schedule:Schedule.policy -> Wd_sim.Sched.t -> t
(** [schedule] defaults to {!Schedule.fixed} — the historical behaviour,
    bit-for-bit. *)

val schedule : t -> Schedule.t
(** The driver's scheduler instance: wire load probes in
    ({!Schedule.set_load_probe}) and read {!Schedule.stats} out. *)

val add_checker : t -> Checker.t -> unit
(** Before {!start}: queued. After: scheduled immediately. *)

val start : t -> unit
(** Put every queued checker on the schedule: one daemon loop per checker
    under a fixed policy, one shared central loop under an adaptive one. *)

val stop : t -> unit

val on_report : t -> (Report.t -> unit) -> unit
(** Actions run on every surfaced report (alerting, recovery, ...). *)

val reports : t -> Report.t list
(** Surfaced reports, oldest first. *)

val suppressed : t -> Report.t list
(** Reports held back by validation (policy [suppress_unvalidated]). *)

val first_report_where : t -> (Report.t -> bool) -> Report.t option

type checker_stats = {
  cs_id : string;
  cs_kind : Checker.kind;
  cs_executions : int;
  cs_failures : int;
  cs_skips : int;
  cs_timeouts : int;
  cs_dedups : int;
      (** adaptive-schedule runs skipped on unchanged context version *)
}

val stats : t -> checker_stats list
val checker_count : t -> int
