(** Campaign runner: execute one failure scenario against one system with a
    chosen watchdog mode and classify what each detector class saw.

    Timeline: boot → warmup (fault-free) → inject → observe. Detection
    latency is measured from the injection instant. *)

type pinpoint =
  | Exact            (** reported function = ground-truth function *)
  | Near of string   (** direct caller/callee of the ground truth *)
  | Wrong of string
  | No_loc

type outcome = {
  o_detected : bool;
  o_latency : int64 option;
  o_loc : Wd_ir.Loc.t option;
  o_pinpoint : pinpoint option;  (** [None] when no ground truth *)
  o_first_report : Wd_watchdog.Report.t option;
}

type run = {
  r_sid : string;
  r_system : string;
  r_outcomes : (string * outcome) list;
      (** keyed and ordered like {!families} *)
  r_pre_inject_reports : int;
  r_workload_ok_ratio : float;
  r_workload_issued : int;
  r_checker_count : int;
  r_sim_events : int;
}

val classify_checker : string -> [ `Mimic | `Probe | `Signal | `Inferred ]
(** By id prefix: ["probe:"], ["signal:"], ["inferred:"]; anything else is
    mimic. *)

val intrinsic_families : string list
(** The checker families that run inside the watched process:
    [mimic; probe; signal; inferred]. *)

val families : string list
(** Every detector family a run grades: {!intrinsic_families}, then the
    extrinsic [heartbeat; observer]. *)

val family_of_checker : string -> string
(** {!classify_checker} as a family name. *)

type config = {
  seed : int;
  warmup : int64;
  observe : int64;
  mode : Systems.watchdog_mode;
  infer : Wd_infer.Synth.model option;
      (** when set, trace-inferred checkers compiled from this model are
          attached alongside whatever [mode] provides: the scheduler gets a
          trace, a {!Wd_infer.Monitor} consumes it, and the compiled
          checkers join the same driver as every other family *)
  schedule : Wd_watchdog.Schedule.policy;
      (** checker scheduling policy the booted driver is created with
          (default {!Wd_watchdog.Schedule.fixed}) *)
}

val default_config : config

val inject : Systems.booted -> Wd_faults.Catalog.scenario -> unit
(** Inject a scenario at the current virtual instant: its catalog faults
    into [b_reg] and, for the ["crash"] special, the whole-process crash. *)

val run_raw :
  config ->
  system:string ->
  scenario:Wd_faults.Catalog.scenario option ->
  unit ->
  Systems.booted * int64
(** Low-level: {!Systems.boot} with a fresh fault registry, warm up, {!inject} (if a scenario is given), observe.
    Returns the booted system and the injection instant, for experiments
    that need raw access. *)

val run_scenario : ?cfg:config -> string -> run

type cell = { cell_sid : string; cell_cfg : config }
(** One campaign cell: a scenario under a configuration (watchdog mode,
    seed, warmup/observe windows). *)

val cell : ?cfg:config -> string -> cell

val run_batch : ?jobs:int -> cell list -> run list
(** Run a batch of cells across the persistent process-wide domain pool
    ([jobs] defaults to {!Wd_parallel.Pool.default_jobs}). Every cell is a
    self-contained deterministic simulation, and results are returned in
    input order, so the output is identical to [List.map] of
    {!run_scenario} — only faster on multicore hosts. *)

type fault_free = {
  ff_system : string;
  ff_fp : (string * int) list;
      (** false alarms per family, keyed and ordered like {!families} *)
  ff_workload_ok_ratio : float;
  ff_sim_events : int;
      (** deterministic cost proxy: scheduler events fired; comparing
          configurations on the same world measures checker overhead *)
  ff_checker_count : int;
}

val run_fault_free : ?cfg:config -> ?special:string -> string -> fault_free
(** Accuracy run: no fault injected; every report is a false alarm.
    [special] selects a boot variant (e.g. "in_memory", "burst"). *)
