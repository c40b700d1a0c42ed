(** The paper's tables, figures and preliminary results as runnable
    experiments (E1–E23; index in DESIGN.md, measured-vs-paper records in
    EXPERIMENTS.md). {!all} registers each experiment once; the structured
    runners below are the ones the gates ({!Check}) and the tests consume. *)

val set_jobs : int -> unit
(** Set the domain-pool width every experiment fans its simulations across
    (clamped to >= 1). Defaults to [WD_JOBS] or the host's recommended
    domain count. Tables are byte-identical at any width. *)

val jobs : unit -> int
(** The effective width. *)

val set_seed : int -> unit
(** Override the base seed experiments derive their seed lists from (the
    repro [--seed] flag). Defaults to 42. *)

val base_seed : unit -> int
(** The effective base seed. *)

(** {2 The registry} *)

type size = {
  flag : string;  (** the long option, e.g. ["worlds"] for [--worlds] *)
  about : string;  (** its help text *)
  default : int;
  least : int;  (** the smallest accepted value *)
}
(** An experiment's one size knob. *)

type t = {
  name : string;  (** the [repro] command *)
  doc : string;  (** its help line *)
  size : size option;
  render : int -> string;
      (** run the experiment at the given size (ignored without a size
          flag) and render its table *)
}

val all : t list
(** Every experiment, in presentation order. *)

(** {2 Structured runners} *)

val e2_matches_expectation : Campaign.run -> bool
(** E2: a run agrees with its catalog scenario's paper-informed
    prediction. *)

val e6_run :
  unit -> (string * Wd_autowatchdog.Generate.generated * float) list
(** E6: per target, the generated watchdog and the host analysis time in
    milliseconds. *)

(* E8 — context synchronisation ablation *)
type e8_row = { e8_mode : string; e8_false_alarms : int; e8_skips : int }

val e8_run : unit -> e8_row list

(* E10 — isolation *)
type e10_result = {
  e10_scratch_disjoint : bool;
  e10_driver_survives : bool;
  e10_main_unperturbed : bool;
  e10_crashing_runs : int;
}

val e10_run : unit -> e10_result

val e17_run : unit -> Wd_cluster.Sim.result list
(** E17: the fleet grid over 5-node clusters (decentralized: leader-elected
    aggregation over the fabric). *)

val e19_run : unit -> Wd_cluster.Sim.result list
(** E19: heterogeneous 9/15-node fleets over an asymmetric link fabric,
    graded on verdict priority under correlated failures. *)

(* E21 — checker-generation race: mimic (static analysis) vs trace-inferred
   checkers across the full catalog, in mimic-only / inferred-only /
   combined deployments *)
type e21_family = {
  e21f_family : string;
  e21f_detected : int;
  e21f_total : int;
  e21f_latency : Metrics.latency_stats;
  e21f_fp : int;  (** false positives over the fault-free runs *)
}

type e21_deploy = {
  e21d_label : string;
  e21d_any : int;  (** scenarios where any family detected *)
  e21d_total : int;
  e21d_families : e21_family list;
  e21d_fp : int;
  e21d_checkers : int;
  e21d_overhead_pct : float;
      (** fault-free sim-event surplus vs a bare (no mimic, no inferred)
          baseline on the same worlds — deterministic, host-independent *)
}

type e21_result = {
  e21_mined_runs : int;
  e21_mined_events : int;
  e21_model_digest : string;
  e21_invariants : (string * int) list;
  e21_deploys : e21_deploy list;
}

val e21_run : unit -> e21_result
(** Mines under the harness-wide jobs override (digest-deterministic at
    any width), then races the three deployments. *)

(* E22 — watchdog overhead under heavy traffic: the load plane (Loadgen)
   drives each workload with 10^5..10^6+ requests per deployment and
   compares watchdog-on / watchdog-off / inferred-on on the same virtual
   world *)
type e22_row = {
  e22r_deploy : string;  (** "wd-off" | "wd-on" | "inferred-on" *)
  e22r_load : Loadgen.result;
  e22r_sim_events : int;
  e22r_overhead_pct : float;
      (** sim-event inflation vs the wd-off row of the same workload —
          the work the watchdog adds; deterministic, host-independent *)
  e22r_p50_x : float;  (** p50 latency ratio vs the wd-off row *)
  e22r_p99_x : float;
  e22r_detect : int64 option;
      (** detection latency of a mid-load catalog fault (separate injected
          run at the same offered load); [None] when nothing detects *)
}

type e22_workload = {
  e22w_label : string;
  e22w_gen : string;  (** "closed" | "open" | "fleet" *)
  e22w_requests : int;  (** completed requests, all rows + injected runs *)
  e22w_rows : e22_row list;
}

type e22_result = {
  e22_workloads : e22_workload list;
  e22_total_requests : int;
}

type e22_alloc_row = {
  e22a_deploy : string;  (** "wd-off" | "wd-on" *)
  e22a_requests : int;  (** completed requests actually driven *)
  e22a_words_per_req : float;  (** minor-heap words per completed request *)
  e22a_bytes_per_req : float;
}

val e22_alloc : unit -> e22_alloc_row list
(** Minor-heap allocation per completed request on a 20,000-request zkmini
    closed loop, one row per deployment (wd-off, wd-on; inferred-on is
    skipped — it needs a mining pass). Runs inline on the calling domain
    because [Gc.minor_words] is per-domain; deterministic for a fixed
    seed. *)

val e22_run : ?requests:int -> unit -> e22_result
(** [requests] (default 60,000) is the budget per deployment row of each
    single-node workload and of the fleet row; detection runs use a
    quarter of it. *)

(* E23 — the scheduling frontier *)
type e23_row = {
  e23f_mode : string;  (** "fixed" | "adaptive" | "adaptive-relaxed" *)
  e23f_policy : string;  (** rendered policy parameters *)
  e23f_overhead_pct : float;
      (** mean wd-on sim-event inflation vs the shared wd-off baseline
          across the E22 load plane *)
  e23f_sched_events : int;
      (** checker-scheduling overhead: events above the hooks-only
          baseline (instrumented program, driver stopped at boot) summed
          over the load plane — context sync is per-request cost no
          schedule can touch, so the frontier gates on this component *)
  e23f_sched_cut_pct : float;
      (** scheduling-overhead reduction vs the fixed row (0 for fixed) *)
  e23f_p99_x : float;  (** worst p99 latency ratio vs wd-off *)
  e23f_load_detect : int64 option;
      (** worst detection latency of the mid-load catalog faults *)
  e23f_detected : int;
      (** full-catalog scenarios detected by an intrinsic checker family
          ({!Campaign.intrinsic_families}) *)
  e23f_catalog : int;
  e23f_worst_detect : int64 option;
      (** worst catalog detection latency, over the scenario set the fixed
          baseline detects (modes compared on one set) *)
  e23f_mean_detect : int64 option;
  e23f_runs : int;  (** checker executions across the load-plane runs *)
  e23f_dedup_skips : int;  (** runs skipped on unchanged context version *)
  e23f_shared_syncs : int;  (** co-scheduled runs sharing a snapshot *)
  e23f_throttle_peak : float;
}

val e23_run : ?requests:int -> unit -> e23_row list
(** Per scheduling mode, watchdog overhead on the E22 load plane against
    detection latency across the full fault catalog. [requests] is the
    load-plane budget per run (default 60,000). *)
