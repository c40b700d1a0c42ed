(** Trace miner (stage 1 of the inferred-checker pipeline): record
    operation-level trace events from passing runs and aggregate them into
    per-key timing/failure statistics, first-occurrence orderings and
    same-target concurrency observations. *)

type ops
(** One run's op events, in order, stored as parallel columns with op,
    node and function {!Wd_sim.Site} ids. *)

val ops_length : ops -> int

val iter_ops : ops -> Wd_sim.Trace.op_fold -> unit
(** In order, with the fields a {!Wd_sim.Trace.cursor} passes. *)

val ops_of_events : Wd_sim.Trace.event list -> ops
(** The op events of a boxed event list (others are skipped): synthetic
    traces for tests. *)

type run_obs = {
  ro_id : string;
  ro_seed : int;
  ro_span : int64;
  ro_ops : ops;
}

type recorder

val attach : Wd_sim.Sched.t -> recorder
(** Register a {!Wd_sim.Trace.cursor} on {!Wd_sim.Sched.trace} that copies
    op events into an unbounded accumulator; the ring drains it before it
    overwrites anything, so no event is lost. Spawns no task. Call before
    booting the system under observation. *)

val finish : recorder -> id:string -> seed:int -> run_obs
(** Drain what is left; call after the run's last {!Wd_sim.Sched.run}. *)

type key_stats = {
  ks_key : string;      (** runtime op key "kind:target:operand-prefix" *)
  ks_target : string;
  ks_runs : int;        (** runs in which the key completed at least once *)
  ks_count : int;       (** completions across all runs *)
  ks_fails : int;
  ks_durs : int64 array;  (** completed durations, sorted ascending *)
  ks_max_gap : int64;
      (** worst start-to-start silence across runs, including each run's
          tail — the liveness bound passing runs exhibited *)
  ks_func : string;     (** enclosing function of the first observation *)
  ks_locks : string list;
      (** lockset evidence: sync keys in flight in the same task at every
          observed start of this op (sorted). A common element between two
          keys proves mutual exclusion, rather than inferring it from an
          absence of observed overlap. *)
}

type observations = {
  obs_runs : int;
  obs_keys : key_stats list;            (** sorted by key *)
  obs_orders : string list list;        (** per run, first-start order *)
  obs_overlaps : (string * string) list;
      (** sorted same-target key pairs observed concurrently in flight *)
  obs_events : int;
}

val aggregate : run_obs list -> observations
(** Pure and deterministic: same runs (in the same order) give structurally
    identical observations. *)

val target_of_key : string -> string
