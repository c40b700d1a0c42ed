(** Adaptive checker scheduling: the typed policy a {!Driver} is created
    with, replacing the historical implicit fixed-cadence daemon loop.

    [Fixed] reproduces the per-checker loops, bit-for-bit the historical
    schedule. [Adaptive _] runs one central scheduling loop that samples
    load pressure (sim run-queue depth, virtual-time slack, the loadgen
    arrival stream via {!set_load_probe}), throttles checker cadence when
    the checkers' share of fired events exceeds [target_overhead] — never
    past [latency_bound] — batches co-scheduled checkers behind a single
    context-version sampling pass (one COW snapshot version per batch),
    and deduplicates runs whose context version is unchanged.

    All inputs are virtual-time or scheduler-local, so adaptive decisions
    are a deterministic function of the seed — byte-identical at any
    domain-pool width. *)

type policy =
  | Fixed  (** each checker on its own loop at its declared period *)
  | Adaptive of {
      target_overhead : float;
          (** budgeted checker share of fired sim events, e.g. [0.005] *)
      latency_bound : int64;
          (** hard cap on the gap between two executions of one checker
              (checkers whose period already exceeds it keep their period) *)
      sample_window : int64;  (** pressure/budget accounting window *)
    }

val fixed : policy
(** [Fixed] — the historical schedule, exactly. *)

val adaptive :
  ?target_overhead:float ->
  ?latency_bound:int64 ->
  ?sample_window:int64 ->
  unit ->
  policy
(** Defaults: 0.5% target overhead, 2s latency bound, 500ms window.
    Raises [Invalid_argument] on non-positive parameters. *)

val pp_policy : Format.formatter -> policy -> unit

type t
(** One scheduler instance, bound to a simulation. *)

type slot
(** Per-checker scheduling state. *)

val create : policy -> Wd_sim.Sched.t -> t
val policy : t -> policy

val set_load_probe : t -> (unit -> int) -> unit
(** Wire the arrival stream in: the probe returns queued/in-flight request
    count (e.g. {!Wd_harness.Loadgen.inflight}). Sampled at window
    boundaries; deterministic because loadgen state is virtual-time-only. *)

val register : t -> period:int64 -> ?version:(unit -> int) -> unit -> slot
(** Add a checker: [period] is its declared cadence, [version] its context
    version function ({!Checker.t.ctx_version}) when dedup applies. First
    due one period from now. *)

val quantum : t -> int64
(** Central-loop sleep: the fastest registered period, floored at 1ms,
    capped at the sample window. *)

val due : t -> slot -> bool

val begin_batch : t -> slot list -> unit
(** One version-sampling pass over the due slots: co-scheduled checkers
    observe a single snapshot version, and the context's COW cache shares
    the actual copies between them. *)

val decide : t -> slot -> [ `Run | `Skip_dedup ]
(** For a due slot after {!begin_batch}: [`Skip_dedup] when the context
    version is unchanged since the last execution and the latency bound
    has not expired (the slot is parked no later than the bound). *)

val note_run : t -> slot -> started:int64 -> events_cost:int -> unit
(** Account a completed run (its fired-event cost charges the current
    window) and reschedule one effective period after completion. *)

val tick : t -> unit
(** Close the sampling window if due: compare checker event share against
    [target_overhead], sample the pressure probes, move the throttle. *)

type stats = {
  st_policy : string;
  st_batches : int;  (** dispatch rounds with at least one due checker *)
  st_dedup_skips : int;  (** runs skipped on unchanged context version *)
  st_shared_syncs : int;
      (** co-scheduled runs beyond the first of their batch — runs that
          reused the batch's context snapshot instead of forcing a fresh
          sampling pass *)
  st_windows : int;  (** sampling windows closed *)
  st_throttle_peak : float;
}

val stats : t -> stats
