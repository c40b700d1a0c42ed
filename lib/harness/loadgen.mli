(** Heavy-traffic load plane over the virtual clock.

    Open-loop (fixed arrival rate) and closed-loop (N clients with think
    time) request generators, driving either a single booted system's
    {!Systems.booted.b_client} entry or every node of a cluster world.
    Latencies are recorded into O(1) log-bucketed histograms (8 sub-buckets
    per octave, ≤12.5% relative quantile error), so runs of 10^6+ requests
    cost one small array, not a latency list.

    All load, latency and throughput numbers are functions of virtual time
    only: two runs differing in wall-clock speed (host load, CI noise)
    produce bit-identical results, which is what makes watchdog overhead a
    measurable virtual-time inflation rather than benchmark noise. *)

type reply = [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ]
(** What one client operation returns — the shape of
    {!Systems.booted.b_client}. *)

type gen
(** A live generator: its client fibers are daemons inside the target's
    scheduler, so they end with the simulation. *)

val spawn_closed :
  ?label:string ->
  sched:Wd_sim.Sched.t ->
  clients:int ->
  think:int64 ->
  requests:int ->
  op:(int -> reply) ->
  unit ->
  gen
(** Closed loop: [clients] persistent fibers share one request budget; each
    issues, waits for the reply, sleeps [think] virtual ns, repeats.
    Offered load adapts to the system — the classic saturation probe. *)

val spawn_open :
  ?label:string ->
  sched:Wd_sim.Sched.t ->
  rate_rps:int ->
  max_inflight:int ->
  requests:int ->
  op:(int -> reply) ->
  unit ->
  gen
(** Open loop: arrivals at a fixed rate in virtual time, independent of
    completions, so queueing delay is visible in the latency tail. Arrivals
    past [max_inflight] are shed (counted, not issued), like a full accept
    queue. *)

val spawn_fleet :
  world:Wd_cluster.Sim.world ->
  clients_per_node:int ->
  think:int64 ->
  requests:int ->
  unit ->
  gen
(** Closed-loop clients spread across every node of a booted cluster world,
    driving each node's bounded end-to-end client operation
    ({!Wd_cluster.Node.local_probe}) through the same client fiber as
    {!spawn_closed}. One shared budget, labelled ["fleet"]; per-node
    imbalance shows up in the tail. *)

type result = {
  lr_label : string;
  lr_requests : int;  (** completed (excludes shed) *)
  lr_ok : int;
  lr_err : int;
  lr_timeout : int;
  lr_shed : int;
  lr_sim_ns : int64;  (** generator start to last accounted arrival, virtual *)
  lr_wall_s : float;  (** host seconds spent driving the run *)
  lr_p50 : int64;
  lr_p90 : int64;
  lr_p99 : int64;
  lr_mean : int64;
  lr_max : int64;
}

val drive : gen -> result
(** Advance the simulation in bounded steps of 200ms virtual until
    every arrival is accounted for. Needed because target systems hold
    daemon timers, so [Sched.run ~until] never reports quiescence on its
    own. If the target wedges (fault injection) and no request completes
    for a long stretch of steps, the remaining budget is shed and the run
    ends — detection-latency experiments terminate even when the system
    does not. The step bounds completion-detection slack only; all
    measurements are event-timestamped. *)

val completed : gen -> int
val inflight : gen -> int

val throughput_rps : result -> float
(** Completed requests per virtual second. *)

val success_ratio : result -> float
