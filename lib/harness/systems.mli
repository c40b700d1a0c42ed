(** The single-node boot skeleton: boot a system from its
    {!Wd_targets.Target} description with its generated watchdog, the
    baseline detectors (probe / signal / heartbeat / observer) and a client
    workload, exposing the uniform surface the campaign runner drives. *)

type watchdog_mode =
  | Wd_generated   (** full AutoWatchdog: mimic checkers + context sync *)
  | Wd_no_context  (** ablation: naive mimic checkers, no state sync *)
  | Wd_none        (** no intrinsic watchdog *)

type booted = {
  b_system : string;
  b_sched : Wd_sim.Sched.t;
  b_reg : Wd_env.Faultreg.t;
  b_generated : Wd_autowatchdog.Generate.generated;
  b_driver : Wd_watchdog.Driver.t;
  b_heartbeat : Wd_detectors.Heartbeat.t;
  b_observer : Wd_detectors.Observer.t;
  b_workload : Wd_targets.Workload.stats;
  b_tasks : Wd_sim.Sched.task list;
  b_crash : unit -> unit;  (** simulate a whole-process crash *)
  b_mem : Wd_env.Memory.t;
  b_res : Wd_ir.Runtime.resources;
  b_client : int -> [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ];
      (** issue one client request by index — the entry point load
          generators drive; must be called from inside a task. Uses a wider
          keyspace than the background workload and no per-call formatting
          on the request path. *)
}

val boot :
  ?schedule:Wd_watchdog.Schedule.policy ->
  sched:Wd_sim.Sched.t ->
  reg:Wd_env.Faultreg.t ->
  mode:watchdog_mode ->
  ?infer:Wd_infer.Synth.model ->
  ?special:string ->
  string ->
  booted
(** Boot "kvs", "zkmini", "dfsmini", "cstore" or "mqbroker" from its
    {!Wd_targets.Target} description through the one skeleton every
    target shares. [special] selects boot variants: "leak_bug",
    "deadlock_bug", "in_memory" (kvs) and "spin_bug" (cstore) as the
    description reads them, and "burst", which floods the request queue
    with 2,000 requests every 2 s ({!Wd_targets.Target.spawn_burst}); other
    values boot the plain system. [schedule] is the checker scheduling policy (default
    {!Wd_watchdog.Schedule.fixed}). With [infer], a {!Wd_infer.Monitor}
    takes a cursor on the scheduler's trace before the system boots
    (startup ops are part of its ordering state, as during mining), and
    the checkers compiled from the model join the driver after it starts.
    Raises [Invalid_argument] on an unknown system name. *)

val all_systems : string list
(** {!Wd_targets.Target.names}. *)
