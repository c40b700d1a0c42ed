(** Cheap recovery (§5.2): microreboot the component a watchdog report
    pinpoints, instead of restarting the whole process.

    A component is a named set of functions plus a respawn closure.
    {!action} (wired via {!Driver.on_report}) reboots the component owning
    the report's function; {!supervise} additionally sweeps for components
    whose task died of an exception. Per-component backoff and a restart
    budget prevent reboot storms; exhausting the budget records an
    escalation instead. *)

type t

type event = { ev_at : int64; ev_component : string; ev_reason : string }

val create : ?backoff:int64 -> Wd_sim.Sched.t -> t
(** [backoff] (default 5 s) is the least time between two reboots of one
    component; after 10 reboots a component escalates instead. *)

val register :
  t ->
  name:string ->
  funcs:string list ->
  respawn:(unit -> Wd_sim.Sched.task) ->
  task:Wd_sim.Sched.task ->
  unit

val action : t -> Report.t -> unit
(** Driver action: map the report's pinpointed function to its component
    and microreboot it. Reports without localisation are ignored. *)

val recover_function : t -> func:string -> reason:string -> bool
(** Command entry point for externally-driven recovery (fleet [Recover]
    commands): microreboot the component owning [func]. Returns whether the
    function mapped to a registered component; the reboot itself remains
    subject to backoff and the restart budget. *)

val supervise : ?period:int64 -> t -> Wd_sim.Sched.task
(** Spawn the supervision sweep (reboots components whose task failed). *)

val events : t -> event list
val escalations : t -> string list
val restarts : t -> name:string -> int
val pp_event : Format.formatter -> event -> unit
