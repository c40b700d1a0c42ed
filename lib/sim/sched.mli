(** Deterministic discrete-event scheduler with cooperative tasks.

    Tasks are fibers implemented with OCaml 5 effect handlers. Time is
    virtual ({!Time.t} nanoseconds); it only advances when every runnable
    task has yielded, so hangs, slow operations and detection latencies are
    exact, reproducible quantities. *)

exception Cancelled
(** Raised inside a fiber that was {!kill}ed. *)

type exit_status = Exited | Failed of exn | Killed
type state = Ready | Running | Blocked | Finished
type task
type run_result = Quiescent | Time_limit | Deadlock of task list

type t

val create : ?seed:int -> unit -> t
val now : t -> int64
val rng : t -> Rng.t

val get : unit -> t
(** The scheduler currently running; raises outside {!run}. *)

val spawn : ?name:string -> ?daemon:bool -> t -> (unit -> unit) -> task
(** Queue a new task. Daemon tasks do not keep the simulation alive and do
    not count toward deadlock detection. *)

val self : t -> task

val current : t -> task option
(** The running task, [None] outside a task. A task's [Some] is built once,
    at spawn, so keeping it allocates nothing. *)

val task_name : task -> string
val task_id : task -> int
val task_state : task -> state
val task_status : task -> exit_status option
val task_blocked_on : task -> string
val task_blocked_since : task -> int64

val suspend : reason:string -> register:((unit -> unit) -> unit) -> unit
(** Core blocking primitive. [register waker] must arrange for [waker] to be
    called when the task should resume; extra or late calls are ignored.
    [reason] and [register] are parked in the running task, so a suspend
    allocates nothing beyond its waker and continuation; a prebuilt
    [register] makes it allocate no closure either. Outside a task it
    raises [Effect.Unhandled]. *)

val sleep : int64 -> unit
(** Block the current task for a virtual duration. An uncontended sleep
    (nothing runnable, no timer due by the wake time) advances the clock
    inline; events, switches, virtual time and trace entries are exactly
    those of the suspending path. *)

(** Test-only seam: force every {!sleep} onto the suspending path, so
    differential tests can compare it with the inline fast path. *)
module Reference : sig
  val within : (unit -> 'a) -> 'a
  (** [within f] runs [f] with the fast path off, on every domain, and
      restores the previous setting when [f] returns or raises. *)
end

val yield : unit -> unit

val at : t -> int64 -> (unit -> unit) -> unit
(** Run a closure at an absolute virtual time (clamped to now). *)

val after : t -> int64 -> (unit -> unit) -> unit

val kill : t -> task -> unit
(** Cancel a task: {!Cancelled} is raised at its suspension point. *)

val on_exit : task -> (exit_status -> unit) -> unit
(** Run a hook when the task finishes (immediately if it already has). *)

val join : task -> exit_status
(** Block until the task finishes. *)

val timeout_join :
  ?name:string ->
  t ->
  timeout:int64 ->
  (unit -> 'a) ->
  ('a, [ `Timeout | `Exn of exn | `Killed ]) result
(** Run [f] in a child task; kill it and return [Error `Timeout] if it does
    not finish within [timeout]. *)

type runner
(** A reusable deadline executor: one persistent daemon worker fiber serves
    a sequence of {!runner_run} calls, avoiding a task spawn per call. The
    virtual-time schedule (run-queue pushes, timer firings, timestamps) is
    identical to calling {!timeout_join} each time. *)

val runner : ?name:string -> t -> runner
(** Create a runner; the worker fiber is spawned lazily on first use and
    respawned after a timeout kill. [name] names the worker task and the
    caller's suspend reason, exactly as in {!timeout_join}. *)

val runner_run :
  runner ->
  timeout:int64 ->
  (unit -> 'a) ->
  ('a, [ `Timeout | `Exn of exn | `Killed ]) result
(** Run [f] on the runner's worker with a deadline. Must be called from a
    task; a runner serves one call at a time (callers are expected to be a
    single periodic task, e.g. a watchdog driver entry). *)

val runner_stop : runner -> unit
(** Kill the worker fiber if it is alive (e.g. on driver shutdown). The
    runner can be used again afterwards; the worker respawns lazily. *)

val run : ?until:int64 -> t -> run_result
(** Drive the simulation until quiescence, deadlock among non-daemon tasks,
    or the time limit. Can be called repeatedly with growing [until]. *)

val stats : t -> int * int * int
(** [(tasks spawned, context switches, events fired)]. *)

(** {2 Load-pressure probes}

    Deterministic reads of scheduler state, for adaptive checker
    scheduling: the runq contents and timer heap at any point of a run are
    a function of the seed alone, so sampling them from a task cannot
    break cross-run or cross-width reproducibility. *)

val runq_depth : t -> int
(** Tasks queued runnable right now (excluding the running one). *)

val timer_slack : t -> int64
(** Virtual time until the earliest armed timer fires; [0] when one is
    already due, [Int64.max_int] when none are armed. *)

val timer_count : t -> int
(** Armed timers. *)

val trace : t -> Trace.t
(** The scheduler's one trace ring (2^16 events), created by the first
    call; from then on it records scheduler events
    (spawn/block/resume/finish) and the interpreter's op events. Consumers
    read it through {!Trace.cursor}. *)

val traced : t -> bool
(** Whether {!trace} was ever called: until then nothing is recorded and
    tracing costs nothing. *)

(** Op-event emitters: the interpreter appends operation-level events
    ({!Trace.Op_start} etc.) to the same timeline, attributed to the
    running task, taking pre-resolved {!Site.id}s so a traced hot path
    allocates nothing. No-ops when tracing is off. *)

val trace_op_start : t -> op:Site.id -> node:Site.id -> func:Site.id -> unit

val trace_op_end :
  t -> op:Site.id -> node:Site.id -> func:Site.id -> dur:int -> unit

val trace_op_fail :
  t -> op:Site.id -> node:Site.id -> func:Site.id -> err:string -> unit

val pp_task : Format.formatter -> task -> unit
