(** Runtime trace consumer: folds the scheduler's op-level trace events
    into per-key state that compiled inferred checkers query. Create it
    before booting the monitored system, so its cursor on the scheduler's
    trace ring sees startup ops; checkers call {!drain} before each
    evaluation. *)

type key_state = {
  mutable st_started : int;
  mutable st_completed : int;
  mutable st_failed : int;
  mutable st_first_err : string;
  mutable st_last_start : int64;
  mutable st_worst : int64;
  mutable st_worst_at : int64;
  mutable st_first_seen : int64;
  mutable st_inflight : (int * int64 * string) list;
}

type t

val create : Wd_sim.Sched.t -> t
(** Registers a {!Wd_sim.Trace.cursor} on {!Wd_sim.Sched.trace}. The ring
    drains it before overwriting anything it has not read, so the monitor
    folds every op event. *)

val drain : t -> unit
(** Fold all new trace events into the state. Cheap when nothing new
    happened; shared by every checker on the same monitor. *)

val view : t -> string -> key_state option
val seen : t -> string -> bool

val oldest_inflight : t -> string -> (int * int64 * string) option
(** Longest-running in-flight occurrence: [(task_id, started, func)]. *)

val overlapped_at : t -> string -> string -> int64 option
(** First instant the two keys were observed concurrently in flight on the
    same target, if ever. *)

val keys_tracked : t -> int
