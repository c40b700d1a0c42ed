(** Simulated non-reentrant mutex with owner tracking.

    A lock cycle produces a genuine deadlock that the scheduler reports,
    which is one of the liveness faults watchdogs must catch. *)

type t

val create : string -> t
val owner : t -> Sched.task option
val locked : t -> bool

val lock : t -> unit
(** Blocks until available. Raises if the caller already holds it. *)

val try_lock : t -> bool
val unlock : t -> unit

val with_lock : t -> (unit -> 'a) -> 'a
(** Run [f] holding the lock; always releases, even on exception/cancel. *)

val acquisitions : t -> int
(** Total successful acquisitions (diagnostics). *)

val contended : t -> int
(** Number of lock attempts that had to wait (diagnostics). *)
