(** Condition variables for the cooperative scheduler.

    Semantics mirror POSIX condition variables: waiters must re-check their
    predicate after waking (use {!await} to get that loop for free). *)

type t

val create : ?prefix:string -> ?suffix:string -> string -> t
(** [create ~prefix ~suffix base] names the cond [prefix ^ base ^ suffix]
    (both default to [""]). The name and the wait reasons ["cond <name>"]
    and ["cond <name> (timed)"] are built on first use, so a cond that is
    never waited on formats no string. *)

val name : t -> string
val waiter_count : t -> int

val wait : t -> unit
(** Block until signalled. *)

val signal : t -> unit
(** Wake one waiter, if any. *)

val broadcast : t -> unit
(** Wake every current waiter. *)

val await : t -> (unit -> bool) -> unit
(** [await c pred] blocks until [pred ()] is true, re-checking on wake. *)

val await_timeout : t -> (unit -> bool) -> timeout:int64 -> bool
(** Like {!await} with a deadline; returns [false] on timeout. *)
