(** Panorama-style observers: requesters of the monitored process report
    error evidence from their request paths; enough evidence in a sliding
    window flips the verdict. Catches client-visible gray failures but
    cannot say why or where — the limitation motivating intrinsic
    watchdogs. *)

type evidence = Success | Failure of string | Timeout

type t

val create : Wd_sim.Sched.t -> t
(** Suspects the process once at least 3 observations sit in the last 5
    virtual seconds and half or more of them are failures or timeouts. *)

val observe : t -> evidence -> unit
val suspected : t -> bool
val suspected_at : t -> int64 option
val observations : t -> int

val of_result : [< `Ok of 'a | `Err of string | `Timeout ] -> evidence
