(** Alarm policy: how raw checker failures become reports.

    [confirmations] debounces blips; [validate] is the §5 false-alarm
    mitigation (probe the impact when a mimic checker fails), and
    [suppress_unvalidated] holds back the reports it does not confirm.

    The rest of the alarm path is fixed in the driver: a repeat of the
    same finding within 30 s is dropped, and once a checker has 5
    fault-free runs, a run longer than [max 5ms (20 x baseline)] is
    reported as slow.

    Readers may match on the record freely, but construction goes through
    {!make} / {!default} and {!with_validation}, so adding a policy field
    never breaks a call site. *)

type t = {
  confirmations : int;
  validate : (Report.t -> bool) option;
  suppress_unvalidated : bool;
}

val make : ?confirmations:int -> unit -> t
(** [confirmations] defaults to 1; no validation. *)

val default : t
(** [make ()]. *)

val with_validation : ?suppress:bool -> (Report.t -> bool) -> t -> t
(** Validate every mimic report with the given probe; with [suppress]
    (default [false]) the reports it rejects are held back. *)
