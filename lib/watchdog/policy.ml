(* Alarm policy: how raw checker failures become reports.

   [confirmations] debounces one-off blips; [validate] is the paper's §5
   false-alarm mitigation — when a mimic checker fails, invoke a probe
   checker to assess the impact before (optionally) suppressing the alarm.
   Dedup and adaptive slowness are driver constants.

   Construction goes through [make] and [with_validation] so adding a
   field never breaks a caller; the record itself stays transparent for
   readers (the driver pattern-matches fields directly). *)

type t = {
  confirmations : int;
  validate : (Report.t -> bool) option;
  suppress_unvalidated : bool;
}

let make ?(confirmations = 1) () =
  { confirmations; validate = None; suppress_unvalidated = false }

let default = make ()

let with_validation ?(suppress = false) validate p =
  { p with validate = Some validate; suppress_unvalidated = suppress }
