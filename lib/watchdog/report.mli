(** Failure reports produced by watchdog checkers: a verdict, the pinpointed
    code location, and the failure-inducing payload for diagnosis and
    reproduction. *)

type fkind =
  | Hang                    (** liveness: did not complete in time *)
  | Slow                    (** liveness: completed beyond its latency budget *)
  | Error_sig of string     (** safety: an operation raised an error *)
  | Assert_fail of string   (** safety: an embedded check failed *)
  | Checker_crash of string (** the checker itself died — still a signal *)

type t = {
  at : int64;
  checker_id : string;
  fkind : fkind;
  loc : Wd_ir.Loc.t option;
  op_desc : string;
  payload : (string * Wd_ir.Ast.value) list;
  mutable validated : bool option;  (** probe-after-mimic confirmation *)
}

val make :
  at:int64 ->
  checker_id:string ->
  fkind:fkind ->
  ?loc:Wd_ir.Loc.t ->
  ?op_desc:string ->
  ?payload:(string * Wd_ir.Ast.value) list ->
  unit ->
  t

val is_liveness : t -> bool
val fkind_name : fkind -> string

val to_wire : t -> string
(** Canonical wire encoding: every field, including the captured payload
    values, in a tagged length-prefixed form. Deterministic — the same
    report encodes to the same bytes on every run. *)

val wire_max_nesting : int
(** How deep payload containers (lists, pairs, maps) may nest in a wire
    {!of_wire} accepts: 64. *)

val of_wire : string -> (t, string) result
(** Decode {!to_wire} output. Round-trips structurally:
    [of_wire (to_wire r) = Ok r] for every report whose payload nests at
    most {!wire_max_nesting} containers deep; a deeper wire, like any
    malformed one, is an [Error], never an exception. *)

val pp : Format.formatter -> t -> unit
