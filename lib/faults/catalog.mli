(** Gray-failure catalog: named, reproducible failure scenarios for each
    target system, with ground truth (failing function, failure class) and a
    paper-informed prediction of which detector classes catch them. *)

type fclass =
  | Crash
  | Partial_disk
  | Fail_slow
  | Limplock
  | Net_hang
  | Corruption
  | Resource_leak
  | Silent_stuck
  | Deadlock
  | Infinite_loop
  | Transient_error

val fclass_name : fclass -> string

(** One fault of a scenario, active from the scenario's injection
    instant for [duration]. *)
type fspec = {
  site_pattern : string;
  behaviour : Wd_env.Faultreg.behaviour;
  duration : int64;  (** [Time.never] for unbounded *)
  once : bool;
}

type expectation = {
  exp_mimic : bool;
  exp_probe : bool;
  exp_signal : bool;
  exp_heartbeat : bool;
  exp_observer : bool;
}

type scenario = {
  sid : string;
  description : string;
  system : string;
  fclass : fclass;
  faults : fspec list;
  special : string option;
      (** boot variant: "leak_bug", "in_memory", "burst", or "crash" *)
  truth_func : string option;
  expected : expectation;
}

val exp :
  ?mimic:bool ->
  ?probe:bool ->
  ?signal:bool ->
  ?heartbeat:bool ->
  ?observer:bool ->
  unit ->
  expectation

val all : scenario list
val find : string -> scenario

val inject : Wd_env.Faultreg.t -> scenario -> at:int64 -> string list
(** Materialise the scenario's faults anchored at [at]; returns fault ids. *)

val pp_scenario : Format.formatter -> scenario -> unit
