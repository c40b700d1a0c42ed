(** Fault-injection registry shared by all simulated environment subsystems.

    Operations consult the registry with a *site* string before executing;
    matching active faults add latency, hang the caller, raise errors,
    corrupt payloads or drop messages. Activations are logged as the ground
    truth for detection-latency metrics. *)

type behaviour =
  | Delay of int64
  | Slow_factor of float
  | Hang
  | Error of string
  | Corrupt
  | Drop

type fault = {
  id : string;
  site_pattern : string;  (** exact, or prefix ending in ['*'] *)
  behaviour : behaviour;
  start_at : int64;
  stop_at : int64;
  once : bool;
}

type trigger = { at : int64; fault_id : string; site : string }

type t

val create : unit -> t
val inject : t -> fault -> unit
val remove : t -> id:string -> unit
val clear : t -> unit
val faults : t -> fault list
val triggers : t -> trigger list

val site_matches : pattern:string -> site:string -> bool

val armed : t -> bool
(** [true] iff any fault is currently injected. When [false], [consult]
    cannot match or record anything — hot paths use this to skip building
    the site string altogether. *)

val consult : t -> site:string -> now:int64 -> (string * behaviour) list
(** Active faults matching [site], as [(fault id, behaviour)]. Logs a trigger
    for each and retires [once] faults. *)

val first_trigger : t -> id:string -> int64 option
(** When the fault first fired, if it has. *)

val apply_common :
  (string * behaviour) list ->
  now:int64 ->
  stop_of:(string -> int64) ->
  ((bool * bool), string) result
(** Execute delay/hang behaviours (blocking the calling task) and fold the
    rest: [Ok (corrupt, drop)] or [Error msg]. *)

val slow_factor : (string * behaviour) list -> float
val stop_of : t -> string -> int64
