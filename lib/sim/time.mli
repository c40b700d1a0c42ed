(** Virtual time: an [int64] count of nanoseconds since simulation start.

    The type is deliberately transparent — durations and instants are plain
    [int64]s so arithmetic, comparisons and pattern matches need no
    wrappers; this module only provides the constructors and formatting. *)

type t = int64

val us : int -> t
val ms : int -> t
val sec : int -> t

val of_float_sec : float -> t
val to_float_sec : t -> float

val add : t -> t -> t
val sub : t -> t -> t

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t

val never : t
(** [Int64.max_int]: an instant later than any reachable virtual time. *)

val pp : Format.formatter -> t -> unit
(** Human-scale rendering: seconds above 1s, milliseconds above 1ms, raw
    nanoseconds below. *)

val to_string : t -> string
