(** Fixed-width ASCII table rendering for experiment output. *)

val render : header:string list -> string list list -> string
val latency_cell : int64 option -> string
val bool_cell : bool -> string
val mark_cell : bool -> string
