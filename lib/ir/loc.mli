(** Source locations of IR statements.

    [uid] is unique across a finalised program; [path] is the index path
    through nested blocks, printing as ["func:2.1.0"]. Failure reports use
    locations for pinpointing; {!distance} is the localisation metric. *)

type t

val dummy : t
val make : func:string -> path:int list -> uid:int -> t
val func : t -> string
val path : t -> int list
val uid : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string
