(** Bounded FIFO channel between cooperative tasks. *)

type 'a t

exception Closed of string
(** Raised by {!send} on a closed channel, and by {!recv} once a closed
    channel has drained. *)

val create : ?capacity:int -> string -> 'a t
val length : 'a t -> int

val send : 'a t -> 'a -> unit
(** Blocks while the channel is full. *)

val try_send : 'a t -> 'a -> bool
val recv : 'a t -> 'a

val try_recv : 'a t -> 'a option
val recv_timeout : 'a t -> timeout:int64 -> 'a option

val close : 'a t -> unit
val stats : 'a t -> int * int
(** [(sent, received)] totals. *)
