(** Growable FIFO ring. {!push} and {!pop} allocate nothing once the
    buffer has grown to the largest length seen. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty ring. [dummy] fills the slots that hold nothing; no buffer is
    allocated until the first {!push}. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the tail. *)

val pop : 'a t -> 'a
(** Remove and return the head. Raises [Invalid_argument] when empty. *)
