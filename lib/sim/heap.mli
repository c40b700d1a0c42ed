(** Deterministic binary min-heap keyed by [(time, insertion sequence)].

    Entries with equal times pop in insertion order, which keeps
    discrete-event runs reproducible. Keys are exact over the whole
    [int64] range. Once the backing arrays have grown, {!push} and
    {!pop_min} allocate nothing. *)

type 'a t

val create : dummy_payload:'a -> 'a t
(** [create ~dummy_payload] makes an empty heap. The dummy payload fills
    unused array slots and is never returned. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:int64 -> 'a -> unit
(** [push h ~time p] inserts [p], after every entry already keyed [time]. *)

val min_time : 'a t -> int64
(** Earliest key. Raises [Invalid_argument] on an empty heap. Where it is
    not inlined, the only allocation is the boxed result. *)

val pop_min : 'a t -> 'a
(** Remove the earliest entry and return its payload; read its key with
    {!min_time} first. Raises [Invalid_argument] on an empty heap. *)
