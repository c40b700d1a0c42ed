(** Deterministic timer queue keyed by [(time, insertion sequence)]: a
    binary min-heap plus FIFO deadline lanes, one per fixed delay.

    Entries with equal times pop in insertion order, which keeps
    discrete-event runs reproducible; a lane entry and a heap entry tie
    the same way. Keys are exact over the whole [int64] range. Once the
    backing arrays have grown, {!push}, {!push_lane} and {!pop_min}
    allocate nothing. *)

type 'a t

val create : dummy_payload:'a -> 'a t
(** [create ~dummy_payload] makes an empty queue. The dummy payload fills
    unused array slots and is never returned. *)

val size : 'a t -> int
(** Entries in the heap and every lane. *)

val is_empty : 'a t -> bool

val push : 'a t -> time:int64 -> 'a -> unit
(** [push h ~time p] inserts [p], after every entry already keyed [time]. *)

val push_lane : 'a t -> lane:int64 -> time:int64 -> 'a -> unit
(** [push_lane h ~lane ~time p] inserts [p] exactly as {!push} would, in
    O(1) when [time] is not earlier than the last entry of the lane for
    [lane]. Deadlines of one fixed delay [lane] pushed at a non-decreasing
    clock always are. An earlier [time], or a delay that finds no free
    lane, takes the heap. *)

val min_time : 'a t -> int64
(** Earliest key. Raises [Invalid_argument] on an empty queue. Where it is
    not inlined, the only allocation is the boxed result. *)

val pop_min : 'a t -> 'a
(** Remove the earliest entry and return its payload; read its key with
    {!min_time} first. Raises [Invalid_argument] on an empty queue. *)
