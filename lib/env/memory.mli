(** Simulated memory accountant with GC-pause behaviour under pressure.

    Above 80% utilisation, allocations stall (quadratically up to 400 ms at
    full capacity); a leaking component therefore degrades every task that
    allocates — the gray failure a sleep-overshoot signal checker detects. *)

exception Out_of_memory of string

type t

val create : reg:Faultreg.t -> capacity:int -> string -> t

val name : t -> string
val used : t -> int
val utilisation : t -> float

val alloc : t -> int -> unit
(** May stall the calling task; raises {!Out_of_memory} when exhausted. *)

val free : t -> int -> unit

val stats : t -> int * int * int * int * int64
(** [(allocs, frees, peak, pauses, total_pause_ns)]. *)
