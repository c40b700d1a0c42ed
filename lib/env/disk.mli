(** Simulated disk with a latency model and injectable partial faults.

    Sites consulted in the fault registry have the shape
    ["disk:<name>:<op>:<path>"] where [<op>] is one of [write], [append],
    [read], [stat], [delete], [sync], [list]. Corruption faults damage the
    payload silently — reads succeed and return bad bytes, exactly the
    state-corruption gray failure the paper targets. *)

exception Io_error of string

type t

val create : reg:Faultreg.t -> rng:Wd_sim.Rng.t -> string -> t
(** Every I/O costs a 100 us seek plus 2 ns per byte, with exponential
    jitter (mean a quarter of the seek), scaled by any active
    [Slow_factor] fault. *)

val name : t -> string

val write : ?as_path:string -> t -> path:string -> Bytes.t -> unit
(** [as_path] overrides the path used for fault-site matching, letting a
    redirected (scratch) write share the fate of the original path. *)

val append : ?as_path:string -> t -> path:string -> Bytes.t -> unit
val read : ?as_path:string -> t -> path:string -> Bytes.t
val exists : t -> path:string -> bool
val delete : ?as_path:string -> t -> path:string -> unit
val sync : t -> unit
val list : t -> prefix:string -> string list

val peek : t -> path:string -> Bytes.t option
(** Fault-free, cost-free inspection (tests / ground truth). *)

val poke : t -> path:string -> Bytes.t -> unit
(** Fault-free, cost-free store (test setup). *)

val paths : t -> string list
(** All stored paths, fault-free and cost-free (tests / ground truth). *)

val stats : t -> int * int * int * int * int
(** [(reads, writes, bytes_read, bytes_written, syncs)]. *)

val checksum : Bytes.t -> int64
(** FNV-1a checksum used by integrity checkers. *)
