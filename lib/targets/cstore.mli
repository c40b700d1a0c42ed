(** cstore — a Cassandra-like store: commit log + memtable on the write
    path, memtable flushes to SSTables, and a background SSTable compaction
    task — the paper's "is the compaction background task stuck?" example:
    a disk hang inside compaction blocks only that task, so clients stay
    healthy and every extrinsic detector stays green. *)

val seed_node : string
val request_queue : string

val program : ?spin_bug:bool -> unit -> Wd_ir.Ast.program
(** [spin_bug] selects the variant whose compaction spins forever on a
    stale condition — detectable only by progress checkers. *)

val entries : string list

type t = {
  sched : Wd_sim.Sched.t;
  res : Wd_ir.Runtime.resources;
  main : Wd_ir.Interp.t;
  disk : Wd_env.Disk.t;
  net : Wd_ir.Ast.value Wd_env.Net.t;
  mem : Wd_env.Memory.t;
  rpc : Rpcq.t;
}

val boot :
  sched:Wd_sim.Sched.t ->
  reg:Wd_env.Faultreg.t ->
  prog:Wd_ir.Ast.program ->
  unit ->
  t

val start : t -> Wd_sim.Sched.task list

val write :
  ?timeout:int64 -> t -> key:string -> value:string ->
  [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ]

val read :
  ?timeout:int64 -> t -> key:string ->
  [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ]

val compactions : t -> int
val sstable_count : t -> int
