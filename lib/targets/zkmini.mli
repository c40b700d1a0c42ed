(** zkmini — a ZooKeeper-like coordination service structured to reproduce
    Figure 2's snapshot-serialisation chain and the ZOOKEEPER-2201 gray
    failure: a network fault blocks the leader's remote sync inside the
    commit critical section, hanging all writes while heartbeats and the
    admin command keep answering. *)

val monitor_node : string
val request_queue : string

val program : unit -> Wd_ir.Ast.program
val leader_entries : string list

type t = {
  sched : Wd_sim.Sched.t;
  res : Wd_ir.Runtime.resources;
  leader : Wd_ir.Interp.t;
  f1 : Wd_ir.Interp.t;
  f2 : Wd_ir.Interp.t;
  disk : Wd_env.Disk.t;
  fdisk : Wd_env.Disk.t;
  net : Wd_ir.Ast.value Wd_env.Net.t;
  mem : Wd_env.Memory.t;
  rpc : Rpcq.t;
  admin_rpc : Rpcq.t;
}

val boot :
  sched:Wd_sim.Sched.t ->
  reg:Wd_env.Faultreg.t ->
  prog:Wd_ir.Ast.program ->
  unit ->
  t

val start : t -> Wd_sim.Sched.task list

val create :
  ?timeout:int64 -> t -> path:string -> data:string ->
  [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ]
(** Create a znode through the full write pipeline. *)

val get :
  ?timeout:int64 -> t -> path:string ->
  [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ]

val ruok :
  ?timeout:int64 -> t ->
  [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ]
(** The admin four-letter command; served off the write pipeline, so it
    answers ["imok"] even while writes hang (§4.2). *)

val zxid : t -> int
val txncount : t -> int
