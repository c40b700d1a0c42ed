(** mqbroker — a Kafka-like single-partition message broker: producers
    append records to segment files under the log lock; a delivery loop
    reads segments back and pushes them to the consumer endpoint; a
    retention cleaner deletes old segments; a stats loop gossips to a
    monitor.

    Its gray failures complement the other targets: a silently stuck
    retention cleaner, a consumer delivery link that blocks the sender
    while producers stay healthy, and silent append corruption. *)

val monitor_node : string
val request_queue : string
val retention_segments : int

val program : unit -> Wd_ir.Ast.program

type t = {
  sched : Wd_sim.Sched.t;
  res : Wd_ir.Runtime.resources;
  broker : Wd_ir.Interp.t;
  consumer : Wd_ir.Interp.t;
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

val produce :
  ?timeout:int64 -> t -> data:string ->
  [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ]

val next_offset : t -> int
val delivered_offset : t -> int
val batches_received : t -> int
val retention_runs : t -> int
val segment_count : t -> int
