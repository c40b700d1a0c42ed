(** dfsmini — an HDFS-DataNode-like block store: block receiver (writes
    block + checksum metadata), directory scanner (periodic verification
    with an in-place error handler), heartbeats and block reports to the
    namenode. The generated mimic checker for the write path is the moral
    equivalent of the enhanced HDFS disk checker (HADOOP-13738). *)

val namenode : string
val request_queue : string

val program : unit -> Wd_ir.Ast.program

type t = {
  sched : Wd_sim.Sched.t;
  res : Wd_ir.Runtime.resources;
  dn : Wd_ir.Interp.t;
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

val put_block :
  ?timeout:int64 -> t -> blkid:string -> data:string ->
  [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ]

val read_block_req :
  ?timeout:int64 -> t -> blkid:string ->
  [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ]

val corrupt_found : t -> int
(** Corrupt blocks the scanner has quarantined. *)

val scan_errors : t -> int
(** Read errors the scanner's error handler has absorbed. *)
