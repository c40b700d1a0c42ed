(** kvs — the paper's running example (Figure 1): a key-value store with a
    simple interface (GET, SET, APPEND, DEL) and complex internals: request
    listener, indexer, disk flusher (WAL + segments), replication engine,
    compaction manager, snapshot writer.

    The system is an IR program, so AutoWatchdog can analyse it. Two nodes
    run it: ["kvs1"] (leader) and ["kvs2"] (replica apply loop). *)

(* resource and queue names (fault-site building blocks) *)
val request_queue : string
val monitor_node : string

val program : ?leak_bug:bool -> ?deadlock_bug:bool -> unit -> Wd_ir.Ast.program
(** The kvs IR program. [leak_bug] selects the variant whose request
    buffers are never released (the E9 resource-leak scenario);
    [deadlock_bug] the variant whose listener and flusher acquire the
    index/flush locks in opposite orders (an AB/BA deadlock). *)

val leader_entries : string list
val replica_entries : string list

type t = {
  sched : Wd_sim.Sched.t;
  res : Wd_ir.Runtime.resources;
  leader : Wd_ir.Interp.t;
  replica : Wd_ir.Interp.t;
  disk : Wd_env.Disk.t;
  replica_disk : Wd_env.Disk.t;
  net : Wd_ir.Ast.value Wd_env.Net.t;
  mem : Wd_env.Memory.t;
  rpc : Rpcq.t;  (** request/reply plumbing on ["kvs.requests"] /
                     ["kvs.replies"] *)
}

val boot :
  ?in_memory:bool ->
  ?mem_capacity:int ->
  sched:Wd_sim.Sched.t ->
  reg:Wd_env.Faultreg.t ->
  prog:Wd_ir.Ast.program ->
  unit ->
  t
(** Create resources and both node interpreters over [prog] (pass the
    instrumented program when attaching a watchdog). [in_memory] sets the
    paper's in-memory configuration: no disk activity from the main
    program. *)

val start : t -> Wd_sim.Sched.task list
(** Start leader + replica entries and the reply dispatcher. *)

(* Client API — each call blocks the calling task until reply or timeout. *)

val set :
  ?timeout:int64 -> t -> key:string -> value:string ->
  [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ]

val get :
  ?timeout:int64 -> t -> key:string ->
  [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ]

val append :
  ?timeout:int64 -> t -> key:string -> value:string ->
  [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ]

val del :
  ?timeout:int64 -> t -> key:string ->
  [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ]

val stats_sets : t -> int
