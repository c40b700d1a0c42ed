(** One description per target system: every per-system fact the
    single-node skeleton ([Wd_harness.Systems.boot]) and the fleet node
    skeleton ([Wd_cluster.Node.boot]) read. Both skeletons keep their own
    call order; neither names a system. *)

type result = [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ]

type fleet = {
  entries : string list;
      (** recovery components: the first tasks [start] returns, in order *)
  write : timeout:int64 -> result;
      (** one bounded write through the full request pipeline *)
}

type instance = {
  res : Wd_ir.Runtime.resources;
  mem : Wd_env.Memory.t;
  main : Wd_ir.Interp.t;  (** the interpreter the watchdog attaches to *)
  checkers : Wd_watchdog.Checker.t list;  (** baseline probe / signal *)
  heartbeat : Wd_ir.Ast.value Wd_env.Net.t * string * string;
      (** net, monitored endpoint, heartbeat message prefix *)
  workload : string * int64 * (int -> result);
      (** background client: task name, period, operation by index *)
  client : int -> result;
      (** one load-generator request by index: a wider keyspace than the
          background client, no per-call formatting *)
  queue : string;  (** the request queue *)
  burst : (int -> Wd_ir.Ast.value) option;
      (** the [i]th open-loop burst request; no reply is expected *)
  fleet : fleet option;  (** [Some] for every fleet-capable system *)
  start : unit -> Wd_sim.Sched.task list;
}

type t =
  string option ->
  Wd_ir.Ast.program
  * (sched:Wd_sim.Sched.t -> reg:Wd_env.Faultreg.t -> Wd_ir.Ast.program ->
     instance)
(** A boot variant ([special]: "leak_bug", "deadlock_bug", "in_memory"
    for kvs, "spin_bug" for cstore; others boot the plain system) maps to
    its program and to the boot of that program or an instrumented copy. *)

val zkmini : t
val cstore : t

val names : string list
(** "kvs", "zkmini", "dfsmini", "cstore", "mqbroker". *)

val find : string -> t
(** Raises [Invalid_argument] on a name not in {!names}. *)

val program : string -> Wd_ir.Ast.program
(** A system's plain program, before instrumentation. *)

val spawn_burst :
  sched:Wd_sim.Sched.t -> name:string -> every:int64 -> instance -> unit
(** Every [every], push the next 2,000 burst requests into the request
    queue without waiting: overload with no fault. No-op without a burst
    request. *)
