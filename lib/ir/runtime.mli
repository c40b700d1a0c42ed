(** Resource table binding IR resource names to simulated environment
    objects.

    Disks, networks and memory pools must be registered by the harness that
    boots a program; locks and queues auto-create on first use (like Java
    object monitors); globals hold shared mutable program state. *)

type resources = {
  reg : Wd_env.Faultreg.t;
  rng : Wd_sim.Rng.t;
  disks : (string, Wd_env.Disk.t) Hashtbl.t;
  nets : (string, Ast.value Wd_env.Net.t) Hashtbl.t;
  mems : (string, Wd_env.Memory.t) Hashtbl.t;
  locks : (string, Wd_sim.Smutex.t) Hashtbl.t;
  queues : (string, Ast.value Wd_sim.Channel.t) Hashtbl.t;
  globals : (string, Ast.value) Hashtbl.t;
  mutable log_lines : (int64 * string * string) list;
}

val create : reg:Wd_env.Faultreg.t -> rng:Wd_sim.Rng.t -> resources

val add_disk : resources -> Wd_env.Disk.t -> unit
val add_net : resources -> Ast.value Wd_env.Net.t -> unit
val add_mem : resources -> Wd_env.Memory.t -> unit

val disk : resources -> string -> Wd_env.Disk.t
(** Raises {!Ast.Ir_error} if not registered; same for {!net} and {!mem}. *)

val net : resources -> string -> Ast.value Wd_env.Net.t
val mem : resources -> string -> Wd_env.Memory.t

val lock : resources -> string -> Wd_sim.Smutex.t
(** Auto-creates on first use; same for {!queue}. *)

val queue : resources -> string -> Ast.value Wd_sim.Channel.t

val find_queue : resources -> string -> Ast.value Wd_sim.Channel.t option
(** The queue named [name] if it exists; unlike {!queue}, never creates it. *)

val drop_queue : resources -> string -> unit
(** Forget a queue that will never be touched again (per-request reply
    queues under load). The next {!queue} on the name re-creates it. *)

val global : resources -> string -> Ast.value
(** [VUnit] when unset. *)

val set_global : resources -> string -> Ast.value -> unit

val log : resources -> node:string -> string -> unit
val log_lines : resources -> (int64 * string * string) list
