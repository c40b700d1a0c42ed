(** The environment every target boots into. *)

type t = {
  res : Wd_ir.Runtime.resources;
  net : Wd_ir.Ast.value Wd_env.Net.t;
  mem : Wd_env.Memory.t;
}

val create :
  sched:Wd_sim.Sched.t ->
  reg:Wd_env.Faultreg.t ->
  disks:string list ->
  net:string ->
  mem:string ->
  mem_capacity:int ->
  endpoints:string list ->
  t
(** A resource table with the disks, net and memory pool registered and
    [endpoints] on the net. One split of the scheduler's rng seeds the
    table, whose splits seed each disk in order, then the net: a run stays
    a pure function of the scheduler's seed. *)
