(** Signal checkers (Table 2, row 2): monitor health indicators like the
    Linux watchdog daemon — queue depth, memory utilisation, scheduling
    delay. Modest completeness, weak accuracy, resource-level localisation
    only. *)

val queue_depth :
  id:string ->
  res:Wd_ir.Runtime.resources ->
  queue:string ->
  max_depth:int ->
  Wd_watchdog.Checker.t

val mem_utilisation :
  id:string -> mem:Wd_env.Memory.t -> max_util:float -> Wd_watchdog.Checker.t

val sleep_overshoot :
  id:string ->
  mem:Wd_env.Memory.t ->
  expected:int64 ->
  tolerance:int64 ->
  Wd_watchdog.Checker.t
(** §3.3's example: sleep briefly through the shared allocator and measure
    the overshoot — long pauses expose GC-pressure-style stalls. *)
