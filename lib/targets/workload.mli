(** Generic closed-loop client workload: one task issuing an operation per
    period, collecting success and latency statistics. *)

type stats = {
  mutable issued : int;
  mutable ok : int;
  mutable errors : int;
  mutable timeouts : int;
  mutable total_latency : int64;
  mutable max_latency : int64;
  mutable latencies : int64 list;  (** newest first *)
}

val create_stats : unit -> stats

val mean_latency : stats -> int64
val percentile : stats -> float -> int64
val success_ratio : stats -> float

val spawn :
  ?name:string ->
  ?on_result:([ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ] -> unit) ->
  sched:Wd_sim.Sched.t ->
  period:int64 ->
  op:(int -> [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ]) ->
  stats ->
  Wd_sim.Sched.task
(** Spawn the client loop; [op] receives the request index and must block
    (it runs inside a task). [on_result] lets observers tap every outcome. *)
