(** Mining harness: replay fault-free runs per target (fixed seeds plus
    E20 sweep-derived fault-free worlds), record op-level traces, and
    synthesize one {!Wd_infer.Synth.model} per system. Deterministic at
    any pool width. *)

type mine_cfg = {
  mc_fixed_seeds : int list;
  mc_sweep_seed : int;
  mc_sweep_worlds : int;
  mc_per_system : int;
  mc_warmup : int64;
  mc_observe : int64;
  mc_synth : Wd_infer.Synth.config;
}

val mine_run :
  warmup:int64 ->
  observe:int64 ->
  seed:int ->
  string ->
  Wd_infer.Mine.run_obs
(** One fault-free mining run of a system under the deployed (generated
    watchdog) configuration, traced from boot. *)

val program_of : string -> Wd_ir.Ast.program
(** [Wd_targets.Target.program system]; the perf harness in [perfbench/]
    names it. *)

val locate_in : Wd_ir.Ast.program -> string -> Wd_ir.Loc.t option
(** Resolve a runtime op key to a static location via the program's
    vulnerable-operation analysis keys. *)

type mined = {
  md_models : (string * Wd_infer.Synth.model) list;
  md_runs : int;
  md_events : int;
  md_digest : string;
}

val model_for : mined -> string -> Wd_infer.Synth.model option

val mine_and_synth :
  ?cfg:mine_cfg -> ?jobs:int -> unit -> mined
