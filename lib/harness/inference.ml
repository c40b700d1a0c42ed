(* Mining harness: the bridge between Wd_infer's pure pipeline and real
   systems. Replays configurable fault-free runs per target under the
   virtual clock — fixed seeds plus fault-free worlds drawn from the E20
   sweep grid, so the observation set spans genuinely different workload
   interleavings and window lengths — records their op-level traces, and
   synthesizes one invariant model per system.

   Mining runs under the deployed configuration (Wd_generated: instrumented
   program, mimic checkers live) so the timing envelopes absorb the
   watchdog's own load; checker-mode interpreters never emit trace events,
   so the observations stay pure target behaviour. Runs fan out over the
   persistent domain pool; aggregation and synthesis are sequential and
   canonical, making the whole pipeline byte-deterministic at any width. *)

module Mine = Wd_infer.Mine
module Synth = Wd_infer.Synth

type mine_cfg = {
  mc_fixed_seeds : int list;
  mc_sweep_seed : int; (* grid the extra fault-free worlds come from *)
  mc_sweep_worlds : int; (* grid size to scan *)
  mc_per_system : int; (* sweep-derived runs per system *)
  mc_warmup : int64;
  mc_observe : int64;
  mc_synth : Synth.config;
}

let default_cfg =
  {
    mc_fixed_seeds = [ 42; 1013; 2027 ];
    mc_sweep_seed = 42;
    mc_sweep_worlds = 200;
    mc_per_system = 3;
    mc_warmup = Wd_sim.Time.sec 8;
    mc_observe = Wd_sim.Time.sec 20;
    mc_synth = Synth.default_config;
  }

(* One mining run: boot [system] fault-free with a recorder attached. *)
let mine_run ~warmup ~observe ~seed system =
  let sched = Wd_sim.Sched.create ~seed () in
  let recorder = Mine.attach sched in
  ignore
    (Systems.boot ~sched ~reg:(Wd_env.Faultreg.create ())
       ~mode:Systems.Wd_generated system);
  (match Wd_sim.Sched.run ~until:(Int64.add warmup observe) sched with
  | Wd_sim.Sched.Time_limit | Wd_sim.Sched.Quiescent -> ()
  | Wd_sim.Sched.Deadlock tasks ->
      failwith
        (Fmt.str "deadlock during mining run of %s: %a" system
           Fmt.(list ~sep:(any ", ") Wd_sim.Sched.pp_task)
           tasks));
  Mine.finish recorder
    ~id:(Fmt.str "%s:seed=%d:o=%a" system seed Wd_sim.Time.pp observe)
    ~seed

(* Per-system schedule: fixed seeds at the configured windows, plus the
   first [mc_per_system] fault-free worlds of this system in the sweep
   grid (their seeds and observe windows vary by construction). *)
let schedule cfg =
  let grid = Sweep.grid ~seed:cfg.mc_sweep_seed ~worlds:cfg.mc_sweep_worlds () in
  List.concat_map
    (fun system ->
      let fixed =
        List.map (fun seed -> (system, seed, cfg.mc_observe)) cfg.mc_fixed_seeds
      in
      let from_sweep =
        List.filter_map
          (function
            | Sweep.Fault_free_world { ff_system; ff_seed; ff_observe }
              when String.equal ff_system system ->
                Some (system, ff_seed, ff_observe)
            | _ -> None)
          grid
      in
      let rec take n = function
        | x :: rest when n > 0 -> x :: take (n - 1) rest
        | _ -> []
      in
      fixed @ take cfg.mc_per_system from_sweep)
    Systems.all_systems

let program_of system = Wd_targets.Target.program system

(* Resolve a runtime op key to a static location via the analysis's
   vulnerable-operation keys. Exact vkey match first; otherwise fall back
   to the unique static op with the same "kind:target:" stem (runtime
   operand prefixes are dynamic, static ones are constant-propagated, so
   the stems meet more often than the full keys). *)
let locate_in prog =
  let vops =
    List.concat_map
      (Wd_analysis.Vulnerable.collect_in_func Wd_analysis.Vulnerable.default)
      prog.Wd_ir.Ast.funcs
  in
  let exact = Hashtbl.create 64 and stems = Hashtbl.create 64 in
  List.iter
    (fun (v : Wd_analysis.Vulnerable.vop) ->
      if not (Hashtbl.mem exact v.Wd_analysis.Vulnerable.vkey) then
        Hashtbl.add exact v.Wd_analysis.Vulnerable.vkey
          v.Wd_analysis.Vulnerable.vloc;
      let stem =
        match String.split_on_char ':' v.Wd_analysis.Vulnerable.vkey with
        | kind :: target :: _ -> kind ^ ":" ^ target
        | _ -> v.Wd_analysis.Vulnerable.vkey
      in
      Hashtbl.replace stems stem
        (match Hashtbl.find_opt stems stem with
        | None -> `Unique v.Wd_analysis.Vulnerable.vloc
        | Some _ -> `Ambiguous))
    vops;
  fun key ->
    match Hashtbl.find_opt exact key with
    | Some loc -> Some loc
    | None -> (
        let stem =
          match String.split_on_char ':' key with
          | kind :: target :: _ -> kind ^ ":" ^ target
          | _ -> key
        in
        match Hashtbl.find_opt stems stem with
        | Some (`Unique loc) -> Some loc
        | Some `Ambiguous | None -> None)

type mined = {
  md_models : (string * Synth.model) list; (* per system, sorted *)
  md_runs : int;
  md_events : int;
  md_digest : string; (* over every model's canonical form *)
}

let model_for mined system = List.assoc_opt system mined.md_models

let mine_and_synth ?(cfg = default_cfg) ?jobs () =
  let sched_list = schedule cfg in
  let obs_runs =
    Wd_parallel.Pool.run_map ?jobs
      (fun (system, seed, observe) ->
        (system, mine_run ~warmup:cfg.mc_warmup ~observe ~seed system))
      sched_list
  in
  let models =
    List.map
      (fun system ->
        let runs =
          List.filter_map
            (fun (sys, ro) -> if String.equal sys system then Some ro else None)
            obs_runs
        in
        let obs = Mine.aggregate runs in
        let locate = locate_in (Wd_targets.Target.program system) in
        (system, Synth.synthesize ~config:cfg.mc_synth ~locate ~system obs))
      (List.sort compare Systems.all_systems)
  in
  let events =
    List.fold_left
      (fun n (_, ro) -> n + Mine.ops_length ro.Mine.ro_ops)
      0 obs_runs
  in
  {
    md_models = models;
    md_runs = List.length obs_runs;
    md_events = events;
    md_digest =
      Digest.to_hex
        (Digest.string
           (String.concat "\n"
              (List.map (fun (_, m) -> Synth.to_canonical m) models)));
  }
