(* Campaign runner: execute one failure scenario against one system with a
   chosen watchdog mode, and classify what each detector class saw.

   Timeline: boot -> warmup (fault-free) -> inject -> observe. Detection
   latency is measured from the injection instant; reports arriving before
   injection are false alarms (fault-free accuracy runs use the same path
   with no scenario). *)

module Catalog = Wd_faults.Catalog
module Checker = Wd_watchdog.Checker
module Driver = Wd_watchdog.Driver
module Report = Wd_watchdog.Report

type pinpoint = Exact | Near of string | Wrong of string | No_loc

type outcome = {
  o_detected : bool;
  o_latency : int64 option;
  o_loc : Wd_ir.Loc.t option;
  o_pinpoint : pinpoint option; (* None when scenario has no ground truth *)
  o_first_report : Report.t option;
}

let no_detection =
  { o_detected = false; o_latency = None; o_loc = None; o_pinpoint = None;
    o_first_report = None }

type run = {
  r_sid : string;
  r_system : string;
  r_outcomes : (string * outcome) list;
      (* keyed and ordered like [families] *)
  r_pre_inject_reports : int;
  r_workload_ok_ratio : float;
  r_workload_issued : int;
  r_checker_count : int;
  r_sim_events : int;
}

let classify_checker id =
  if String.starts_with ~prefix:Wd_infer.Checkers.id_prefix id then `Inferred
  else
    match Checker.kind_of_id id with
    | Checker.Probe -> `Probe
    | Checker.Signal -> `Signal
    | Checker.Mimic -> `Mimic

let intrinsic_families = [ "mimic"; "probe"; "signal"; "inferred" ]
let families = intrinsic_families @ [ "heartbeat"; "observer" ]

let family_of_checker id =
  match classify_checker id with
  | `Mimic -> "mimic"
  | `Probe -> "probe"
  | `Signal -> "signal"
  | `Inferred -> "inferred"

let outcome_of_report ~near ~inject_at ~truth_func (r : Report.t) =
  let latency =
    let d = Int64.sub r.Report.at inject_at in
    if d < 0L then 0L else d
  in
  let pinpoint =
    match truth_func with
    | None -> None
    | Some truth -> (
        match r.Report.loc with
        | None -> Some No_loc
        | Some loc ->
            let f = Wd_ir.Loc.func loc in
            if f = truth then Some Exact
            else if near f truth then Some (Near f)
            else Some (Wrong f))
  in
  {
    o_detected = true;
    o_latency = Some latency;
    o_loc = r.Report.loc;
    o_pinpoint = pinpoint;
    o_first_report = Some r;
  }

let outcome_of_suspicion ~inject_at at =
  match at with
  | None -> no_detection
  | Some t ->
      let latency = Int64.sub t inject_at in
      {
        o_detected = true;
        o_latency = Some (if latency < 0L then 0L else latency);
        o_loc = None;
        o_pinpoint = None;
        o_first_report = None;
      }

(* First post-injection report of each intrinsic family. *)
let class_outcomes ~near ~inject_at ~truth_func reports =
  List.map
    (fun fam ->
      ( fam,
        match
          List.find_opt
            (fun (r : Report.t) ->
              family_of_checker r.Report.checker_id = fam
              && r.Report.at >= inject_at)
            reports
        with
        | Some r -> outcome_of_report ~near ~inject_at ~truth_func r
        | None -> no_detection ))
    intrinsic_families

type config = {
  seed : int;
  warmup : int64;
  observe : int64;
  mode : Systems.watchdog_mode;
  infer : Wd_infer.Synth.model option;
  schedule : Wd_watchdog.Schedule.policy;
}

let default_config =
  {
    seed = 42;
    warmup = Wd_sim.Time.sec 8;
    observe = Wd_sim.Time.sec 45;
    mode = Systems.Wd_generated;
    infer = None;
    schedule = Wd_watchdog.Schedule.fixed;
  }

let inject (booted : Systems.booted) (s : Catalog.scenario) =
  let at = Wd_sim.Sched.now booted.Systems.b_sched in
  ignore (Catalog.inject booted.Systems.b_reg s ~at);
  if s.Catalog.special = Some "crash" then
    Wd_sim.Sched.at booted.Systems.b_sched at booted.Systems.b_crash

let run_raw cfg ~system ~scenario () =
  let sched = Wd_sim.Sched.create ~seed:cfg.seed () in
  let booted =
    Systems.boot ~schedule:cfg.schedule ~sched ~reg:(Wd_env.Faultreg.create ())
      ~mode:cfg.mode ?infer:cfg.infer
      ?special:(Option.bind scenario (fun s -> s.Catalog.special))
      system
  in
  (match Wd_sim.Sched.run ~until:cfg.warmup sched with
  | Wd_sim.Sched.Time_limit | Wd_sim.Sched.Quiescent -> ()
  | Wd_sim.Sched.Deadlock tasks ->
      failwith
        (Fmt.str "deadlock during warmup: %a"
           Fmt.(list ~sep:(any ", ") Wd_sim.Sched.pp_task)
           tasks));
  let inject_at = Wd_sim.Sched.now sched in
  Option.iter (inject booted) scenario;
  let until = Int64.add inject_at cfg.observe in
  (match Wd_sim.Sched.run ~until sched with
  | Wd_sim.Sched.Time_limit | Wd_sim.Sched.Quiescent -> ()
  | Wd_sim.Sched.Deadlock _ ->
      (* A global deadlock can be the scenario's very point (all non-daemon
         tasks wedged); nothing left to simulate. *)
      ());
  (booted, inject_at)

let run_scenario ?(cfg = default_config) sid =
  let scenario = Catalog.find sid in
  let booted, inject_at = run_raw cfg ~system:scenario.Catalog.system ~scenario:(Some scenario) () in
  let reports = Driver.reports booted.Systems.b_driver in
  let pre_inject =
    List.length (List.filter (fun (r : Report.t) -> r.Report.at < inject_at) reports)
  in
  let truth_func = scenario.Catalog.truth_func in
  (* "Near" localisation = reported function directly calls or is called by
     the ground-truth function — the paper's "caller of the faulting
     function" ballpark. *)
  let near =
    let g = booted.Systems.b_generated in
    let prog = g.Wd_autowatchdog.Generate.red.Wd_analysis.Reduction.original in
    (* analysis-time callgraph, shared across every run of the system *)
    let cg = g.Wd_autowatchdog.Generate.callgraph in
    fun f truth ->
      Wd_ir.Ast.has_func prog f
      && (List.mem_assoc truth (Wd_analysis.Callgraph.callees cg f)
         || List.mem_assoc f (Wd_analysis.Callgraph.callees cg truth))
  in
  let heartbeat =
    outcome_of_suspicion ~inject_at
      (Wd_detectors.Heartbeat.suspected_at booted.Systems.b_heartbeat)
  in
  let observer =
    outcome_of_suspicion ~inject_at
      (Wd_detectors.Observer.suspected_at booted.Systems.b_observer)
  in
  let _, _, events = Wd_sim.Sched.stats booted.Systems.b_sched in
  {
    r_sid = sid;
    r_system = scenario.Catalog.system;
    r_outcomes =
      class_outcomes ~near ~inject_at ~truth_func reports
      @ [ ("heartbeat", heartbeat); ("observer", observer) ];
    r_pre_inject_reports = pre_inject;
    r_workload_ok_ratio =
      Wd_targets.Workload.success_ratio booted.Systems.b_workload;
    r_workload_issued = booted.Systems.b_workload.Wd_targets.Workload.issued;
    r_checker_count = Driver.checker_count booted.Systems.b_driver;
    r_sim_events = events;
  }

(* A campaign cell: one scenario under one configuration (mode, seed,
   windows). Cells are self-contained deterministic worlds, so a batch is
   embarrassingly parallel; [run_batch] farms cells out to the persistent
   process-wide domain pool and returns results in input order, making the
   parallel batch byte-identical to the sequential one. *)
type cell = { cell_sid : string; cell_cfg : config }

let cell ?(cfg = default_config) sid = { cell_sid = sid; cell_cfg = cfg }

let run_batch ?jobs cells =
  Wd_parallel.Pool.run_map ?jobs
    (fun c -> run_scenario ~cfg:c.cell_cfg c.cell_sid)
    cells

(* Fault-free accuracy run: any report or suspicion is a false alarm. *)
type fault_free = {
  ff_system : string;
  ff_fp : (string * int) list; (* false alarms, keyed like [r_outcomes] *)
  ff_workload_ok_ratio : float;
  ff_sim_events : int;
  ff_checker_count : int;
}

let run_fault_free ?(cfg = default_config) ?special system =
  let scenario =
    Option.map
      (fun sp ->
        {
          Catalog.sid = "none";
          description = "fault-free";
          system;
          fclass = Catalog.Transient_error;
          faults = [];
          special = Some sp;
          truth_func = None;
          expected = Catalog.exp ();
        })
      special
  in
  let booted, _inject_at = run_raw cfg ~system ~scenario () in
  let reports = Driver.reports booted.Systems.b_driver in
  let count fam =
    List.length
      (List.filter
         (fun (r : Report.t) -> family_of_checker r.Report.checker_id = fam)
         reports)
  in
  let suspected b = if b then 1 else 0 in
  let heartbeat = Wd_detectors.Heartbeat.suspected booted.Systems.b_heartbeat in
  let observer = Wd_detectors.Observer.suspected booted.Systems.b_observer in
  let _, _, events = Wd_sim.Sched.stats booted.Systems.b_sched in
  {
    ff_system = system;
    ff_fp =
      List.map (fun fam -> (fam, count fam)) intrinsic_families
      @ [ ("heartbeat", suspected heartbeat); ("observer", suspected observer) ];
    ff_workload_ok_ratio =
      Wd_targets.Workload.success_ratio booted.Systems.b_workload;
    ff_sim_events = events;
    ff_checker_count = Driver.checker_count booted.Systems.b_driver;
  }
