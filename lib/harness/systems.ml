(* The single-node boot skeleton: boot a system from its
   [Wd_targets.Target] description with its generated watchdog, baseline
   detectors (probe / signal / heartbeat / observer) and a client workload,
   exposing the uniform surface the campaign runner drives. *)

module Generate = Wd_autowatchdog.Generate
module Checker = Wd_watchdog.Checker
module Driver = Wd_watchdog.Driver
module Target = Wd_targets.Target

type watchdog_mode =
  | Wd_generated       (* full AutoWatchdog: mimic checkers + context sync *)
  | Wd_no_context      (* ablation: naive mimic checkers, no state sync *)
  | Wd_none            (* no intrinsic watchdog *)

type booted = {
  b_system : string;
  b_sched : Wd_sim.Sched.t;
  b_reg : Wd_env.Faultreg.t;
  b_generated : Generate.generated;
  b_driver : Driver.t;
  b_heartbeat : Wd_detectors.Heartbeat.t;
  b_observer : Wd_detectors.Observer.t;
  b_workload : Wd_targets.Workload.stats;
  b_tasks : Wd_sim.Sched.task list;
  b_crash : unit -> unit;
  b_mem : Wd_env.Memory.t;
  b_res : Wd_ir.Runtime.resources;
  b_client : int -> [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ];
      (* one client request by index, for load generators; wider keyspace
         than the periodic background workload and no per-call formatting
         on the request path *)
}

(* Ablation checkers for the no-context mode: mimic the reduced unit but
   with pre-supplied synthetic arguments instead of synchronised state —
   exactly the naive construction §3.1 warns about. A disk unit whose
   operand is unknown verifies a guessed path, which is spurious when the
   main program never wrote it (in-memory mode, cold start). *)
let naive_checker_of_unit ~res (u : Wd_analysis.Reduction.unit_) =
  let disk_target =
    List.find_map
      (fun key ->
        match String.split_on_char ':' key with
        | ("disk_write" | "disk_append") :: target :: _ -> Some target
        | _ -> None)
      u.Wd_analysis.Reduction.keys
  in
  match disk_target with
  | None -> None
  | Some target ->
      let guessed_path =
        (* use a constant operand if the reduction kept one, else guess *)
        let rec const_path = function
          | Wd_ir.Ast.Const (Wd_ir.Ast.VStr s) :: _ -> Some s
          | _ :: rest -> const_path rest
          | [] -> None
        in
        let op_args =
          List.concat_map
            (fun st ->
              match st.Wd_ir.Ast.node with
              | Wd_ir.Ast.Op { args; _ } -> args
              | Wd_ir.Ast.Sync (_, body) ->
                  List.concat_map
                    (fun s ->
                      match s.Wd_ir.Ast.node with
                      | Wd_ir.Ast.Op { args; _ } -> args
                      | _ -> [])
                    body
              | _ -> [])
            u.Wd_analysis.Reduction.ufunc.Wd_ir.Ast.body
        in
        match const_path op_args with Some p -> p | None -> "seg/0"
      in
      let id = "naive:" ^ u.Wd_analysis.Reduction.unit_id in
      Some
        (Checker.make ~kind:Checker.Mimic ~period:(Wd_sim.Time.sec 1)
           ~timeout:(Wd_sim.Time.sec 6) ~id (fun ~now ->
             let disk = Wd_ir.Runtime.disk res target in
             match Wd_env.Disk.read disk ~path:guessed_path with
             | _ -> Checker.Pass
             | exception Wd_env.Disk.Io_error m ->
                 Checker.Fail
                   (Wd_watchdog.Report.make ~at:now ~checker_id:id
                      ~fkind:(Wd_watchdog.Report.Error_sig m)
                      ~loc:u.Wd_analysis.Reduction.anchor_loc ())))

let attach_watchdog ~mode ~sched ~driver ~res ~main g =
  match mode with
  | Wd_none -> ()
  | Wd_generated ->
      ignore
        (Generate.attach ~progress:(Wd_sim.Time.sec 20) g ~sched ~main
           ~driver)
  | Wd_no_context ->
      List.iter
        (fun u ->
          match naive_checker_of_unit ~res u with
          | Some c -> Driver.add_checker driver c
          | None -> ())
        g.Generate.units

(* The one single-node boot skeleton: validate and analyse the program,
   boot the target's description on the (maybe instrumented) program,
   then driver, watchdog, baseline checkers, heartbeat, observer,
   workload, burst spawn, start, inferred checkers — in that order, which
   every pinned schedule depends on. The monitor registers its trace
   cursor before the target boots, so startup ops (recovery reads, first
   writes) are part of its ordering state, exactly as during mining. *)
let boot ?schedule ~sched ~reg ~mode ?infer ?special system =
  let inferred =
    Option.map (fun model -> (model, Wd_infer.Monitor.create sched)) infer
  in
  let prog, boot_target = Target.find system special in
  Wd_ir.Validate.check_exn prog;
  let g = Generate.analyze_cached prog in
  let run_prog =
    match mode with
    | Wd_generated -> g.Generate.red.Wd_analysis.Reduction.instrumented
    | Wd_no_context | Wd_none -> prog
  in
  let p = boot_target ~sched ~reg run_prog in
  let driver = Driver.create ?schedule sched in
  attach_watchdog ~mode ~sched ~driver ~res:p.Target.res ~main:p.Target.main g;
  List.iter (Driver.add_checker driver) p.Target.checkers;
  let heartbeat =
    let net, endpoint, match_prefix = p.Target.heartbeat in
    Wd_detectors.Heartbeat.create ~sched ~net ~endpoint ~match_prefix ()
  in
  let observer = Wd_detectors.Observer.create sched in
  let wstats = Wd_targets.Workload.create_stats () in
  let wl_task =
    let name, period, op = p.Target.workload in
    Wd_targets.Workload.spawn ~name ~sched ~period ~op
      ~on_result:(fun r ->
        Wd_detectors.Observer.observe observer (Wd_detectors.Observer.of_result r))
      wstats
  in
  if special = Some "burst" then
    Target.spawn_burst ~sched ~name:(system ^ "-burst")
      ~every:(Wd_sim.Time.sec 2) p;
  let tasks = p.Target.start () in
  Driver.start driver;
  Option.iter
    (fun (model, monitor) ->
      List.iter (Driver.add_checker driver)
        (Wd_infer.Checkers.compile ~model ~monitor ()))
    inferred;
  let crash () =
    List.iter (Wd_sim.Sched.kill sched) tasks;
    Driver.stop driver
  in
  {
    b_system = system;
    b_sched = sched;
    b_reg = reg;
    b_generated = g;
    b_driver = driver;
    b_heartbeat = heartbeat;
    b_observer = observer;
    b_workload = wstats;
    b_tasks = wl_task :: tasks;
    b_crash = crash;
    b_mem = p.Target.mem;
    b_res = p.Target.res;
    b_client = p.Target.client;
  }

let all_systems = Target.names
