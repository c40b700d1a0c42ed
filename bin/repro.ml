(* repro — command-line front end for the paper's experiments.

     repro list                    list experiments and failure scenarios
     repro table1 | table2 | ...   run one experiment and print its table
     repro cluster | failover      fleet plane (E17) / leader failover (E18)
     repro all                     run every experiment
     repro check                   evaluate every hard gate; exit 1 on a failure
     repro scenario <sid>          run one catalog scenario in detail *)

open Cmdliner

(* Domain-pool width for the parallel campaign engine: a positive integer,
   by the same rule as [WD_JOBS]. A bad flag or a bad [WD_JOBS] is a usage
   error before anything runs. Tables are byte-identical at any width; the
   flag only changes wall-clock. *)
let jobs_arg =
  let positive =
    let parse s =
      match Wd_parallel.Pool.parse_jobs (Some s) with
      | Ok (Some n) -> Ok n
      | Ok None | Error _ ->
          Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let doc =
    "Fan simulations out over $(docv) domains (default: \\$WD_JOBS or the \
     host's recommended domain count). Results are identical at any width."
  in
  let flag =
    Arg.(value & opt (some positive) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let with_env flag =
    match Wd_parallel.Pool.parse_jobs (Sys.getenv_opt "WD_JOBS") with
    | Error msg -> `Error (false, msg)
    | Ok env -> `Ok (if flag = None then env else flag)
  in
  Term.(ret (const with_env $ flag))

let apply_jobs = function
  | Some n -> Wd_harness.Experiments.set_jobs n
  | None -> ()

(* Base seed for experiments that fan out over seed lists (default 42).
   Results are a pure function of the seed, independent of --jobs. *)
let seed_arg =
  let doc = "Base seed for seed-fanned experiments (default 42)." in
  Arg.(value & opt (some int) None & info [ "seed"; "s" ] ~docv:"S" ~doc)

let apply_seed = function
  | Some s -> Wd_harness.Experiments.set_seed s
  | None -> ()

let run_experiment name jobs seed =
  apply_jobs jobs;
  apply_seed seed;
  match List.assoc_opt name (Wd_harness.Experiments.all_texts ()) with
  | Some f ->
      print_string (f ());
      0
  | None ->
      Fmt.epr "unknown experiment %s@." name;
      1

let list_cmd =
  let doc = "List experiments and failure scenarios." in
  let run () =
    print_endline "experiments:";
    List.iter
      (fun (name, _) -> Printf.printf "  repro %s\n" name)
      (Wd_harness.Experiments.all_texts ());
    print_endline "\nfailure scenarios (repro scenario <sid>):";
    List.iter
      (fun s -> Fmt.pr "  %a@." Wd_faults.Catalog.pp_scenario s)
      Wd_faults.Catalog.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let experiment_cmds =
  List.filter_map
    (fun (ename, _) ->
      if ename = "faultspace" || ename = "load" || ename = "frontier" then
        None (* dedicated commands below: --worlds / --requests *)
      else
        let doc = Printf.sprintf "Run experiment %s." ename in
        let term =
          Term.(const run_experiment $ const ename $ jobs_arg $ seed_arg)
        in
        Some (Cmd.v (Cmd.info ename ~doc) term))
    (Wd_harness.Experiments.all_texts ())

let faultspace_cmd =
  let doc =
    "Run experiment faultspace (E20): a randomized fault-space sweep of \
     generated worlds graded against per-world oracles."
  in
  let worlds_arg =
    Arg.(
      value
      & opt int Wd_harness.Experiments.e20_default_worlds
      & info [ "worlds" ] ~docv:"N"
          ~doc:"Number of worlds in the sweep grid (default $(docv)=1000).")
  in
  let run worlds jobs seed =
    apply_jobs jobs;
    apply_seed seed;
    if worlds < 0 then begin
      Fmt.epr "--worlds must be non-negative@.";
      1
    end
    else begin
      print_string (Wd_harness.Experiments.e20_text ~worlds ());
      0
    end
  in
  Cmd.v
    (Cmd.info "faultspace" ~doc)
    Term.(const run $ worlds_arg $ jobs_arg $ seed_arg)

let load_cmd =
  let doc =
    "Run experiment load (E22): open/closed-loop heavy-traffic load against \
     single nodes and a fleet, watchdog-on vs -off vs inferred-on, with \
     detection latency under load."
  in
  let requests_arg =
    Arg.(
      value
      & opt int Wd_harness.Experiments.e22_default_requests
      & info [ "requests" ] ~docv:"N"
          ~doc:
            "Request budget per deployment row of each workload (default \
             $(docv)=60000).")
  in
  let run requests jobs seed =
    apply_jobs jobs;
    apply_seed seed;
    if requests <= 0 then begin
      Fmt.epr "--requests must be positive@.";
      1
    end
    else begin
      print_string (Wd_harness.Experiments.e22_text ~requests ());
      0
    end
  in
  Cmd.v
    (Cmd.info "load" ~doc)
    Term.(const run $ requests_arg $ jobs_arg $ seed_arg)

let frontier_cmd =
  let doc =
    "Run experiment frontier (E23): sweep checker-scheduling modes (fixed \
     vs adaptive) across the full fault catalog and the E22 load plane, \
     emitting an overhead-vs-detection-latency frontier table."
  in
  let requests_arg =
    Arg.(
      value
      & opt int Wd_harness.Experiments.e22_default_requests
      & info [ "requests" ] ~docv:"N"
          ~doc:
            "Request budget per load-plane run of each scheduling mode \
             (default $(docv)=60000).")
  in
  let run requests jobs seed =
    apply_jobs jobs;
    apply_seed seed;
    if requests <= 0 then begin
      Fmt.epr "--requests must be positive@.";
      1
    end
    else begin
      print_string (Wd_harness.Experiments.e23_text ~requests ());
      0
    end
  in
  Cmd.v
    (Cmd.info "frontier" ~doc)
    Term.(const run $ requests_arg $ jobs_arg $ seed_arg)

let all_cmd =
  let doc = "Run every experiment." in
  let run jobs seed =
    apply_jobs jobs;
    apply_seed seed;
    List.fold_left
      (fun acc (name, _) ->
        Printf.printf "\n================ repro %s ================\n\n" name;
        max acc (run_experiment name None None))
      0
      (Wd_harness.Experiments.all_texts ())
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ jobs_arg $ seed_arg)

let check_cmd =
  let doc =
    "Run the gated experiments and evaluate every hard gate: one line per \
     gate (name, measured value, bound, PASS/FAIL). Exits 1 if any gate \
     failed, after all of them have run."
  in
  let run jobs seed =
    apply_jobs jobs;
    apply_seed seed;
    let module Check = Wd_harness.Check in
    let gates =
      Check.evaluate
        (Check.families ~jobs:(Wd_harness.Experiments.jobs ()))
        (fun g -> print_endline (Check.render g))
    in
    let failed = List.filter (fun g -> not g.Check.pass) gates in
    Printf.printf "\n%d gates, %d failed%s\n" (List.length gates)
      (List.length failed)
      (if failed = [] then ""
       else ": " ^ String.concat ", " (List.map (fun g -> g.Check.name) failed));
    if failed = [] then 0 else 1
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ jobs_arg $ seed_arg)

let checkers_cmd =
  let doc =
    "Generate and print the watchdog checkers for a target system \
     (kvs | zkmini | dfsmini | cstore | mqbroker)."
  in
  let system =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SYSTEM")
  in
  let run system =
    let prog =
      match system with
      | "kvs" -> Some (Wd_targets.Kvs.program ())
      | "zkmini" -> Some (Wd_targets.Zkmini.program ())
      | "dfsmini" -> Some (Wd_targets.Dfsmini.program ())
      | "cstore" -> Some (Wd_targets.Cstore.program ())
      | "mqbroker" -> Some (Wd_targets.Mqbroker.program ())
      | _ -> None
    in
    match prog with
    | None ->
        Fmt.epr "unknown system %s@." system;
        1
    | Some prog ->
        let g = Wd_autowatchdog.Generate.analyze prog in
        Fmt.pr "%a@." Wd_autowatchdog.Generate.pp_summary g;
        List.iter
          (fun u ->
            print_endline (Wd_autowatchdog.Generate.render_checker_source u))
          g.Wd_autowatchdog.Generate.units;
        0
  in
  Cmd.v (Cmd.info "checkers" ~doc) Term.(const run $ system)

let scenario_cmd =
  let doc = "Run one failure scenario and print per-detector outcomes." in
  let sid =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO")
  in
  let trace_flag =
    Arg.(value & flag & info [ "trace"; "t" ] ~doc:"Dump the scheduler-event timeline around the failure.")
  in
  let run sid with_trace =
    match Wd_faults.Catalog.find sid with
    | exception Invalid_argument m ->
        Fmt.epr "%s@." m;
        1
    | scenario when with_trace ->
        (* raw run with tracing enabled; dump the recent timeline *)
        let cfg = Wd_harness.Campaign.default_config in
        let sched = Wd_sim.Sched.create ~seed:cfg.Wd_harness.Campaign.seed () in
        let tr = Wd_sim.Trace.create ~capacity:16384 () in
        Wd_sim.Sched.set_trace sched tr;
        let booted =
          Wd_harness.Campaign.boot
            ~schedule:cfg.Wd_harness.Campaign.schedule ~sched
            ~mode:cfg.Wd_harness.Campaign.mode
            ~infer:cfg.Wd_harness.Campaign.infer
            ?special:scenario.Wd_faults.Catalog.special
            scenario.Wd_faults.Catalog.system
        in
        ignore (Wd_sim.Sched.run ~until:cfg.Wd_harness.Campaign.warmup sched);
        let inject_at = Wd_sim.Sched.now sched in
        Wd_harness.Campaign.inject booted scenario;
        (* stop shortly after the first report to keep the timeline tight *)
        let stop_at = ref Int64.max_int in
        Wd_watchdog.Driver.on_report booted.Wd_harness.Systems.b_driver
          (fun _ ->
            if !stop_at = Int64.max_int then
              stop_at := Int64.add (Wd_sim.Sched.now sched) (Wd_sim.Time.ms 10));
        let rec advance () =
          let target =
            min !stop_at (Int64.add (Wd_sim.Sched.now sched) (Wd_sim.Time.sec 1))
          in
          ignore (Wd_sim.Sched.run ~until:target sched);
          if
            Wd_sim.Sched.now sched < !stop_at
            && Wd_sim.Sched.now sched < Int64.add inject_at (Wd_sim.Time.sec 45)
          then advance ()
        in
        advance ();
        Fmt.pr "%a@.@." Wd_faults.Catalog.pp_scenario scenario;
        List.iter
          (fun r -> Fmt.pr "REPORT %a@." Wd_watchdog.Report.pp r)
          (Wd_watchdog.Driver.reports booted.Wd_harness.Systems.b_driver);
        Fmt.pr "@.scheduler timeline (last 40 events):@.";
        Wd_sim.Trace.dump ~n:40 Fmt.stdout (Option.get (Wd_sim.Sched.trace sched));
        0
    | scenario ->
        let r = Wd_harness.Campaign.run_scenario sid in
        Fmt.pr "%a@.@." Wd_faults.Catalog.pp_scenario scenario;
        List.iter
          (fun (name, (o : Wd_harness.Campaign.outcome)) ->
            Fmt.pr "  %-10s detected=%-5b latency=%-10s loc=%a@." name
              o.Wd_harness.Campaign.o_detected
              (match o.Wd_harness.Campaign.o_latency with
              | None -> "-"
              | Some l -> Wd_sim.Time.to_string l)
              Fmt.(option ~none:(any "-") Wd_ir.Loc.pp)
              o.Wd_harness.Campaign.o_loc)
          r.Wd_harness.Campaign.r_outcomes;
        Fmt.pr "  workload: %d ops, %.1f%% ok; %d checkers; %d pre-injection reports@."
          r.Wd_harness.Campaign.r_workload_issued
          (100. *. r.Wd_harness.Campaign.r_workload_ok_ratio)
          r.Wd_harness.Campaign.r_checker_count
          r.Wd_harness.Campaign.r_pre_inject_reports;
        0
  in
  Cmd.v (Cmd.info "scenario" ~doc) Term.(const run $ sid $ trace_flag)

let () =
  let doc =
    "Reproduction of 'Comprehensive and Efficient Runtime Checking in System \
     Software through Watchdogs' (HotOS '19)"
  in
  let info = Cmd.info "repro" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          (list_cmd :: all_cmd :: check_cmd :: scenario_cmd :: checkers_cmd
           :: faultspace_cmd :: load_cmd :: frontier_cmd :: experiment_cmds)))
