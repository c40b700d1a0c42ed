(* repro — command-line front end for the paper's experiments.

     repro list                    list experiments and failure scenarios
     repro table1 | table2 | ...   run one experiment and print its table
                                   (one command per Experiments.all entry)
     repro all                     run every experiment
     repro check                   evaluate every hard gate; exit 1 on a failure
     repro scenario <sid>          run one catalog scenario in detail *)

open Cmdliner
module Experiments = Wd_harness.Experiments

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
  | Some n -> Experiments.set_jobs n
  | None -> ()

(* Base seed for experiments that fan out over seed lists (default 42).
   Results are a pure function of the seed, independent of --jobs. *)
let seed_arg =
  let doc = "Base seed for seed-fanned experiments (default 42)." in
  Arg.(value & opt (some int) None & info [ "seed"; "s" ] ~docv:"S" ~doc)

let apply_seed = function
  | Some s -> Experiments.set_seed s
  | None -> ()

(* The size flag of an experiment that has one; unsized experiments get
   no flag and their renderer ignores the value. *)
let size_arg (e : Experiments.t) =
  match e.Experiments.size with
  | None -> Term.const 0
  | Some (s : Experiments.size) ->
      let doc = s.Experiments.about ^ "." in
      Arg.(
        value
        & opt int s.Experiments.default
        & info [ s.Experiments.flag ] ~docv:"N" ~doc)

let default_size (e : Experiments.t) =
  match e.Experiments.size with Some s -> s.Experiments.default | None -> 0

let experiment_cmd (e : Experiments.t) =
  let run n jobs seed =
    apply_jobs jobs;
    apply_seed seed;
    match e.Experiments.size with
    | Some s when n < s.Experiments.least ->
        Fmt.epr "--%s must be >= %d@." s.Experiments.flag s.Experiments.least;
        1
    | _ ->
        print_string (e.Experiments.render n);
        0
  in
  Cmd.v
    (Cmd.info e.Experiments.name ~doc:e.Experiments.doc)
    Term.(const run $ size_arg e $ jobs_arg $ seed_arg)

let list_cmd =
  let doc = "List experiments and failure scenarios." in
  let run () =
    print_endline "experiments:";
    List.iter
      (fun (e : Experiments.t) ->
        Printf.printf "  repro %s\n" e.Experiments.name)
      Experiments.all;
    print_endline "\nfailure scenarios (repro scenario <sid>):";
    List.iter
      (fun s -> Fmt.pr "  %a@." Wd_faults.Catalog.pp_scenario s)
      Wd_faults.Catalog.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let all_cmd =
  let doc = "Run every experiment." in
  let run jobs seed =
    apply_jobs jobs;
    apply_seed seed;
    List.iter
      (fun (e : Experiments.t) ->
        Printf.printf "\n================ repro %s ================\n\n"
          e.Experiments.name;
        print_string (e.Experiments.render (default_size e)))
      Experiments.all;
    0
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
        (Check.families ~jobs:(Experiments.jobs ()))
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
    match Wd_targets.Target.program system with
    | exception Invalid_argument _ ->
        Fmt.epr "unknown system %s@." system;
        1
    | prog ->
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
        (* asked for before boot, so the ring records the whole run *)
        let tr = Wd_sim.Sched.trace sched in
        let booted =
          Wd_harness.Systems.boot
            ~schedule:cfg.Wd_harness.Campaign.schedule ~sched
            ~reg:(Wd_env.Faultreg.create ())
            ~mode:cfg.Wd_harness.Campaign.mode
            ?infer:cfg.Wd_harness.Campaign.infer
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
        Wd_sim.Trace.dump ~n:40 Fmt.stdout tr;
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
           :: List.map experiment_cmd Experiments.all)))
