(* The paper's tables, figures and preliminary results as runnable
   experiments. Each experiment is a renderer that runs its simulations and
   returns its table; [all] at the bottom registers every renderer once,
   with its name, help line and optional size flag, and the repro command
   line and the tests reach them only through it. The [eN_run] functions
   the gates and tests consume return structured results. The experiment
   index lives in DESIGN.md; measured-vs-paper records go to
   EXPERIMENTS.md. *)

module Catalog = Wd_faults.Catalog
module Generate = Wd_autowatchdog.Generate
module Driver = Wd_watchdog.Driver
module Report = Wd_watchdog.Report
module Reduction = Wd_analysis.Reduction

let fp = Format.asprintf

(* --- parallel campaign engine knob ---

   Every experiment below runs a list of independent simulations; each one
   is its own deterministic world, so the lists fan out across a domain
   pool. [set_jobs] (the repro/bench [--jobs] flag) overrides the width;
   the default comes from [WD_JOBS] or the host's recommended domain
   count. [par_map] preserves input order, so rendered tables are
   byte-identical to a sequential run at any width. *)

let jobs_override = ref None
let set_jobs n = jobs_override := Some (max 1 n)

let jobs () =
  match !jobs_override with
  | Some n -> n
  | None -> Wd_parallel.Pool.default_jobs ()

let par_map f xs = Wd_parallel.Pool.run_map ~jobs:(jobs ()) f xs

(* Base-seed override (the repro [--seed] flag). Experiments that fan out
   over seeds derive their seed list from this, so one flag reruns a whole
   campaign under a different family of interleavings — results remain a
   pure function of (seed, --jobs-independent). *)
let seed_override = ref None
let set_seed n = seed_override := Some n
let base_seed () = match !seed_override with Some s -> s | None -> 42

let pinpoint_cell = function
  | None -> "-"
  | Some Campaign.Exact -> "exact"
  | Some (Campaign.Near f) -> "near (" ^ f ^ ")"
  | Some (Campaign.Wrong f) -> "wrong (" ^ f ^ ")"
  | Some Campaign.No_loc -> "no loc"

let outcome_cells (o : Campaign.outcome) =
  if o.Campaign.o_detected then Tables.latency_cell o.Campaign.o_latency else "."

(* [d] as a percentage of [base], e.g. sim events a deployment adds over
   its baseline run *)
let pct d ~base = 100. *. float_of_int d /. float_of_int (max 1 base)

(* ------------------------------------------------------------------ *)
(* E1 — Table 1: crash FD vs error handler vs watchdog, empirically.   *)
(* ------------------------------------------------------------------ *)

let handler_counter booted =
  (* Error-handler activity: counters bumped inside IR catch blocks. *)
  match Wd_ir.Runtime.global booted.Systems.b_res "dfs.scan_errors" with
  | Wd_ir.Ast.VInt n -> n
  | _ -> 0

let e1_scenarios =
  [ "kvs-crash"; "zk-2201"; "cs-compaction-stuck"; "dfs-scan-transient";
    "dfs-limplock"; "kvs-seg-corrupt"; "kvs-deadlock" ]

let e1_text () =
  let rows =
    par_map
      (fun sid ->
        let scenario = Catalog.find sid in
        let cfg = Campaign.default_config in
        let booted, inject_at =
          Campaign.run_raw cfg ~system:scenario.Catalog.system
            ~scenario:(Some scenario) ()
        in
        let reports = Driver.reports booted.Systems.b_driver in
        let mimic_detected =
          List.exists
            (fun (r : Report.t) ->
              Campaign.classify_checker r.Report.checker_id = `Mimic
              && r.Report.at >= inject_at)
            reports
        in
        [
          sid;
          Catalog.fclass_name scenario.Catalog.fclass;
          Tables.mark_cell
            (Wd_detectors.Heartbeat.suspected booted.Systems.b_heartbeat);
          Tables.mark_cell (handler_counter booted > 0);
          Tables.mark_cell mimic_detected;
        ])
      e1_scenarios
  in
  "E1 / Table 1 — which abstraction detects which failure (empirical)\n"
  ^ Tables.render
      ~header:[ "scenario"; "failure class"; "crash FD"; "error handler"; "watchdog" ]
      rows
  ^ "\nCrash FD: heartbeat silence only (fail-stop). Error handler: in-place\n\
     catch blocks (known, localized errors). Watchdog: generated mimic\n\
     checkers (gray failures, with localization). The watchdog dies with the\n\
     process on a crash — Table 1's isolation trade-off.\n"

(* ------------------------------------------------------------------ *)
(* E2 — Table 2: probe / signal / mimic quality across the catalog.    *)
(* ------------------------------------------------------------------ *)

type e2_agg = {
  e2_kind : string;
  e2_detected : int;
  e2_total : int;
  e2_false_alarms : int;
  e2_exact : int;
  e2_near : int;
  e2_detections_with_loc : int;
}

let e2_scenarios () =
  List.filter (fun s -> s.Catalog.special <> Some "crash") Catalog.all

let e2_run () =
  let runs =
    Campaign.run_batch ~jobs:(jobs ())
      (List.map (fun s -> Campaign.cell s.Catalog.sid) (e2_scenarios ()))
  in
  let ffs = par_map (fun sys -> Campaign.run_fault_free sys) Systems.all_systems in
  let agg kind =
    let outcomes =
      List.map (fun (r : Campaign.run) -> List.assoc kind r.Campaign.r_outcomes) runs
    in
    let detected = List.filter (fun o -> o.Campaign.o_detected) outcomes in
    let exact =
      List.length
        (List.filter (fun o -> o.Campaign.o_pinpoint = Some Campaign.Exact) detected)
    in
    let near =
      List.length
        (List.filter
           (fun o ->
             match o.Campaign.o_pinpoint with Some (Campaign.Near _) -> true | _ -> false)
           detected)
    in
    let with_loc =
      List.length (List.filter (fun o -> o.Campaign.o_loc <> None) detected)
    in
    {
      e2_kind = kind;
      e2_detected = List.length detected;
      e2_total = List.length outcomes;
      e2_false_alarms =
        List.fold_left
          (fun n ff -> n + List.assoc kind ff.Campaign.ff_fp)
          0 ffs;
      e2_exact = exact;
      e2_near = near;
      e2_detections_with_loc = with_loc;
    }
  in
  (runs, List.map agg [ "probe"; "signal"; "mimic" ])

(* Compare a run against the catalog's paper-informed prediction. The
   prediction is a lower bound on mimic/heartbeat and exact on the others:
   extra detections by a *more* capable class are genuine findings. *)
let e2_matches_expectation (r : Campaign.run) =
  let s = Catalog.find r.Campaign.r_sid in
  let e = s.Catalog.expected in
  let got k = (List.assoc k r.Campaign.r_outcomes).Campaign.o_detected in
  got "mimic" = e.Catalog.exp_mimic
  && got "probe" = e.Catalog.exp_probe
  && got "heartbeat" = e.Catalog.exp_heartbeat
  && got "observer" = e.Catalog.exp_observer

let e2_text () =
  let runs, aggs = e2_run () in
  let detail =
    Tables.render
      ~header:
        [ "scenario"; "system"; "mimic"; "probe"; "signal"; "heartbeat";
          "observer"; "mimic pinpoint"; "as predicted" ]
      (List.map
         (fun (r : Campaign.run) ->
           let o k = List.assoc k r.Campaign.r_outcomes in
           [
             r.Campaign.r_sid;
             r.Campaign.r_system;
             outcome_cells (o "mimic");
             outcome_cells (o "probe");
             outcome_cells (o "signal");
             outcome_cells (o "heartbeat");
             outcome_cells (o "observer");
             pinpoint_cell (o "mimic").Campaign.o_pinpoint;
             Tables.bool_cell (e2_matches_expectation r);
           ])
         runs)
  in
  let summary =
    Tables.render
      ~header:
        [ "checker type"; "completeness"; "accuracy (false alarms)"; "pinpoint" ]
      (List.map
         (fun a ->
           [
             a.e2_kind;
             fp "%d/%d detected" a.e2_detected a.e2_total;
             fp "%d false alarms (fault-free)" a.e2_false_alarms;
             (if a.e2_detections_with_loc = 0 then "none"
              else
                fp "%d exact, %d near of %d" a.e2_exact a.e2_near a.e2_detected);
           ])
         aggs)
  in
  "E2 / Table 2 — checker types across the failure catalog\n"
  ^ "(cells show detection latency after injection; '.' = not detected)\n\n"
  ^ detail ^ "\n" ^ summary
  ^ "\nPaper's qualitative claims: probe = weak completeness / perfect\n\
     accuracy / no pinpointing; signal = modest completeness / weak\n\
     accuracy; mimic = strong completeness and accuracy, pinpoints.\n"

(* ------------------------------------------------------------------ *)
(* E4 — Figures 2 & 3: the reduction of zkmini's serializeSnapshot.    *)
(* ------------------------------------------------------------------ *)

let e4_text () =
  let prog = Wd_targets.Zkmini.program () in
  let g = Generate.analyze prog in
  let red = g.Generate.red in
  let original_chain =
    List.filter
      (fun f ->
        List.mem f.Wd_ir.Ast.fname
          [ "serialize_snapshot"; "serialize"; "serialize_node" ])
      prog.Wd_ir.Ast.funcs
  in
  let instrumented_chain =
    List.filter
      (fun f -> f.Wd_ir.Ast.fname = "serialize_node")
      red.Reduction.instrumented.Wd_ir.Ast.funcs
  in
  let units =
    List.filter
      (fun (u : Reduction.unit_) -> u.Reduction.source_func = "serialize_node")
      g.Generate.units
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "E4 / Figures 2-3 — program logic reduction of the snapshot chain\n\n";
  Buffer.add_string buf "--- original (paper Figure 2, before reduction) ---\n";
  List.iter
    (fun f -> Buffer.add_string buf (Wd_ir.Pp.func_to_string f))
    original_chain;
  Buffer.add_string buf
    "\n--- instrumented serialize_node (context hooks inserted) ---\n";
  List.iter
    (fun f -> Buffer.add_string buf (Wd_ir.Pp.func_to_string f))
    instrumented_chain;
  Buffer.add_string buf "\n--- generated checker (paper Figure 3) ---\n";
  List.iter
    (fun u -> Buffer.add_string buf (Generate.render_checker_source u))
    units;
  Buffer.add_string buf (fp "\nreduction stats: %a\n" Reduction.pp_stats red.Reduction.stats);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* E5 — §4.2: the ZOOKEEPER-2201 reproduction.                         *)
(* ------------------------------------------------------------------ *)

let e5_text () =
  let scenario = Catalog.find "zk-2201" in
  let cfg = Campaign.default_config in
  let booted, inject_at =
    Campaign.run_raw cfg ~system:"zkmini" ~scenario:(Some scenario) ()
  in
  let reports = Driver.reports booted.Systems.b_driver in
  let post = List.filter (fun (r : Report.t) -> r.Report.at >= inject_at) reports in
  let first_matching pred = List.find_opt pred post in
  let mimic =
    first_matching (fun r -> Campaign.classify_checker r.Report.checker_id = `Mimic)
  in
  let ruok = first_matching (fun r -> r.Report.checker_id = "probe:zk-ruok") in
  let rw = first_matching (fun r -> r.Report.checker_id = "probe:zk-rw") in
  let lat (r : Report.t) =
    Wd_sim.Time.to_string (Int64.sub r.Report.at inject_at)
  in
  "E5 / §4.2 — ZOOKEEPER-2201 reproduction (network fault blocks remote\n\
   sync inside the commit critical section)\n\n"
  ^ Tables.render ~header:[ "detector"; "verdict"; "detail" ]
      [
        [
          "heartbeat protocol";
          (if Wd_detectors.Heartbeat.suspected booted.Systems.b_heartbeat then
             "SUSPECTED"
           else "healthy (blind)");
          "leader keeps answering pings";
        ];
        [
          "admin command (ruok)";
          (if ruok <> None then "DETECTED" else "imok (blind)");
          "admin thread untouched by the wedged pipeline";
        ];
        [
          "client write probe";
          (match rw with Some r -> "failed after " ^ lat r | None -> "ok");
          "end-to-end writes hang (the gray failure is client-visible)";
        ];
        [
          "generated mimic watchdog";
          (match mimic with
          | Some r -> "DETECTED in " ^ lat r
          | None -> "missed");
          (match Option.bind mimic (fun r -> r.Report.loc) with
          | Some l ->
              "pinpointed blocked critical section at " ^ Wd_ir.Loc.to_string l
          | None -> "-");
        ];
      ]
  ^ fp
      "\npaper: watchdog detected in ~7 s and pinpointed the blocked function\n\
       call with a concrete context; heartbeats and the admin command showed\n\
       the leader healthy throughout. measured mimic latency here: %s.\n"
      (match mimic with Some r -> lat r | None -> "n/a")

(* ------------------------------------------------------------------ *)
(* E6 — §4.2: generation statistics ("tens of checkers").              *)
(* ------------------------------------------------------------------ *)

let target_programs () =
  List.map (fun sys -> (sys, Wd_targets.Target.program sys)) Systems.all_systems

let e6_run () =
  par_map
    (fun (name, prog) ->
      let t0 = Unix.gettimeofday () in
      let g = Generate.analyze prog in
      let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      (name, g, elapsed_ms))
    (target_programs ())

let e6_text () =
  let rows = e6_run () in
  "E6 / §4.2 — AutoWatchdog generation statistics per target\n"
  ^ Tables.render
      ~header:
        [ "system"; "funcs"; "stmts"; "vulnerable ops"; "retained";
          "checkers"; "reduced stmts"; "reduction"; "analysis time" ]
      (List.map
         (fun (name, (g : Generate.generated), ms) ->
           let s = g.Generate.red.Reduction.stats in
           [
             name;
             string_of_int s.Reduction.total_funcs;
             string_of_int s.Reduction.total_stmts;
             string_of_int s.Reduction.vulnerable_ops;
             string_of_int s.Reduction.retained_ops;
             string_of_int s.Reduction.unit_count;
             string_of_int s.Reduction.reduced_stmts;
             fp "%.1f%%"
               (100.
               *. float_of_int s.Reduction.reduced_stmts
               /. float_of_int (max 1 s.Reduction.total_stmts));
             fp "%.1fms" ms;
           ])
         rows)
  ^ "\npaper: \"tens of checkers\" generated for each of ZooKeeper, Cassandra\n\
     and HDFS; W retains a small fraction of P.\n"

(* ------------------------------------------------------------------ *)
(* E7 — §3.1: concurrent watchdog vs in-place checking overhead.       *)
(* ------------------------------------------------------------------ *)

(* In-place emulation: Generate.attach binds the hooks (its driver never
   starts), and after each delivery the hook's unit runs in the main task
   before the operation proceeds — checking as part of the main execution
   flow (what §3.1 argues against). *)
let attach_inplace g ~sched ~main =
  let module I = Wd_ir.Interp in
  let wctx = Generate.attach g ~sched ~main ~driver:(Driver.create sched) in
  let ci =
    I.create ~mode:I.Checker ~node:(I.node main) ~res:(I.resources main)
      g.Generate.watchdog_prog
  in
  I.set_hook_sink main (fun hook_id spec ->
      Option.map
        (fun c vals ->
          Wd_watchdog.Wcontext.deliver c ~now:(Wd_sim.Sched.now sched) vals;
          match Wd_watchdog.Wcontext.args wctx spec.I.hook_checker with
          | Some args -> (
              try ignore (I.call ci spec.I.hook_checker args) with _ -> ())
          | None -> ())
        (Wd_watchdog.Wcontext.capture wctx ~hook_id ~vars:spec.I.hook_vars))

(* One table row: the mode and its client-side measurements. *)
let e7_row mode_name =
  let sched = Wd_sim.Sched.create ~seed:11 () in
  let reg = Wd_env.Faultreg.create () in
  let prog = Wd_targets.Kvs.program () in
  let g = Generate.analyze prog in
  let run_prog =
    if mode_name = "no checking" then prog
    else g.Generate.red.Reduction.instrumented
  in
  let t = Wd_targets.Kvs.boot ~sched ~reg ~prog:run_prog () in
  let driver = Driver.create sched in
  (if mode_name = "concurrent watchdog" then
     ignore (Generate.attach g ~sched ~main:t.Wd_targets.Kvs.leader ~driver)
   else if mode_name = "in-place checks" then
     attach_inplace g ~sched ~main:t.Wd_targets.Kvs.leader);
  let wstats = Wd_targets.Workload.create_stats () in
  ignore
    (Wd_targets.Workload.spawn ~name:"bench-client" ~sched
       ~period:(Wd_sim.Time.ms 10)
       ~op:(fun i ->
         let key = Fmt.str "k%03d" (i mod 100) in
         if i mod 3 = 1 then Wd_targets.Kvs.get t ~key
         else Wd_targets.Kvs.set t ~key ~value:(Fmt.str "value-%d" i))
       wstats);
  ignore (Wd_targets.Kvs.start t);
  Driver.start driver;
  ignore (Wd_sim.Sched.run ~until:(Wd_sim.Time.sec 30) sched);
  [
    mode_name;
    string_of_int wstats.Wd_targets.Workload.issued;
    fp "%.3f" (Wd_targets.Workload.success_ratio wstats);
    Wd_sim.Time.to_string (Wd_targets.Workload.mean_latency wstats);
    Wd_sim.Time.to_string (Wd_targets.Workload.percentile wstats 0.99);
  ]

let e7_text () =
  let rows =
    par_map e7_row [ "no checking"; "concurrent watchdog"; "in-place checks" ]
  in
  "E7 / §3.1 — checking overhead on the fault-free main program (kvs,\n\
   30 simulated seconds, closed-loop client)\n"
  ^ Tables.render
      ~header:[ "mode"; "client ops"; "ok ratio"; "mean latency"; "p99 latency" ]
      rows
  ^ "\nConcurrent checkers decouple checking from the request path; in-place\n\
     checking re-executes the reduced operations inside the serving thread\n\
     and inflates client latency — the motivation for concurrent execution.\n"

(* ------------------------------------------------------------------ *)
(* E8 — §3.1: context synchronisation prevents spurious alarms.        *)
(* ------------------------------------------------------------------ *)

type e8_row = { e8_mode : string; e8_false_alarms : int; e8_skips : int }

let e8_run () =
  par_map
    (fun (label, mode) ->
      let cfg =
        { Campaign.default_config with Campaign.mode }
      in
      let ff = Campaign.run_fault_free ~cfg ~special:"in_memory" "kvs" in
      (* skips: count via a fresh raw run's driver stats *)
      let booted, _ =
        Campaign.run_raw cfg ~system:"kvs"
          ~scenario:
            (Some
               {
                 Catalog.sid = "none";
                 description = "";
                 system = "kvs";
                 fclass = Catalog.Transient_error;
                 faults = [];
                 special = Some "in_memory";
                 truth_func = None;
                 expected = Catalog.exp ();
               })
          ()
      in
      let skips =
        List.fold_left
          (fun n (s : Driver.checker_stats) -> n + s.Driver.cs_skips)
          0
          (Driver.stats booted.Systems.b_driver)
      in
      {
        e8_mode = label;
        e8_false_alarms = List.assoc "mimic" ff.Campaign.ff_fp;
        e8_skips = skips;
      })
    [
      ("context-synchronised (generated)", Systems.Wd_generated);
      ("no context sync (naive mimic)", Systems.Wd_no_context);
    ]

let e8_text () =
  let rows = e8_run () in
  "E8 / §3.1 — state synchronisation, kvs configured in-memory (no disk\n\
   activity from the main program; fault-free)\n"
  ^ Tables.render
      ~header:[ "watchdog construction"; "false alarms"; "not-ready skips" ]
      (List.map
         (fun r ->
           [ r.e8_mode; string_of_int r.e8_false_alarms; string_of_int r.e8_skips ])
         rows)
  ^ "\nWith one-way context sync, checkers whose code paths the main program\n\
     never exercises stay NOT_READY and are skipped (Figure 3's\n\
     \"checker context not ready\"); a naive mimic checker with pre-supplied\n\
     paths raises spurious disk errors, the paper's in-memory kvs example.\n"

(* ------------------------------------------------------------------ *)
(* E9 — §3.3: memory-pressure detection via fate-sharing signals.      *)
(* ------------------------------------------------------------------ *)

let e9_run () = Campaign.run_scenario "kvs-mem-leak"

let e9_text () =
  let r = e9_run () in
  let o k = List.assoc k r.Campaign.r_outcomes in
  "E9 / §3.3 — leaking kvs: sleep-overshoot signal checker and mimic\n\
   allocation checker share the allocator's fate\n"
  ^ Tables.render ~header:[ "detector"; "detected"; "latency" ]
      (List.map
         (fun k ->
           [
             k;
             Tables.bool_cell (o k).Campaign.o_detected;
             Tables.latency_cell (o k).Campaign.o_latency;
           ])
         [ "mimic"; "signal"; "probe"; "heartbeat" ])
  ^ "\nThe leak slows allocations gradually: the GC-pause-style overshoot\n\
     signal and the mimicked allocation notice; heartbeats never do.\n"

(* ------------------------------------------------------------------ *)
(* E10 — §3.2/§5: isolation of the watchdog from the main program.     *)
(* ------------------------------------------------------------------ *)

type e10_result = {
  e10_scratch_disjoint : bool;   (* checker writes stayed in __wd/ *)
  e10_driver_survives : bool;    (* a crashing checker doesn't kill others *)
  e10_main_unperturbed : bool;   (* client success unaffected by watchdog *)
  e10_crashing_runs : int;
}

let e10_run () =
  let sched = Wd_sim.Sched.create ~seed:5 () in
  let b =
    Systems.boot ~sched ~reg:(Wd_env.Faultreg.create ())
      ~mode:Systems.Wd_generated "kvs"
  in
  let driver = b.Systems.b_driver in
  (* A deliberately buggy checker: crashes on every execution. *)
  let crashes = ref 0 in
  Driver.add_checker driver
    (Wd_watchdog.Checker.make ~id:"buggy-checker" ~period:(Wd_sim.Time.ms 500)
       (fun ~now:_ ->
         incr crashes;
         failwith "checker bug: wild failure"));
  ignore (Wd_sim.Sched.run ~until:(Wd_sim.Time.sec 20) sched);
  let paths =
    Wd_env.Disk.paths (Wd_ir.Runtime.disk b.Systems.b_res "kvs.disk")
  in
  let main_paths, scratch_paths =
    List.partition
      (fun p -> not (String.length p >= 5 && String.sub p 0 5 = "__wd/"))
      paths
  in
  (* every main path must be reproducible from main-program activity: no
     checker-produced garbage outside the scratch namespace *)
  let scratch_disjoint =
    List.for_all
      (fun p ->
        List.exists
          (fun prefix ->
            String.length p >= String.length prefix
            && String.sub p 0 (String.length prefix) = prefix)
          [ "wal/"; "seg/"; "compact/"; "snapshot/" ])
      main_paths
    && scratch_paths <> []
  in
  let other_execs =
    List.fold_left
      (fun n (s : Driver.checker_stats) ->
        if s.Driver.cs_id <> "buggy-checker" then n + s.Driver.cs_executions else n)
      0 (Driver.stats driver)
  in
  {
    e10_scratch_disjoint = scratch_disjoint;
    e10_driver_survives = !crashes > 10 && other_execs > 0;
    e10_main_unperturbed =
      Wd_targets.Workload.success_ratio b.Systems.b_workload > 0.99;
    e10_crashing_runs = !crashes;
  }

let e10_text () =
  let r = e10_run () in
  "E10 / §3.2 — isolation properties\n"
  ^ Tables.render ~header:[ "property"; "holds" ]
      [
        [ "checker I/O confined to scratch namespace (__wd/)";
          Tables.bool_cell r.e10_scratch_disjoint ];
        [ fp "driver survives a checker crashing %d times" r.e10_crashing_runs;
          Tables.bool_cell r.e10_driver_survives ];
        [ "client success ratio unaffected by watchdog";
          Tables.bool_cell r.e10_main_unperturbed ];
      ]
  ^ "\nContext replication + I/O redirection (write scratch, shadow inboxes,\n\
     try-lock-and-release) keep checking side-effect free; the driver\n\
     confines each checker run to a disposable task.\n"

(* ------------------------------------------------------------------ *)
(* E11 — §5.2: cheap recovery by microreboot.                          *)
(* ------------------------------------------------------------------ *)

(* One table row: writes during and after the fault, when service came
   back (first success after the fault lifts) and the microreboot count. *)
let e11_row ~with_recovery =
  let sched = Wd_sim.Sched.create ~seed:31 () in
  let reg = Wd_env.Faultreg.create () in
  let prog = Wd_targets.Kvs.program () in
  let g = Generate.analyze prog in
  let t =
    Wd_targets.Kvs.boot ~sched ~reg
      ~prog:g.Generate.red.Reduction.instrumented ()
  in
  let driver = Driver.create sched in
  ignore (Generate.attach g ~sched ~main:t.Wd_targets.Kvs.leader ~driver);
  let tasks = Wd_targets.Kvs.start t in
  let recovery =
    Wd_watchdog.Recovery.create ~backoff:(Wd_sim.Time.sec 3) sched
  in
  if with_recovery then begin
    Generate.register_components recovery g ~sched
      ~main:t.Wd_targets.Kvs.leader
      ~entries:Wd_targets.Kvs.leader_entries ~tasks;
    Driver.on_report driver (Wd_watchdog.Recovery.action recovery);
    ignore (Wd_watchdog.Recovery.supervise recovery)
  end;
  Driver.start driver;
  let fault_start = Wd_sim.Time.sec 8 and fault_stop = Wd_sim.Time.sec 18 in
  let ok_log = ref [] in
  ignore
    (Wd_sim.Sched.spawn ~name:"client" ~daemon:true sched (fun () ->
         let i = ref 0 in
         while true do
           Wd_sim.Sched.sleep (Wd_sim.Time.ms 100);
           incr i;
           match
             Wd_targets.Kvs.set ~timeout:(Wd_sim.Time.ms 800) t
               ~key:(Fmt.str "k%d" (!i mod 20)) ~value:"v"
           with
           | `Ok _ -> ok_log := Wd_sim.Sched.now sched :: !ok_log
           | `Timeout | `Err _ -> ()
         done));
  ignore (Wd_sim.Sched.run ~until:fault_start sched);
  Wd_env.Faultreg.inject reg
    {
      Wd_env.Faultreg.id = "wal-eio";
      site_pattern = "disk:kvs.disk:append:wal/*";
      behaviour = Wd_env.Faultreg.Error "EIO";
      start_at = fault_start;
      stop_at = fault_stop;
      once = false;
    };
  ignore (Wd_sim.Sched.run ~until:(Wd_sim.Time.sec 40) sched);
  let oks = List.rev !ok_log in
  let count_in lo hi = List.length (List.filter (fun at -> at >= lo && at < hi) oks) in
  let restored =
    List.find_opt (fun at -> at >= fault_stop) oks
    |> Option.map (fun at -> Int64.sub at fault_stop)
  in
  [
    (if with_recovery then "watchdog + microreboot" else "no recovery");
    string_of_int (count_in fault_start fault_stop);
    string_of_int (count_in fault_stop (Wd_sim.Time.sec 40));
    (match restored with
    | Some d -> Wd_sim.Time.to_string d ^ " after fault end"
    | None -> "never");
    string_of_int (List.length (Wd_watchdog.Recovery.events recovery));
  ]

let e11_text () =
  let rows =
    par_map (fun with_recovery -> e11_row ~with_recovery) [ false; true ]
  in
  "E11 / §5.2 — cheap recovery: a transient WAL fault (10 s of EIO) kills
   the kvs listener thread; microreboot driven by watchdog localisation
   restores service once the fault lifts
"
  ^ Tables.render
      ~header:
        [ "mode"; "writes ok during fault"; "writes ok after fault";
          "service restored"; "microreboots" ]
      rows
  ^ "
Without recovery the dead listener leaves the store unavailable
     forever; with localised microreboots the service returns seconds after
     the environment heals.
"

(* ------------------------------------------------------------------ *)
(* E12 — §5.2: failure reproduction from the captured context.         *)
(* ------------------------------------------------------------------ *)

let e12_text () =
  let scenario = Catalog.find "kvs-seg-corrupt" in
  let cfg = Campaign.default_config in
  let booted, inject_at =
    Campaign.run_raw cfg ~system:"kvs" ~scenario:(Some scenario) ()
  in
  let g = booted.Systems.b_generated in
  let report =
    List.find
      (fun (r : Report.t) ->
        r.Report.at >= inject_at
        && Campaign.classify_checker r.Report.checker_id = `Mimic
        && r.Report.payload <> [])
      (Driver.reports booted.Systems.b_driver)
  in
  let fault =
    {
      Wd_env.Faultreg.id = "repro-corrupt";
      site_pattern = "disk:kvs.disk:write:*";
      behaviour = Wd_env.Faultreg.Corrupt;
      start_at = 0L;
      stop_at = Wd_sim.Time.never;
      once = false;
    }
  in
  let o = Fmt.str "%a" Wd_autowatchdog.Reproduce.pp_outcome in
  "E12 / §5.2 — failure reproduction: replay the checker and its captured
   payload in a fresh, sealed simulation

"
  ^ "production report:
  " ^ Fmt.str "%a" Report.pp report ^ "

"
  ^ Tables.render ~header:[ "replay environment"; "outcome" ]
      [
        [ "clean (no fault)"; o (Wd_autowatchdog.Reproduce.run g ~report) ];
        [
          "with the disk-corruption fault re-injected";
          o (Wd_autowatchdog.Reproduce.run ~fault g ~report);
        ];
      ]
  ^ "
The clean replay passing isolates the cause to the environment; the
     faulty replay reproducing the exact signature confirms the diagnosis —
     postmortem analysis without touching production.
"

(* ------------------------------------------------------------------ *)
(* E13 — Table 2's accuracy column, stressed: overload without fault.  *)
(* ------------------------------------------------------------------ *)

let e13_text () =
  let ff =
    Campaign.run_fault_free
      ~cfg:{ Campaign.default_config with Campaign.observe = Wd_sim.Time.sec 30 }
      ~special:"burst" "kvs"
  in
  "E13 / Table 2 accuracy under stress — kvs saturated by a legitimate
   burst workload, no fault injected; every alarm is a false positive
"
  ^ Tables.render ~header:[ "checker type"; "false alarms under overload" ]
      (List.map
         (fun fam -> [ fam; string_of_int (List.assoc fam ff.Campaign.ff_fp) ])
         [ "mimic"; "probe"; "signal" ])
  ^ "\nThe paper's example: when the checker finds kvs's request queue full,\n\
     kvs might in fact be processing a continuous stream of requests\n\
     without error — signal checkers bark at load, mimic checkers measure\n\
     the operations themselves and stay quiet.\n"

(* ------------------------------------------------------------------ *)
(* E14 — §4.1 ablations: similar-op dedup and global reduction.        *)
(* ------------------------------------------------------------------ *)

let e14_options =
  [
    ("full reduction", Wd_analysis.Reduction.default_options);
    ( "no similar-op dedup",
      { Wd_analysis.Reduction.default_options with
        Wd_analysis.Reduction.dedup_similar = false } );
    ( "no global reduction",
      { Wd_analysis.Reduction.default_options with
        Wd_analysis.Reduction.global_reduction = false } );
    ( "neither",
      { Wd_analysis.Reduction.dedup_similar = false; global_reduction = false } );
  ]

let e14_run () =
  par_map
    (fun (label, opts) ->
      let per_target =
        List.map
          (fun (name, prog) ->
            let config =
              { Wd_autowatchdog.Config.default with Wd_autowatchdog.Config.opts }
            in
            let g = Generate.analyze ~config prog in
            (name, g.Generate.red.Reduction.stats))
          (target_programs ())
      in
      (label, per_target))
    e14_options

let e14_text () =
  let rows = e14_run () in
  "E14 / §4.1 — reduction-step ablations across all five targets\n\
   (every retained op is executed by a checker once per period: retained\n\
   ops are runtime checking load, for the same operation-family coverage)\n"
  ^ Tables.render
      ~header:
        [ "reduction variant"; "checkers"; "retained ops"; "reduced stmts" ]
      (* totals over all five targets *)
      (List.map
         (fun (label, per_target) ->
           let sum f = List.fold_left (fun n (_, s) -> n + f s) 0 per_target in
           [
             label;
             string_of_int (sum (fun s -> s.Reduction.unit_count));
             string_of_int (sum (fun s -> s.Reduction.retained_ops));
             string_of_int (sum (fun s -> s.Reduction.reduced_stmts));
           ])
         rows)
  ^ "\nRemoving similar vulnerable operations and reducing along call chains\n\
     are what keep W small; disabling them multiplies checkers (and their\n\
     execution cost) without adding coverage of new operation families.\n"

(* ------------------------------------------------------------------ *)
(* E15 — parameter sweep: checker period and lock budget vs detection   *)
(* latency on the ZK-2201 hang.                                        *)
(* ------------------------------------------------------------------ *)

(* One table row: a (period, lock budget) point, its detection latency on
   the fault and its false alarms on a fault-free twin. *)
let e15_row (period, lock_timeout) =
  let config =
    {
      Wd_autowatchdog.Config.default with
      Wd_autowatchdog.Config.checker_period = period;
      lock_timeout;
      (* the checker timeout must dominate the lock budget *)
      checker_timeout = Int64.add lock_timeout (Wd_sim.Time.sec 2);
    }
  in
  let run_one ~with_fault =
    let sched = Wd_sim.Sched.create ~seed:71 () in
    let reg = Wd_env.Faultreg.create () in
    let prog = Wd_targets.Zkmini.program () in
    let g = Generate.analyze ~config prog in
    let t =
      Wd_targets.Zkmini.boot ~sched ~reg
        ~prog:g.Generate.red.Reduction.instrumented ()
    in
    let driver = Driver.create sched in
    ignore (Generate.attach g ~sched ~main:t.Wd_targets.Zkmini.leader ~driver);
    let wstats = Wd_targets.Workload.create_stats () in
    ignore
      (Wd_targets.Workload.spawn ~name:"client" ~sched ~period:(Wd_sim.Time.ms 80)
         ~op:(fun i ->
           Wd_targets.Zkmini.create t ~path:(Fmt.str "/n%d" (i mod 30)) ~data:"d")
         wstats);
    ignore (Wd_targets.Zkmini.start t);
    Driver.start driver;
    ignore (Wd_sim.Sched.run ~until:(Wd_sim.Time.sec 8) sched);
    let inject_at = Wd_sim.Sched.now sched in
    if with_fault then
      ignore (Catalog.inject reg (Catalog.find "zk-2201") ~at:inject_at);
    ignore (Wd_sim.Sched.run ~until:(Wd_sim.Time.sec 40) sched);
    let reports = Driver.reports driver in
    if with_fault then
      List.find_opt
        (fun (r : Report.t) ->
          Campaign.classify_checker r.Report.checker_id = `Mimic
          && r.Report.at >= inject_at)
        reports
      |> Option.map (fun (r : Report.t) -> Int64.sub r.Report.at inject_at)
      |> fun latency -> (latency, 0)
    else (None, List.length reports)
  in
  let latency, _ = run_one ~with_fault:true in
  let _, false_alarms = run_one ~with_fault:false in
  [
    Wd_sim.Time.to_string period;
    Wd_sim.Time.to_string lock_timeout;
    Tables.latency_cell latency;
    string_of_int false_alarms;
  ]

let e15_text () =
  let grid =
    List.concat_map
      (fun period ->
        List.map
          (fun lock_timeout -> (period, lock_timeout))
          [ Wd_sim.Time.sec 1; Wd_sim.Time.sec 2; Wd_sim.Time.sec 4 ])
      [ Wd_sim.Time.ms 500; Wd_sim.Time.sec 1; Wd_sim.Time.sec 2; Wd_sim.Time.sec 5 ]
  in
  let rows = par_map e15_row grid in
  "E15 — detection-budget sweep on the ZK-2201 hang: mimic detection\n\
   latency as a function of checker period and lock-acquisition budget\n\
   (fault-free false alarms verify that tighter budgets stay accurate)\n"
  ^ Tables.render
      ~header:
        [ "checker period"; "lock budget"; "detection latency";
          "fault-free false alarms" ]
      rows
  ^ "\nDetection latency is dominated by the lock budget (plus the driver's\n\
     confinement timeout): a checker run is already in flight when the\n\
     fault lands, so the polling period is subdominant whenever it is\n\
     shorter than the budget. Even the tightest setting raises no\n\
     fault-free alarms, because a try-lock failure only counts after the\n\
     full budget elapses.\n"

(* ------------------------------------------------------------------ *)
(* E16 — multi-seed robustness: detection across event interleavings.  *)
(* ------------------------------------------------------------------ *)

let e16_seeds = [ 42; 1001; 7777 ]

let e16_scenarios =
  [ "zk-2201"; "cs-compaction-stuck"; "kvs-flush-hang"; "mq-cleaner-stuck";
    "dfs-block-corrupt"; "kvs-deadlock" ]

let e16_run () =
  par_map
    (fun sid ->
      let stats, exact =
        Metrics.scenario_across_seeds ~seeds:e16_seeds ~detector:"mimic" sid
      in
      (sid, stats, exact))
    e16_scenarios

let e16_text () =
  let rows = e16_run () in
  fp
    "E16 — multi-seed robustness: mimic detection across %d independent\n\
     event interleavings per scenario (the simulator is deterministic per\n\
     seed, so spread measures workload-phase sensitivity, not flakiness)\n"
    (List.length e16_seeds)
  ^ Tables.render
      ~header:[ "scenario"; "mimic detection across seeds"; "exact pinpoints" ]
      (List.map
         (fun (sid, stats, exact) ->
           [
             sid;
             fp "%a" Metrics.pp_latency_stats stats;
             fp "%d/%d" exact stats.Metrics.ls_total;
           ])
         rows)
  ^ "\nDetection and localisation hold across interleavings; latency spread\n\
     stays within one checker period plus the relevant budget.\n"

(* ------------------------------------------------------------------ *)
(* E17 — fleet plane: multi-node clusters with cross-node correlation. *)
(* ------------------------------------------------------------------ *)

let e17_systems = [ Wd_cluster.Topology.Zkmini; Wd_cluster.Topology.Cstore ]
let e17_seeds () = [ base_seed (); base_seed () + 101 ]

(* the original four-scenario oracle grid plus the transient link flap —
   the flap is a quiet cell: suspicion must not indict across one bounded
   drop window (leader-limplock failover is E18's, not a grid cell here) *)
let e17_scenarios () =
  Wd_faults.Cluster_catalog.all
  @ [ Wd_faults.Cluster_catalog.find "fleet-link-flap" ]

let e17_cells () =
  List.concat_map
    (fun sys ->
      List.concat_map
        (fun (s : Wd_faults.Cluster_catalog.cscenario) ->
          List.map
            (fun seed -> (sys, s.Wd_faults.Cluster_catalog.csid, seed))
            (e17_seeds ()))
        (e17_scenarios ()))
    e17_systems

let e17_run () =
  par_map
    (fun (sys, csid, seed) ->
      Wd_cluster.Sim.run
        ~cfg:
          {
            Wd_cluster.Sim.default_config with
            seed;
            topology = Wd_cluster.Topology.uniform ~nodes:5 sys;
          }
        csid)
    (e17_cells ())

let e17_verdict_cell (r : Wd_cluster.Sim.result) =
  match r.Wd_cluster.Sim.cr_events with
  | [] -> "-"
  | (_, e) :: _ -> (
      match e.Wd_cluster.Fleet.ev_verdict with
      | Wd_cluster.Fleet.Node_gray { node; component } ->
          fp "node %s (%s)" node (Option.value component ~default:"?")
      | Wd_cluster.Fleet.Link_fault { links } ->
          fp "links %s"
            (String.concat "," (List.map (fun (a, b) -> a ^ "-" ^ b) links))
      | Wd_cluster.Fleet.Overload -> "overload")

(* which node's engine recorded the first verdict — with a healthy leader
   always n0; under failover the successor *)
let e17_leader_cell (r : Wd_cluster.Sim.result) =
  match r.Wd_cluster.Sim.cr_events with [] -> "-" | (owner, _) :: _ -> owner

(* The graded summary under a fleet table (E17, E19): the three row
   labels say which cells count as faulty, node and quiet. *)
let fleet_footer ~faulty ~node ~quiet rows =
  let s = Metrics.fleet_summary rows in
  fp
    "\n\
     indictment accuracy:  %d/%d %s\n\
     component accuracy:   %d/%d %s\n\
     false indictments:    %d/%d %s\n\
     detection latency:    %a\n\
     fleet MTTR:           %a\n\
     evidence by family:   %a\n"
    s.Metrics.fs_right s.Metrics.fs_faulty faulty s.Metrics.fs_component_right
    s.Metrics.fs_node_cells node s.Metrics.fs_false_indict s.Metrics.fs_quiet
    quiet Metrics.pp_latency_stats s.Metrics.fs_latency
    Metrics.pp_latency_stats s.Metrics.fs_mttr Metrics.pp_family_stats
    s.Metrics.fs_families

let e17_text () =
  let rows = e17_run () in
  fp
    "E17 — fleet-level watchdogs, decentralized: %d-node clusters, each\n\
     node running its own generated watchdog plus a leader-elected fleet\n\
     engine; reports travel as wire-encoded fabric messages, accusations\n\
     and report digests piggyback on heartbeat gossip, and correlation\n\
     runs only on the elected leader (seeds %s; identical tables at any\n\
     --jobs width)\n"
    (Wd_cluster.Topology.nodes
       Wd_cluster.Sim.default_config.Wd_cluster.Sim.topology)
    (String.concat "," (List.map string_of_int (e17_seeds ())))
  ^ Tables.render
      ~header:
        [ "system"; "scenario"; "seed"; "fleet verdict"; "by"; "latency"; "ok" ]
      (List.map
         (fun (r : Wd_cluster.Sim.result) ->
           [
             r.Wd_cluster.Sim.cr_system;
             r.Wd_cluster.Sim.cr_csid;
             string_of_int r.Wd_cluster.Sim.cr_seed;
             e17_verdict_cell r;
             e17_leader_cell r;
             Tables.latency_cell r.Wd_cluster.Sim.cr_first_latency;
             Tables.mark_cell r.Wd_cluster.Sim.cr_as_expected;
           ])
         rows)
  ^ fleet_footer ~faulty:"faulty cells indict the right target"
      ~node:"node indictments name a true component"
      ~quiet:"quiet cells (overload, fault-free, flap)" rows
  ^ "\n\
     Limplock indicts the limping node and its component, and the leader's\n\
     Recover command microreboots it (MTTR above); the asymmetric cut\n\
     indicts the link with no node falsely accused; fleet-wide overload,\n\
     fault-free runs and a bounded link flap indict nothing.\n"

(* ------------------------------------------------------------------ *)
(* E18 — leader failover: the verdict plane survives its own aggregator \
   going gray, and the verdict drives recovery plus cross-node repro.  *)
(* ------------------------------------------------------------------ *)

type e18_cell = {
  e18_system : string;
  e18_seed : int;
  e18_res : Wd_cluster.Sim.result;
  e18_successor : string option; (* which engine recorded the indictment *)
  e18_failover : int64 option; (* injection -> fleet agrees on successor *)
  e18_victim_recovered : bool; (* microreboot landed on the old leader *)
  e18_repro : Wd_autowatchdog.Reproduce.outcome option;
      (* shipped evidence bytes replayed under the re-injected fault *)
}

let e18_victim = Wd_cluster.Fabric.node_name 0

(* replay environment for the shipped evidence: the same slow-disk fault
   the scenario injected, against a tight latency budget, so the captured
   mimic payload reproduces the liveness violation *)
let e18_repro_fault =
  {
    Wd_env.Faultreg.id = "repro-limplock";
    site_pattern = "disk:*";
    behaviour = Wd_env.Faultreg.Slow_factor 2000.;
    start_at = 0L;
    stop_at = Wd_sim.Time.never;
    once = false;
  }

(* the replay's latency budget: a slow-class violation reproduces as a
   liveness failure when the degraded op (100-500ms under the 2000x fault)
   blows a budget the clean op (<1ms) meets comfortably *)
let e18_repro_timeout = Wd_sim.Time.ms 100

let e18_repro ~system wire =
  let g = Generate.analyze_cached (Wd_targets.Target.program system) in
  Wd_autowatchdog.Reproduce.run_wire ~fault:e18_repro_fault
    ~timeout:e18_repro_timeout g ~wire

let e18_run () =
  let cells =
    List.concat_map
      (fun sys -> List.map (fun seed -> (sys, seed)) (e17_seeds ()))
      e17_systems
  in
  par_map
    (fun (sys, seed) ->
      let r =
        Wd_cluster.Sim.run
          ~cfg:
            {
              Wd_cluster.Sim.default_config with
              seed;
              topology = Wd_cluster.Topology.uniform ~nodes:5 sys;
            }
          "fleet-leader-limplock"
      in
      let successor =
        List.find_map
          (fun (owner, (e : Wd_cluster.Fleet.event)) ->
            match e.Wd_cluster.Fleet.ev_verdict with
            | Wd_cluster.Fleet.Node_gray _ -> Some owner
            | _ -> None)
          r.Wd_cluster.Sim.cr_events
      in
      let failover =
        match r.Wd_cluster.Sim.cr_converged_at with
        | Some at when at > r.Wd_cluster.Sim.cr_inject_at ->
            Some (Int64.sub at r.Wd_cluster.Sim.cr_inject_at)
        | Some _ | None -> None
      in
      (* the victim is node 0: replay its shipped evidence against *its*
         system's program, read off the per-node system list *)
      let victim_system =
        match r.Wd_cluster.Sim.cr_node_systems with s :: _ -> s | [] -> "?"
      in
      {
        e18_system = Wd_cluster.Topology.system_name sys;
        e18_seed = seed;
        e18_res = r;
        e18_successor = successor;
        e18_failover = failover;
        e18_victim_recovered =
          List.exists
            (fun (node, _) -> node = e18_victim)
            r.Wd_cluster.Sim.cr_recoveries;
        e18_repro =
          Option.map
            (e18_repro ~system:victim_system)
            r.Wd_cluster.Sim.cr_evidence_wire;
      })
    cells

let e18_text () =
  let rows = e18_run () in
  let opt_lat = Tables.latency_cell in
  fp
    "E18 — leader failover: the elected leader (n0) itself goes gray\n\
     (disks 2000x slower, gossip still flowing). Peers' deep probes\n\
     disqualify it, a successor wins the bully election, rebuilds its\n\
     inboxes from re-shipped wire reports, indicts the old leader, and\n\
     sends a Recover command whose evidence bytes seed a cross-node repro\n\
     (seeds %s; deterministic per seed)\n"
    (String.concat "," (List.map string_of_int (e17_seeds ())))
  ^ Tables.render
      ~header:
        [
          "system"; "seed"; "successor"; "failover"; "indicted"; "detect";
          "MTTR"; "repro";
        ]
      (List.map
         (fun c ->
           let r = c.e18_res in
           [
             c.e18_system;
             string_of_int c.e18_seed;
             Option.value c.e18_successor ~default:"-";
             opt_lat c.e18_failover;
             String.concat "," r.Wd_cluster.Sim.cr_indicted_nodes;
             opt_lat r.Wd_cluster.Sim.cr_first_latency;
             opt_lat r.Wd_cluster.Sim.cr_first_recovery_latency;
             (match c.e18_repro with
             | Some o -> fp "%a" Wd_autowatchdog.Reproduce.pp_outcome o
             | None -> "-");
           ])
         rows)
  ^ "\n\
     The verdict survives the death of the component that computes it: a\n\
     successor (never n0) records the same indictment the centralized\n\
     plane would have, the victim microreboots on command, and the shipped\n\
     mimic context replays to the same violation on a node that never saw\n\
     the failure.\n"

(* ------------------------------------------------------------------ *)
(* E19 — heterogeneous fleets over an asymmetric fabric: correlated    \
   failures must respect the verdict rules' priority order.            *)
(* ------------------------------------------------------------------ *)

(* Two racks, mixed zkmini/cstore slots, asymmetric links (slow crossing
   towards the remote rack, bandwidth-bounded return path). The correlated
   scenarios each super-impose a fabric fault on a limplocked node; a
   correct plane still pins the node — the mimic evidence outranks every
   link signal — and fault-free stays quiet even though the asymmetric
   links alone make probes limp. *)
let e19_topologies () =
  [ Wd_cluster.Topology.hetero9 (); Wd_cluster.Topology.hetero15 () ]

let e19_scenarios =
  [ "fleet-limplock-partition"; "fleet-slow-link-gray"; "fleet-fault-free" ]

let e19_cells () =
  List.concat_map
    (fun topology -> List.map (fun csid -> (topology, csid)) e19_scenarios)
    (e19_topologies ())

let e19_run () =
  par_map
    (fun (topology, csid) ->
      Wd_cluster.Sim.run
        ~cfg:
          {
            Wd_cluster.Sim.default_config with
            seed = base_seed ();
            topology;
          }
        csid)
    (e19_cells ())

let e19_victim_cell (r : Wd_cluster.Sim.result) =
  match r.Wd_cluster.Sim.cr_indicted_nodes with
  | [] -> "-"
  | ns ->
      String.concat ","
        (List.map
           (fun n ->
             (* name the indicted node's system so mixed-fleet rows show
                which target the verdict localised into *)
             let idx =
               int_of_string
                 (String.sub n 1 (String.length n - 1))
             in
             match List.nth_opt r.Wd_cluster.Sim.cr_node_systems idx with
             | Some sys -> fp "%s(%s)" n sys
             | None -> n)
           ns)

let e19_text () =
  let rows = e19_run () in
  fp
    "E19 — heterogeneous fleets over an asymmetric fabric: 9- and 15-node\n\
     mixed zkmini/cstore topologies, remote rack behind 4 ms crossings and\n\
     a 256 KiB/s return pipe. Correlated scenarios super-impose fabric\n\
     faults on a limplocked node; verdict priority must still pin the node\n\
     (seed %d; identical tables at any --jobs width)\n"
    (base_seed ())
  ^ Tables.render
      ~header:
        [
          "topology"; "nodes"; "scenario"; "fleet verdict"; "indicted"; "by";
          "latency"; "MTTR"; "ok";
        ]
      (List.map
         (fun (r : Wd_cluster.Sim.result) ->
           [
             r.Wd_cluster.Sim.cr_system;
             string_of_int r.Wd_cluster.Sim.cr_nodes;
             r.Wd_cluster.Sim.cr_csid;
             e17_verdict_cell r;
             e19_victim_cell r;
             e17_leader_cell r;
             Tables.latency_cell r.Wd_cluster.Sim.cr_first_latency;
             Tables.latency_cell r.Wd_cluster.Sim.cr_first_recovery_latency;
             Tables.mark_cell r.Wd_cluster.Sim.cr_as_expected;
           ])
         rows)
  ^ fleet_footer ~faulty:"correlated cells indict the limping node"
      ~node:"indictments name a true component"
      ~quiet:"quiet cells on the asymmetric fabric" rows
  ^ "\n\
     A partial partition or a limping link never shifts blame off the gray\n\
     node: mimic evidence outranks link signals in the rule order, and the\n\
     victim's own system (zkmini or cstore, depending on the slot) names\n\
     the component. The asymmetric fabric alone indicts nothing.\n"

(* ------------------------------------------------------------------ *)
(* E20 — randomized fault-space sweep: thousands of generated worlds
   (scenario x mode x seed x windows, fault-free probes, generated fleet
   topologies) graded against per-world oracles. The heavy lifting lives in
   [Sweep]; this wrapper threads the harness-wide jobs/seed overrides and
   renders the aggregate. *)

let e20_text worlds =
  let summary, outcomes =
    Sweep.run ~jobs:(jobs ()) ~seed:(base_seed ()) ~worlds ()
  in
  let misses =
    List.filter (fun (o : Sweep.outcome) -> not o.Sweep.o_ok) outcomes
  in
  let b = Buffer.create 1024 in
  let fp fmt = Fmt.kstr (Buffer.add_string b) fmt in
  fp "E20: randomized fault-space sweep (%d worlds)\n\n" summary.Sweep.s_worlds;
  fp "%a\n" Sweep.pp_summary summary;
  if misses <> [] then begin
    fp "\nworlds missing their oracle (%d):\n" (List.length misses);
    List.iteri
      (fun i (o : Sweep.outcome) ->
        if i < 12 then
          fp "  %s  (expect_detect=%b detected=%b false_alarms=%d)\n"
            o.Sweep.o_world o.Sweep.o_expect_detect o.Sweep.o_detected
            o.Sweep.o_false_alarms)
      misses;
    if List.length misses > 12 then
      fp "  ... and %d more\n" (List.length misses - 12)
  end;
  fp "\nEvery world is generated from the base seed alone and graded\n";
  fp "against its own oracle; rerun with --jobs N to confirm the digest\n";
  fp "is width-independent, or --seed S to sample a different slice of\n";
  fp "the fault space.\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* E21 — checker-generation race: the static-analysis (mimic) watchdog
   generation vs the trace-inferred generation, raced across the full
   failure catalog in three deployments — mimic-only, inferred-only,
   combined. Graded per checker family on coverage, median detection
   latency and fault-free false positives; runtime overhead is the
   deterministic sim-event surplus of each deployment over a bare
   (Wd_none, no inferred) baseline on the same fault-free worlds. *)

type e21_family = {
  e21f_family : string;
  e21f_detected : int;
  e21f_total : int;
  e21f_latency : Metrics.latency_stats;
  e21f_fp : int;
}

type e21_deploy = {
  e21d_label : string;
  e21d_any : int;  (** scenarios where any family detected *)
  e21d_total : int;
  e21d_families : e21_family list;
  e21d_fp : int;  (** all families, all fault-free runs *)
  e21d_checkers : int;  (** checker count summed over fault-free runs *)
  e21d_overhead_pct : float;  (** vs the bare baseline on the same worlds *)
}

type e21_result = {
  e21_mined_runs : int;
  e21_mined_events : int;
  e21_model_digest : string;
  e21_invariants : (string * int) list;  (** per system *)
  e21_deploys : e21_deploy list;
}

let e21_mine () = Inference.mine_and_synth ~jobs:(jobs ()) ()

(* label, watchdog mode, attach the inferred generation *)
let e21_deploy_specs =
  [
    ("mimic-only", Systems.Wd_generated, false);
    ("inferred-only", Systems.Wd_none, true);
    ("combined", Systems.Wd_generated, true);
  ]

let e21_run () =
  let mined = e21_mine () in
  let cfg_for mode with_infer system =
    {
      Campaign.default_config with
      Campaign.mode;
      infer =
        (if with_infer then Inference.model_for mined system else None);
    }
  in
  (* bare baseline: no mimic generation, no inferred generation — just the
     extrinsic families every boot carries. Its fault-free sim-event count
     anchors the overhead column. *)
  let base_events =
    List.fold_left
      (fun n (ff : Campaign.fault_free) -> n + ff.Campaign.ff_sim_events)
      0
      (par_map
         (fun sys ->
           Campaign.run_fault_free
             ~cfg:{ Campaign.default_config with Campaign.mode = Systems.Wd_none }
             sys)
         Systems.all_systems)
  in
  let deploys =
    List.map
      (fun (label, mode, with_infer) ->
        let runs =
          Campaign.run_batch ~jobs:(jobs ())
            (List.map
               (fun (s : Catalog.scenario) ->
                 Campaign.cell
                   ~cfg:(cfg_for mode with_infer s.Catalog.system)
                   s.Catalog.sid)
               Catalog.all)
        in
        let ffs =
          par_map
            (fun sys ->
              Campaign.run_fault_free ~cfg:(cfg_for mode with_infer sys) sys)
            Systems.all_systems
        in
        let families =
          List.map
            (fun fam ->
              let outs =
                List.map
                  (fun (r : Campaign.run) ->
                    List.assoc fam r.Campaign.r_outcomes)
                  runs
              in
              let lats =
                List.filter_map
                  (fun (o : Campaign.outcome) ->
                    if o.Campaign.o_detected then o.Campaign.o_latency
                    else None)
                  outs
              in
              {
                e21f_family = fam;
                e21f_detected =
                  List.length
                    (List.filter (fun o -> o.Campaign.o_detected) outs);
                e21f_total = List.length outs;
                e21f_latency =
                  Metrics.latency_stats_of lats ~total:(List.length outs);
                e21f_fp =
                  List.fold_left
                    (fun n (ff : Campaign.fault_free) ->
                      n + List.assoc fam ff.Campaign.ff_fp)
                    0 ffs;
              })
            Campaign.families
        in
        let any =
          List.length
            (List.filter
               (fun (r : Campaign.run) ->
                 List.exists
                   (fun (_, o) -> o.Campaign.o_detected)
                   r.Campaign.r_outcomes)
               runs)
        in
        let sim_events =
          List.fold_left
            (fun n (ff : Campaign.fault_free) -> n + ff.Campaign.ff_sim_events)
            0 ffs
        in
        {
          e21d_label = label;
          e21d_any = any;
          e21d_total = List.length runs;
          e21d_families = families;
          e21d_fp =
            List.fold_left
              (fun n fam -> n + fam.e21f_fp)
              0 families;
          e21d_checkers =
            List.fold_left
              (fun n (ff : Campaign.fault_free) ->
                n + ff.Campaign.ff_checker_count)
              0 ffs;
          e21d_overhead_pct = pct (sim_events - base_events) ~base:base_events;
        })
      e21_deploy_specs
  in
  {
    e21_mined_runs = mined.Inference.md_runs;
    e21_mined_events = mined.Inference.md_events;
    e21_model_digest = mined.Inference.md_digest;
    e21_invariants =
      List.map
        (fun (sys, m) ->
          (sys, List.length m.Wd_infer.Synth.m_invariants))
        mined.Inference.md_models;
    e21_deploys = deploys;
  }

let e21_family_of d fam =
  List.find (fun f -> f.e21f_family = fam) d.e21d_families

let e21_text () =
  let r = e21_run () in
  let cov f = fp "%d/%d" f.e21f_detected f.e21f_total in
  let med (f : e21_family) =
    if f.e21f_latency.Metrics.ls_count = 0 then "-"
    else Wd_sim.Time.to_string f.e21f_latency.Metrics.ls_median
  in
  let race =
    Tables.render
      ~header:
        [
          "deployment"; "mimic"; "inferred"; "any"; "median (mimic)";
          "median (inferred)"; "false alarms"; "checkers"; "overhead";
        ]
      (List.map
         (fun d ->
           let m = e21_family_of d "mimic" and i = e21_family_of d "inferred" in
           [
             d.e21d_label;
             cov m;
             cov i;
             fp "%d/%d" d.e21d_any d.e21d_total;
             med m;
             med i;
             string_of_int d.e21d_fp;
             string_of_int d.e21d_checkers;
             fp "%+.1f%%" d.e21d_overhead_pct;
           ])
         r.e21_deploys)
  in
  let combined =
    List.find (fun d -> d.e21d_label = "combined") r.e21_deploys
  in
  let per_family =
    Tables.render
      ~header:[ "family"; "coverage"; "median latency"; "false alarms" ]
      (List.map
         (fun f -> [ f.e21f_family; cov f; med f; string_of_int f.e21f_fp ])
         combined.e21d_families)
  in
  fp
    "E21 — checker-generation race: mimic (static analysis) vs inferred\n\
     (trace mining) across the full %d-scenario catalog\n\n\
     mined %d fault-free runs (%d op events) -> models %s\n\
     invariants per system: %s\n\n"
    (List.length Catalog.all) r.e21_mined_runs r.e21_mined_events
    r.e21_model_digest
    (String.concat ", "
       (List.map (fun (s, n) -> fp "%s=%d" s n) r.e21_invariants))
  ^ race
  ^ "\nper-family breakdown in the combined deployment:\n"
  ^ per_family
  ^ "\nThe inferred generation is synthesized from nothing but passing-run\n\
     traces — no source analysis — yet alone it covers a majority of the\n\
     catalog with zero fault-free false alarms (liveness invariants catch\n\
     hangs/deadlocks; never-fail invariants catch error signals). The\n\
     mimic generation keeps its pinpointing edge; combined, the two are\n\
     complementary at a few percent extra sim events.\n"

(* ------------------------------------------------------------------ *)
(* E22 — watchdog overhead under heavy traffic. The load plane drives  *)
(* each workload at 10^5..10^6+ requests per deployment and compares   *)
(* watchdog-on / watchdog-off / inferred-on on the same virtual world: *)
(* overhead is sim-event inflation (work the watchdog adds), latency   *)
(* impact is the p50/p99 ratio against the bare run, and detection     *)
(* latency is measured by injecting a catalog fault mid-load.          *)
(* ------------------------------------------------------------------ *)

type e22_row = {
  e22r_deploy : string;  (** "wd-off" | "wd-on" | "inferred-on" *)
  e22r_load : Loadgen.result;
  e22r_sim_events : int;
  e22r_overhead_pct : float;  (** sim-event inflation vs the wd-off row *)
  e22r_p50_x : float;  (** p50 latency ratio vs the wd-off row *)
  e22r_p99_x : float;
  e22r_detect : int64 option;
      (** detection latency under load (separate injected run); [None] for
          deployments with nothing to detect with, or when undetected *)
}

type e22_workload = {
  e22w_label : string;
  e22w_gen : string;  (** generator kind: "closed" | "open" | "fleet" *)
  e22w_requests : int;  (** completed requests, all rows + injected runs *)
  e22w_rows : e22_row list;
}

type e22_result = {
  e22_workloads : e22_workload list;
  e22_total_requests : int;
}

type e22_alloc_row = {
  e22a_deploy : string;
  e22a_requests : int;  (** completed requests actually driven *)
  e22a_words_per_req : float;  (** minor-heap words per completed request *)
  e22a_bytes_per_req : float;
}

(* deployment label, watchdog mode, attach the inferred generation *)
let e22_deploy_specs =
  [
    ("wd-off", Systems.Wd_none, false);
    ("wd-on", Systems.Wd_generated, false);
    ("inferred-on", Systems.Wd_none, true);
  ]

(* Spawn a workload's generator against a booted world and wire its
   in-flight count into the driver's scheduler as the arrival-stream
   pressure probe (a no-op under the default fixed policy). *)
let e22_spawn ~label ~requests ~gen (booted : Systems.booted) =
  let sched = booted.Systems.b_sched and op = booted.Systems.b_client in
  let g =
    match gen with
    | `Closed ->
        Loadgen.spawn_closed ~label ~sched ~clients:32
          ~think:(Wd_sim.Time.us 50) ~requests ~op ()
    | `Open rate ->
        Loadgen.spawn_open ~label ~sched ~rate_rps:rate ~max_inflight:512
          ~requests ~op ()
  in
  Wd_watchdog.Schedule.set_load_probe
    (Driver.schedule booted.Systems.b_driver)
    (fun () -> Loadgen.inflight g);
  g

(* One clean load run: boot, offer [requests], account every arrival.
   [hooks_only] stops the driver right after boot: the instrumented program
   keeps feeding contexts but no checker ever runs — the baseline that
   splits watchdog overhead into context-sync vs checker-scheduling. *)
let e22_perf ?schedule ?(hooks_only = false) ~requests ~gen ~mode ~infer
    system =
  let sched = Wd_sim.Sched.create ~seed:(base_seed ()) () in
  let booted =
    Systems.boot ?schedule ~sched ~reg:(Wd_env.Faultreg.create ()) ~mode
      ?infer system
  in
  if hooks_only then Driver.stop booted.Systems.b_driver;
  let r = Loadgen.drive (e22_spawn ~label:system ~requests ~gen booted) in
  let _, _, events = Wd_sim.Sched.stats sched in
  let driver = booted.Systems.b_driver in
  let runs =
    List.fold_left
      (fun n c -> n + c.Driver.cs_executions)
      0 (Driver.stats driver)
  in
  (r, events, (runs, Wd_watchdog.Schedule.stats (Driver.schedule driver)))

(* Detection latency under load: same boot, same generator, but a catalog
   fault lands after a 2s ramp while clients keep hammering; latency is the
   first driver report at or after the injection instant. *)
let e22_detect ?schedule ~requests ~gen ~mode ~infer ~sid system =
  let sched = Wd_sim.Sched.create ~seed:(base_seed ()) () in
  let booted =
    Systems.boot ?schedule ~sched ~reg:(Wd_env.Faultreg.create ()) ~mode
      ?infer system
  in
  let g = e22_spawn ~label:(system ^ "+fault") ~requests ~gen booted in
  let step u =
    match Wd_sim.Sched.run ~until:u sched with
    | Wd_sim.Sched.Time_limit | Wd_sim.Sched.Quiescent
    | Wd_sim.Sched.Deadlock _ ->
        ()
  in
  step (Wd_sim.Time.sec 2);
  let inject_at = Wd_sim.Sched.now sched in
  Campaign.inject booted (Catalog.find sid);
  let detected = ref None in
  let deadline = Int64.add inject_at (Wd_sim.Time.sec 30) in
  let t = ref inject_at in
  while !detected = None && !t < deadline do
    t := Int64.add !t (Wd_sim.Time.ms 100);
    step !t;
    detected :=
      List.find_opt
        (fun (r : Report.t) -> r.Report.at >= inject_at)
        (List.rev (Driver.reports booted.Systems.b_driver))
  done;
  let latency =
    Option.map
      (fun (r : Report.t) -> Int64.sub r.Report.at inject_at)
      !detected
  in
  (latency, Loadgen.completed g)

(* per-workload detection scenarios: a hang for zkmini (the ZK-2201
   reproduction), a stuck compaction for cstore *)
let e22_sid_of = function
  | "zkmini" -> "zk-2201"
  | "cstore" -> "cs-compaction-stuck"
  | s -> invalid_arg ("e22: no detection scenario for " ^ s)

let e22_single ~requests ~mined (label, gen) =
  let infer_of with_infer =
    if with_infer then Inference.model_for mined label else None
  in
  let perfs =
    par_map
      (fun (_, mode, with_infer) ->
        e22_perf ~requests ~gen ~mode ~infer:(infer_of with_infer) label)
      e22_deploy_specs
  in
  let detect_requests = max 1 (requests / 4) in
  let detects =
    par_map
      (fun (_, mode, with_infer) ->
        e22_detect ~requests:detect_requests ~gen ~mode
          ~infer:(infer_of with_infer) ~sid:(e22_sid_of label) label)
      (List.filter (fun (d, _, _) -> d <> "wd-off") e22_deploy_specs)
  in
  let base_load, base_events, _ =
    List.nth perfs 0 (* spec order: wd-off first *)
  in
  let detect_of d =
    match d with
    | "wd-on" -> fst (List.nth detects 0)
    | "inferred-on" -> fst (List.nth detects 1)
    | _ -> None
  in
  let ratio num den =
    Int64.to_float num /. Float.max 1. (Int64.to_float den)
  in
  let rows =
    List.map2
      (fun (d, _, _) (load, events, _) ->
        {
          e22r_deploy = d;
          e22r_load = load;
          e22r_sim_events = events;
          e22r_overhead_pct = pct (events - base_events) ~base:base_events;
          e22r_p50_x = ratio load.Loadgen.lr_p50 base_load.Loadgen.lr_p50;
          e22r_p99_x = ratio load.Loadgen.lr_p99 base_load.Loadgen.lr_p99;
          e22r_detect = detect_of d;
        })
      e22_deploy_specs perfs
  in
  {
    e22w_label = label;
    e22w_gen = (match gen with `Closed -> "closed" | `Open _ -> "open");
    e22w_requests =
      List.fold_left (fun n (l, _, _) -> n + l.Loadgen.lr_requests) 0 perfs
      + List.fold_left (fun n (_, c) -> n + c) 0 detects;
    e22w_rows = rows;
  }

(* Fleet workload: closed-loop clients against every node of a small
   uniform fleet, through each node's bounded end-to-end client op. Fleet
   nodes always carry their full generated watchdog, so this is a single
   wd-on scale row, not an on/off comparison. *)
let e22_fleet ~requests =
  let topology = Wd_cluster.Topology.uniform ~nodes:3 Wd_cluster.Topology.Zkmini in
  let world =
    Wd_cluster.Sim.boot ~seed:(base_seed ()) ~topology ()
  in
  let sched = Wd_cluster.Sim.world_sched world in
  (* settle membership and elections before offering load *)
  (match Wd_sim.Sched.run ~until:(Wd_sim.Time.sec 2) sched with
  | Wd_sim.Sched.Time_limit | Wd_sim.Sched.Quiescent
  | Wd_sim.Sched.Deadlock _ ->
      ());
  let g =
    Loadgen.spawn_fleet ~world ~clients_per_node:8
      ~think:(Wd_sim.Time.us 200) ~requests ()
  in
  let r = Loadgen.drive g in
  let _, _, events = Wd_sim.Sched.stats sched in
  {
    e22w_label = "fleet-zkmini-3";
    e22w_gen = "fleet";
    e22w_requests = r.Loadgen.lr_requests;
    e22w_rows =
      [
        {
          e22r_deploy = "wd-on";
          e22r_load = r;
          e22r_sim_events = events;
          e22r_overhead_pct = 0.;
          e22r_p50_x = 1.;
          e22r_p99_x = 1.;
          e22r_detect = None;
        };
      ];
  }

(* Allocation discipline, the E22 companion measurement: minor-heap words
   allocated per completed request on the single-node zkmini closed loop,
   wd-off vs wd-on. [Gc.minor_words] is a per-domain counter, so both runs
   execute inline on the calling domain — never under par_map. The schedule
   is deterministic for a fixed seed, so the figure is reproducible enough
   to gate in CI. The inferred-on deployment is skipped: it needs a mining
   pass whose own allocation would dwarf the load plane's. *)
let e22_alloc () =
  let requests = 20_000 in
  List.filter_map
    (fun (deploy, mode, with_infer) ->
      if with_infer then None
      else
        let sched = Wd_sim.Sched.create ~seed:(base_seed ()) () in
        let booted =
          Systems.boot ~sched ~reg:(Wd_env.Faultreg.create ()) ~mode "zkmini"
        in
        let g = e22_spawn ~label:"zkmini" ~requests ~gen:`Closed booted in
        let w0 = Gc.minor_words () in
        let r = Loadgen.drive g in
        let dw = Gc.minor_words () -. w0 in
        let per_req = dw /. float_of_int (max 1 r.Loadgen.lr_requests) in
        Some
          {
            e22a_deploy = deploy;
            e22a_requests = r.Loadgen.lr_requests;
            e22a_words_per_req = per_req;
            e22a_bytes_per_req = per_req *. float_of_int (Sys.word_size / 8);
          })
    e22_deploy_specs

let e22_default_requests = 60_000

(* The single-node load plane E22 and E23 drive: system and generator. *)
let load_plane = [ ("zkmini", `Closed); ("cstore", `Open 8_000) ]

let e22_run ?(requests = e22_default_requests) () =
  let mined = e21_mine () in
  let singles = List.map (e22_single ~requests ~mined) load_plane in
  let fleet = e22_fleet ~requests in
  let workloads = singles @ [ fleet ] in
  {
    e22_workloads = workloads;
    e22_total_requests =
      List.fold_left (fun n w -> n + w.e22w_requests) 0 workloads;
  }

let e22_text requests =
  let r = e22_run ~requests () in
  let tbl =
    Tables.render
      ~header:
        [
          "workload"; "gen"; "deploy"; "requests"; "ok"; "throughput";
          "p50"; "p99"; "overhead"; "p50 x"; "p99 x"; "detect";
        ]
      (List.concat_map
         (fun w ->
           List.map
             (fun row ->
               let l = row.e22r_load in
               [
                 w.e22w_label;
                 w.e22w_gen;
                 row.e22r_deploy;
                 string_of_int l.Loadgen.lr_requests;
                 fp "%.3f" (Loadgen.success_ratio l);
                 fp "%.0f/s" (Loadgen.throughput_rps l);
                 Wd_sim.Time.to_string l.Loadgen.lr_p50;
                 Wd_sim.Time.to_string l.Loadgen.lr_p99;
                 (if row.e22r_deploy = "wd-off" then "base"
                  else fp "%+.1f%%" row.e22r_overhead_pct);
                 fp "%.2fx" row.e22r_p50_x;
                 fp "%.2fx" row.e22r_p99_x;
                 (match row.e22r_detect with
                 | Some d -> Wd_sim.Time.to_string d
                 | None -> "-");
               ])
             w.e22w_rows)
         r.e22_workloads)
  in
  fp
    "E22 — watchdog overhead under heavy traffic (%d requests total)\n\
     closed loop: 32 clients, 50us think; open loop: fixed arrival rate,\n\
     512 in-flight cap; fleet: 8 clients/node through the end-to-end\n\
     client op. overhead = sim-event inflation vs the wd-off run of the\n\
     same workload; p50x/p99x = latency vs the same baseline; detect =\n\
     first report after a mid-load catalog fault (zk-2201 /\n\
     cs-compaction-stuck).\n\n"
    r.e22_total_requests
  ^ tbl
  ^ "\nThe watchdog's cost under saturation is extra simulated work, not\n\
     client-visible latency: checker activity inflates sim events by a few\n\
     percent while p50/p99 track the bare run, and a fault landing under\n\
     full load is still reported within the detection budget.\n"

(* --- E23: the overhead-vs-detection-latency frontier ---

   The adaptive scheduler trades checker cadence for load headroom inside a
   hard latency bound; this experiment measures where each scheduling mode
   lands on that trade-off. Per mode:

   - overhead on the E22 load plane (zkmini closed loop, cstore open loop):
     wd-on sim-event inflation against a shared wd-off baseline, with the
     loadgen in-flight count wired in as the scheduler's pressure probe.
     Watchdog overhead has two components with different owners: context
     sync (hooks on the request path — per-request cost the scheduler
     cannot touch) and checker scheduling (periodic checker executions).
     A hooks-only run (instrumented program, driver stopped at boot)
     splits them; the frontier metric is the scheduling component, events
     above the hooks-only baseline;
   - loaded detection: the E22 mid-load faults (zk-2201,
     cs-compaction-stuck), worst of the two;
   - catalog detection: a full campaign over every catalog scenario, where
     a scenario's latency is the first intrinsic-watchdog report (mimic,
     probe, signal or inferred — heartbeat/observer are extrinsic and
     unaffected by checker scheduling).

   Worst/mean catalog latency is computed over the scenarios the fixed
   baseline detects, so modes are compared on one set; [e23f_detected]
   carries each mode's own coverage (the no-regression gate).

   The adaptive modes run a deliberately tight overhead target (0.01% of
   fired events): on this load plane the checkers' share is small in
   absolute terms, and the tight budget is what makes the throttle engage
   so the frontier exposes the cadence-vs-latency trade — cadence
   stretches until the latency bound stops it, so the two adaptive points
   differ exactly in their bound. *)

module Schedule = Wd_watchdog.Schedule

type e23_row = {
  e23f_mode : string;
  e23f_policy : string;  (* rendered policy parameters *)
  e23f_overhead_pct : float;  (* mean wd-on event inflation, load plane *)
  e23f_sched_events : int;  (* events above the hooks-only baseline *)
  e23f_sched_cut_pct : float;  (* scheduling-overhead cut vs fixed *)
  e23f_p99_x : float;  (* worst p99 ratio vs wd-off across the load plane *)
  e23f_load_detect : int64 option;  (* worst mid-load detection latency *)
  e23f_detected : int;  (* catalog scenarios seen by an intrinsic class *)
  e23f_catalog : int;  (* catalog size *)
  e23f_worst_detect : int64 option;  (* over the fixed-detected set *)
  e23f_mean_detect : int64 option;
  e23f_runs : int;  (* checker executions across the load-plane runs *)
  e23f_dedup_skips : int;
  e23f_shared_syncs : int;
  e23f_throttle_peak : float;
}

let e23_modes () =
  [
    ("fixed", Schedule.fixed);
    ("adaptive", Schedule.adaptive ~target_overhead:0.0001 ());
    ( "adaptive-relaxed",
      Schedule.adaptive ~target_overhead:0.0001
        ~latency_bound:(Wd_sim.Time.sec 6) () );
  ]

(* Catalog detection latency: first intrinsic-class report after
   injection. *)
let e23_intrinsic_latency (r : Campaign.run) =
  List.fold_left
    (fun acc cls ->
      match (List.assoc cls r.Campaign.r_outcomes).Campaign.o_latency with
      | None -> acc
      | Some l -> (
          match acc with
          | Some best when best <= l -> acc
          | Some _ | None -> Some l))
    None Campaign.intrinsic_families

let e23_run ?(requests = e22_default_requests) () =
  let modes = e23_modes () in
  (* Shared baselines, one pair per workload: wd-off (no watchdog at all)
     and hooks-only (context sync running, checkers never scheduled). *)
  let bases =
    par_map
      (fun (system, gen) ->
        e22_perf ~requests ~gen ~mode:Systems.Wd_none ~infer:None system)
      load_plane
  in
  let hooks =
    par_map
      (fun (system, gen) ->
        e22_perf ~hooks_only:true ~requests ~gen ~mode:Systems.Wd_generated
          ~infer:None system)
      load_plane
  in
  (* Catalog campaigns: every (mode, scenario) cell is an independent
     world, so the whole cross product fans out as one batch. *)
  let sids = List.map (fun s -> s.Catalog.sid) Catalog.all in
  let cells =
    List.concat_map
      (fun (_, policy) ->
        List.map
          (fun sid ->
            Campaign.cell
              ~cfg:
                {
                  Campaign.default_config with
                  Campaign.seed = base_seed ();
                  schedule = policy;
                }
              sid)
          sids)
      modes
  in
  let campaign_runs = Campaign.run_batch ~jobs:(jobs ()) cells in
  let latencies_of_mode i =
    List.filteri
      (fun j _ -> j / List.length sids = i)
      campaign_runs
    |> List.map (fun r -> (r.Campaign.r_sid, e23_intrinsic_latency r))
  in
  let fixed_lats = latencies_of_mode 0 in
  let fixed_detected =
    List.filter_map (fun (sid, l) -> Option.map (fun _ -> sid) l) fixed_lats
  in
  let measures =
    List.map
      (fun (name, policy) ->
        let perfs =
          par_map
            (fun (system, gen) ->
              e22_perf ~schedule:policy ~requests ~gen
                ~mode:Systems.Wd_generated ~infer:None system)
            load_plane
        in
        let detects =
          par_map
            (fun (system, gen) ->
              e22_detect ~schedule:policy ~requests:(max 1 (requests / 4))
                ~gen ~mode:Systems.Wd_generated ~infer:None
                ~sid:(e22_sid_of system) system)
            load_plane
        in
        (name, policy, perfs, detects))
      modes
  in
  let sched_events_of perfs =
    List.fold_left2
      (fun acc (_, hooks_events, _) (_, events, _) ->
        acc + (events - hooks_events))
      0 hooks perfs
  in
  let fixed_sched =
    match measures with
    | (_, _, perfs, _) :: _ -> sched_events_of perfs
    | [] -> 0
  in
  List.mapi
    (fun i (name, policy, perfs, detects) ->
      let overheads =
        List.map2
          (fun (_, base_events, _) (_, events, _) ->
            pct (events - base_events) ~base:base_events)
          bases perfs
      in
      let p99_x =
        List.fold_left2
          (fun acc (base_load, _, _) (load, _, _) ->
            Float.max acc
              (Int64.to_float load.Loadgen.lr_p99
              /. Float.max 1. (Int64.to_float base_load.Loadgen.lr_p99)))
          0. bases perfs
      in
      let overhead_pct =
        List.fold_left ( +. ) 0. overheads
        /. float_of_int (List.length overheads)
      in
      let load_detect =
        List.fold_left
          (fun acc (lat, _) ->
            match (acc, lat) with
            | None, l | l, None -> l
            | Some a, Some b -> Some (Int64.max a b))
          None detects
      in
      let sstats =
        List.fold_left
          (fun (runs, dedups, shared, peak) (_, _, (n, st)) ->
            ( runs + n,
              dedups + st.Schedule.st_dedup_skips,
              shared + st.Schedule.st_shared_syncs,
              Float.max peak st.Schedule.st_throttle_peak ))
          (0, 0, 0, 1.) perfs
      in
      let runs, dedups, shared, peak = sstats in
      let lats = latencies_of_mode i in
      let detected =
        List.length (List.filter (fun (_, l) -> l <> None) lats)
      in
      let common =
        List.filter_map
          (fun (sid, l) -> if List.mem sid fixed_detected then l else None)
          lats
      in
      let worst =
        List.fold_left
          (fun acc l ->
            match acc with Some a when a >= l -> acc | _ -> Some l)
          None common
      in
      let mean =
        match common with
        | [] -> None
        | _ ->
            Some
              (Int64.div
                 (List.fold_left Int64.add 0L common)
                 (Int64.of_int (List.length common)))
      in
      let sched_events = sched_events_of perfs in
      {
        e23f_mode = name;
        e23f_policy = fp "%a" Schedule.pp_policy policy;
        e23f_overhead_pct = overhead_pct;
        e23f_sched_events = sched_events;
        e23f_sched_cut_pct =
          pct (fixed_sched - sched_events) ~base:fixed_sched;
        e23f_p99_x = p99_x;
        e23f_load_detect = load_detect;
        e23f_detected = detected;
        e23f_catalog = List.length sids;
        e23f_worst_detect = worst;
        e23f_mean_detect = mean;
        e23f_runs = runs;
        e23f_dedup_skips = dedups;
        e23f_shared_syncs = shared;
        e23f_throttle_peak = peak;
      })
    measures

let e23_text requests =
  let rows = e23_run ~requests () in
  let time_opt = function
    | Some t -> Wd_sim.Time.to_string t
    | None -> "-"
  in
  let tbl =
    Tables.render
      ~header:
        [
          "mode"; "overhead"; "sched ev"; "sched cut"; "p99 x";
          "load detect"; "catalog"; "worst"; "mean"; "runs"; "dedup";
          "shared"; "throttle";
        ]
      (List.map
         (fun row ->
           [
             row.e23f_mode;
             fp "%+.1f%%" row.e23f_overhead_pct;
             string_of_int row.e23f_sched_events;
             (if row.e23f_mode = "fixed" then "base"
              else fp "%.0f%%" row.e23f_sched_cut_pct);
             fp "%.2fx" row.e23f_p99_x;
             time_opt row.e23f_load_detect;
             fp "%d/%d" row.e23f_detected row.e23f_catalog;
             time_opt row.e23f_worst_detect;
             time_opt row.e23f_mean_detect;
             string_of_int row.e23f_runs;
             string_of_int row.e23f_dedup_skips;
             string_of_int row.e23f_shared_syncs;
             fp "%.0fx" row.e23f_throttle_peak;
           ])
         rows)
  in
  fp
    "E23 — scheduling frontier: overhead vs detection latency\n\
     modes: %s.\n\
     overhead = mean wd-on sim-event inflation vs the shared wd-off\n\
     baseline on the E22 load plane (zkmini closed, cstore open); sched\n\
     ev = events above the hooks-only baseline (the checker-scheduling\n\
     component — context sync is per-request cost no schedule can touch);\n\
     sched cut = that component's reduction vs fixed; load detect =\n\
     worst mid-load catalog-fault latency; catalog = scenarios detected\n\
     by an intrinsic class over the full catalog; worst/mean = detection\n\
     latency over the fixed-detected scenario set; dedup/shared = runs\n\
     skipped on unchanged context version / co-scheduled runs sharing\n\
     one context snapshot.\n\n"
    (String.concat ", "
       (List.map (fun row -> row.e23f_mode ^ " = " ^ row.e23f_policy) rows))
  ^ tbl
  ^ "\nThe adaptive points sit below the fixed point on scheduling\n\
     overhead at a bounded detection-latency cost: throttling and\n\
     version-dedup shed checker work under pressure while the latency\n\
     bound forces a real run before the detection budget is spent — the\n\
     two adaptive rows differ exactly in that bound.\n"

(* --- the registry --- *)

type size = { flag : string; about : string; default : int; least : int }

type t = {
  name : string;
  doc : string;
  size : size option;
  render : int -> string;
}

let plain name doc f = { name; doc; size = None; render = (fun _ -> f ()) }
let sized name doc size render = { name; doc; size = Some size; render }

let requests about =
  { flag = "requests"; about; default = e22_default_requests; least = 1 }

let all =
  [
    plain "table1" "E1: Table 1 — crash FD vs error handler vs watchdog."
      e1_text;
    plain "table2" "E2: Table 2 — probe / signal / mimic quality." e2_text;
    plain "reduce" "E4: Figures 2-3 — serializeSnapshot reduction." e4_text;
    plain "zk2201" "E5: §4.2 — the ZOOKEEPER-2201 reproduction." e5_text;
    plain "genstats" "E6: §4.2 — \"tens of checkers\" per target." e6_text;
    plain "overhead" "E7: §3.1 — concurrent vs in-place checking." e7_text;
    plain "context" "E8: §3.1 — state synchronisation vs spurious alarms."
      e8_text;
    plain "memsignal" "E9: §3.3 — memory-pressure fate-sharing." e9_text;
    plain "isolation" "E10: §3.2/§5 — watchdog isolation." e10_text;
    plain "recovery" "E11: §5.2 — cheap recovery via microreboot." e11_text;
    plain "reproduce" "E12: §5.2 — failure reproduction from context."
      e12_text;
    plain "overload" "E13: Table 2 accuracy under legitimate overload."
      e13_text;
    plain "ablation" "E14: §4.1 — dedup / global-reduction ablations."
      e14_text;
    plain "sweep" "E15: detection-budget parameter sweep." e15_text;
    plain "multiseed" "E16: robustness across event interleavings." e16_text;
    plain "cluster" "E17: fleet-level aggregation over 5-node clusters."
      e17_text;
    plain "failover" "E18: leader failover + verdict-driven recovery."
      e18_text;
    plain "hetero" "E19: heterogeneous fleets over an asymmetric fabric."
      e19_text;
    sized "faultspace"
      "E20: randomized fault-space sweep, each generated world graded \
       against its own oracle."
      { flag = "worlds"; about = "Number of worlds in the sweep grid";
        default = 1000; least = 0 }
      e20_text;
    plain "infer" "E21: trace-inferred checkers raced against the mimics."
      e21_text;
    sized "load"
      "E22: watchdog overhead under heavy traffic, watchdog-on vs -off vs \
       inferred-on."
      (requests "Request budget per deployment row of each workload")
      e22_text;
    sized "frontier"
      "E23: fixed vs adaptive checker scheduling, overhead vs detection \
       latency."
      (requests "Request budget per load-plane run of each scheduling mode")
      e23_text;
  ]
