(* End-to-end experiment tests: the campaign machinery reproduces the
   paper's qualitative claims. These run whole-system simulations with
   shortened windows to keep `dune runtest` snappy. *)

open Wd_harness
module Time = Wd_sim.Time

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let quick_cfg =
  { Campaign.default_config with Campaign.warmup = Time.sec 6; observe = Time.sec 20 }

let outcome r name = List.assoc name r.Campaign.r_outcomes

let test_zk2201_story () =
  let r = Campaign.run_scenario ~cfg:quick_cfg "zk-2201" in
  let mimic = outcome r "mimic" in
  check "mimic detects" true mimic.Campaign.o_detected;
  check "mimic pinpoints the commit path" true
    (mimic.Campaign.o_pinpoint = Some Campaign.Exact);
  check "within ten seconds" true
    (match mimic.Campaign.o_latency with
    | Some l -> l < Time.sec 10
    | None -> false);
  check "heartbeat blind" false (outcome r "heartbeat").Campaign.o_detected;
  check "no false alarms before injection" true (r.Campaign.r_pre_inject_reports = 0)

let test_silent_stuck_only_mimic () =
  let r = Campaign.run_scenario ~cfg:quick_cfg "cs-compaction-stuck" in
  check "mimic detects" true (outcome r "mimic").Campaign.o_detected;
  check "probe blind" false (outcome r "probe").Campaign.o_detected;
  check "heartbeat blind" false (outcome r "heartbeat").Campaign.o_detected;
  check "observer blind (clients unaffected)" false
    (outcome r "observer").Campaign.o_detected;
  (* the gray failure leaves the workload healthy *)
  check "clients fine" true (r.Campaign.r_workload_ok_ratio > 0.99)

let test_crash_favors_extrinsic () =
  let r = Campaign.run_scenario ~cfg:quick_cfg "kvs-crash" in
  check "heartbeat detects crash" true (outcome r "heartbeat").Campaign.o_detected;
  check "watchdog died with the process" false (outcome r "mimic").Campaign.o_detected

let test_corruption_needs_mimic () =
  let r = Campaign.run_scenario ~cfg:quick_cfg "kvs-seg-corrupt" in
  check "mimic detects" true (outcome r "mimic").Campaign.o_detected;
  check "exact pinpoint" true
    ((outcome r "mimic").Campaign.o_pinpoint = Some Campaign.Exact);
  check "signal blind" false (outcome r "signal").Campaign.o_detected

let test_fault_free_accuracy () =
  List.iter
    (fun sys ->
      (* full default window: long enough for progress-checker staleness
         thresholds, which a shortened window would never exercise *)
      let ff = Campaign.run_fault_free sys in
      let fp fam = List.assoc fam ff.Campaign.ff_fp in
      check_int (sys ^ " mimic clean") 0 (fp "mimic");
      check_int (sys ^ " probe clean") 0 (fp "probe");
      check_int (sys ^ " hb clean") 0 (fp "heartbeat");
      check (sys ^ " workload healthy") true (ff.Campaign.ff_workload_ok_ratio > 0.95))
    Systems.all_systems

let test_context_ablation () =
  let rows = Experiments.e8_run () in
  match rows with
  | [ generated; naive ] ->
      check_int "context sync: no false alarms" 0 generated.Experiments.e8_false_alarms;
      check "context sync: not-ready checkers skip" true
        (generated.Experiments.e8_skips > 0);
      check "naive checkers raise spurious alarms" true
        (naive.Experiments.e8_false_alarms > 0)
  | _ -> Alcotest.fail "two rows"

let test_isolation_properties () =
  let r = Experiments.e10_run () in
  check "scratch namespace disjoint" true r.Experiments.e10_scratch_disjoint;
  check "driver survives crashing checker" true r.Experiments.e10_driver_survives;
  check "main program unperturbed" true r.Experiments.e10_main_unperturbed

(* Pinned tables: the MD5 of what `repro <name> --jobs 1` prints for the
   experiments that boot worlds of their own (E7, E10, E11, E15, E21). The
   cross-width comparison cannot see a change that moves every width
   alike; these digests can. *)
let test_tables_pinned () =
  Experiments.set_jobs 1;
  List.iter
    (fun (name, want) ->
      let e = List.find (fun e -> e.Experiments.name = name) Experiments.all in
      Alcotest.(check string)
        name want
        (Digest.to_hex (Digest.string (e.Experiments.render 0))))
    [
      ("overhead", "ae7f2511c978af0cf183bfa04942e52a");
      ("isolation", "7a8da5df5785d28c6d248b2f7e06b166");
      ("recovery", "bfc6e99814dfba99157e1b25053c51f9");
      ("sweep", "c13916aa42c27449e6a1ed2e2c940eb9");
      ("infer", "03dca7768de799601231b6e6ed8369e9");
    ]

let test_generation_stats () =
  let rows = Experiments.e6_run () in
  check_int "five targets" 5 (List.length rows);
  List.iter
    (fun (name, (g : Wd_autowatchdog.Generate.generated), _ms) ->
      let s = g.Wd_autowatchdog.Generate.red.Wd_analysis.Reduction.stats in
      check (name ^ " checkers generated") true (s.Wd_analysis.Reduction.unit_count > 0);
      check
        (name ^ " reduction shrinks the program")
        true
        (s.Wd_analysis.Reduction.reduced_stmts < s.Wd_analysis.Reduction.total_stmts))
    rows

let test_classify_checker () =
  check "probe" true (Campaign.classify_checker "probe:x" = `Probe);
  check "signal" true (Campaign.classify_checker "signal:y" = `Signal);
  check "mimic unit" true (Campaign.classify_checker "save__u0" = `Mimic);
  check "naive counts as mimic" true (Campaign.classify_checker "naive:u" = `Mimic)

let test_scenario_catalog_consistent () =
  List.iter
    (fun s ->
      check
        (s.Wd_faults.Catalog.sid ^ " system known")
        true
        (List.mem s.Wd_faults.Catalog.system Systems.all_systems);
      (* ground-truth functions must exist in the target program *)
      match s.Wd_faults.Catalog.truth_func with
      | None -> ()
      | Some f ->
          let prog =
            match s.Wd_faults.Catalog.system with
            | "kvs" -> Wd_targets.Kvs.program ()
            | "zkmini" -> Wd_targets.Zkmini.program ()
            | "dfsmini" -> Wd_targets.Dfsmini.program ()
            | "cstore" -> Wd_targets.Cstore.program ()
            | "mqbroker" -> Wd_targets.Mqbroker.program ()
            | _ -> assert false
          in
          check (s.Wd_faults.Catalog.sid ^ " truth exists") true
            (Wd_ir.Ast.has_func prog f))
    Wd_faults.Catalog.all

(* Full-catalog conformance: every scenario's measured detections match its
   paper-informed prediction (the "as predicted" column of E2). *)
let test_catalog_conformance () =
  List.iter
    (fun s ->
      if s.Wd_faults.Catalog.special <> Some "crash" then begin
        (* slow-building faults (the leak) need the full observation
           window, so this one uses the default campaign config *)
        let r = Campaign.run_scenario s.Wd_faults.Catalog.sid in
        check
          (s.Wd_faults.Catalog.sid ^ " as predicted")
          true
          (Experiments.e2_matches_expectation r)
      end)
    Wd_faults.Catalog.all

(* Load plane: a closed-loop run is a pure function of (seed, workload) —
   every counter and percentile bit-identical across repeats — and an
   open-loop run offered more than the system can absorb sheds the excess
   instead of queueing without bound. *)
let load_run gen =
  let sched = Wd_sim.Sched.create ~seed:9 () in
  let reg = Wd_env.Faultreg.create () in
  let booted =
    Systems.boot ~sched ~reg ~mode:Systems.Wd_generated "kvs"
  in
  Loadgen.drive (gen sched booted)

let test_loadgen_deterministic () =
  let closed sched (b : Systems.booted) =
    Loadgen.spawn_closed ~sched ~clients:8 ~think:(Wd_sim.Time.us 100)
      ~requests:3_000 ~op:b.Systems.b_client ()
  in
  let r1 = load_run closed and r2 = load_run closed in
  (* lr_wall_s is host time — everything else must be bit-identical *)
  check "deterministic across repeats" true
    ({ r1 with Loadgen.lr_wall_s = 0. } = { r2 with Loadgen.lr_wall_s = 0. });
  check "all requests completed" true (r1.Loadgen.lr_requests = 3_000);
  check "all ok" true (r1.Loadgen.lr_ok = 3_000);
  check "p50 <= p99" true (r1.Loadgen.lr_p50 <= r1.Loadgen.lr_p99);
  check "p99 <= max" true (r1.Loadgen.lr_p99 <= r1.Loadgen.lr_max);
  check "positive throughput" true (Loadgen.throughput_rps r1 > 0.)

let test_loadgen_open_sheds () =
  let open_ sched (b : Systems.booted) =
    (* far above any single node's capacity, tiny in-flight window *)
    Loadgen.spawn_open ~sched ~rate_rps:500_000 ~max_inflight:4
      ~requests:5_000 ~op:b.Systems.b_client ()
  in
  let r = load_run open_ in
  check "accounted every arrival" true
    (r.Loadgen.lr_requests + r.Loadgen.lr_shed = 5_000);
  check "overload sheds" true (r.Loadgen.lr_shed > 0)

(* A crash scenario kills the whole process, watchdog included: once
   [Campaign.inject] has landed kvs-crash, no checker starts another run. *)
let test_crash_injection_stops_watchdog () =
  let sched = Wd_sim.Sched.create ~seed:42 () in
  let reg = Wd_env.Faultreg.create () in
  let b = Systems.boot ~sched ~reg ~mode:Systems.Wd_generated "kvs" in
  let executions () =
    List.fold_left
      (fun n st -> n + st.Wd_watchdog.Driver.cs_executions)
      0
      (Wd_watchdog.Driver.stats b.Systems.b_driver)
  in
  ignore (Wd_sim.Sched.run ~until:(Time.sec 8) sched);
  check "watchdog ran before the crash" true (executions () > 0);
  Campaign.inject b (Wd_faults.Catalog.find "kvs-crash");
  ignore (Wd_sim.Sched.run ~until:(Time.ms 8001) sched);
  let at_crash = executions () in
  ignore (Wd_sim.Sched.run ~until:(Time.sec 30) sched);
  check_int "no checker runs after the crash" at_crash (executions ())

(* Pinned boot fingerprints: every system under every watchdog mode, fault
   free and with every boot variant the catalog names for it, run for 10
   virtual seconds. The digest covers the scheduler's counters, the
   driver's checker ids in registration order, the booted tasks' ids and
   names, and the background workload's counters, so a boot that spawns,
   registers or orders anything differently moves it. *)
let boot_fingerprint ~mode ?special system =
  let sched = Wd_sim.Sched.create ~seed:42 () in
  let reg = Wd_env.Faultreg.create () in
  let b = Systems.boot ~sched ~reg ~mode ?special system in
  ignore (Wd_sim.Sched.run ~until:(Time.sec 10) sched);
  let spawned, switches, events = Wd_sim.Sched.stats sched in
  let ids =
    List.map
      (fun st -> st.Wd_watchdog.Driver.cs_id)
      (Wd_watchdog.Driver.stats b.Systems.b_driver)
  in
  let tasks =
    List.map
      (fun t ->
        Fmt.str "%d:%s" (Wd_sim.Sched.task_id t) (Wd_sim.Sched.task_name t))
      b.Systems.b_tasks
  in
  let w = b.Systems.b_workload in
  Digest.to_hex
    (Digest.string
       (Fmt.str "%d/%d/%d/%s/%s/%d/%d/%Ld" spawned switches events
          (String.concat "," ids) (String.concat "," tasks)
          w.Wd_targets.Workload.issued w.Wd_targets.Workload.ok
          w.Wd_targets.Workload.total_latency))

let pinned_boots =
  [
    ("kvs", "generated", None, "32c616e612da234f0df51d7a7a993d0a");
    ("kvs", "generated", Some "crash", "32c616e612da234f0df51d7a7a993d0a");
    ("kvs", "generated", Some "deadlock_bug", "d1b7cf057ac4a4505ddd3e6e6f557ff4");
    ("kvs", "generated", Some "leak_bug", "b1e203b103a5672e2a49ec58dfe418e4");
    ("kvs", "no-context", None, "aa4cbc220771b53959405cd51f02cd12");
    ("kvs", "no-context", Some "crash", "aa4cbc220771b53959405cd51f02cd12");
    ("kvs", "no-context", Some "deadlock_bug", "a5408669a39b5ce57e7bb2eb85b426db");
    ("kvs", "no-context", Some "leak_bug", "a43e8a017023d88ab0e5cc2195a24af2");
    ("kvs", "none", None, "693d10d68222ab6a106ba8c05fcedf38");
    ("kvs", "none", Some "crash", "693d10d68222ab6a106ba8c05fcedf38");
    ("kvs", "none", Some "deadlock_bug", "1b1e9815984fc683a01b2b291c7ad95b");
    ("kvs", "none", Some "leak_bug", "68f4fe3951ad54d6fc26be47cb75a8d4");
    ("zkmini", "generated", None, "1300e572017bb23ec93193b81586ee0d");
    ("zkmini", "no-context", None, "8d7d1ad8a3ed8770ea6f020dff9becd4");
    ("zkmini", "none", None, "93613087e8192f029876e33455d5d839");
    ("dfsmini", "generated", None, "d92e52f5b57e4cf6f0fc7067d7588713");
    ("dfsmini", "no-context", None, "b5ca9179699633ca026e08477705f25e");
    ("dfsmini", "none", None, "a2bac5289b20512fabf1039b13a4ef99");
    ("cstore", "generated", None, "524a59a608e13e523a02c83397cc85ed");
    ("cstore", "generated", Some "spin_bug", "69c74fa4dd7c1e4f326937b76ee30791");
    ("cstore", "no-context", None, "45243ab66208c9356b7dabc807724fc6");
    ("cstore", "no-context", Some "spin_bug", "1a06330ec4072f4bee04bb3c66f8ecc9");
    ("cstore", "none", None, "216e574779b33cafe3c82f060eca125f");
    ("cstore", "none", Some "spin_bug", "6f3896208641c41544db125acbaf059a");
    ("mqbroker", "generated", None, "e2b9e98121464663e8cb78e0678d3221");
    ("mqbroker", "no-context", None, "55441432efb8081f0aa0f3c3bbf6a506");
    ("mqbroker", "none", None, "29d6c751b69f4ce2a1ec651bb0dd56b3");
  ]

let test_boot_fingerprints () =
  let modes =
    [
      ("generated", Systems.Wd_generated);
      ("no-context", Systems.Wd_no_context);
      ("none", Systems.Wd_none);
    ]
  in
  let cases =
    List.concat_map
      (fun system ->
        let specials =
          List.sort_uniq compare
            (List.filter_map
               (fun s ->
                 if s.Wd_faults.Catalog.system = system then
                   s.Wd_faults.Catalog.special
                 else None)
               Wd_faults.Catalog.all)
        in
        List.concat_map
          (fun (mname, _) ->
            List.map
              (fun special -> (system, mname, special))
              (None :: List.map Option.some specials))
          modes)
      Systems.all_systems
  in
  check_int "every case pinned" (List.length cases) (List.length pinned_boots);
  List.iter
    (fun (system, mname, special) ->
      let name =
        Fmt.str "%s/%s/%s" system mname (Option.value special ~default:"-")
      in
      match
        List.find_opt
          (fun (s, m, sp, _) -> s = system && m = mname && sp = special)
          pinned_boots
      with
      | None -> Alcotest.failf "%s not pinned" name
      | Some (_, _, _, want) ->
          Alcotest.(check string)
            name want
            (boot_fingerprint ~mode:(List.assoc mname modes) ?special system))
    cases

(* Pinned load-world fingerprint: an 8,192-request zkmini closed loop (32
   clients, 50 us think: the E22 shape) under the generated watchdog. The
   test drives the clock in 1 ms ticks and samples the armed-timer count
   after each. It pins the scheduler's counters, the final clock and the
   peak timer count. The idle boot fingerprints above never arm a request
   deadline; this world arms hundreds of thousands, most of them stale. *)
let test_load_fingerprint () =
  let requests = 8_192 in
  let sched = Wd_sim.Sched.create ~seed:42 () in
  let reg = Wd_env.Faultreg.create () in
  let b = Systems.boot ~sched ~reg ~mode:Systems.Wd_generated "zkmini" in
  let g =
    Loadgen.spawn_closed ~sched ~clients:32 ~think:(Time.us 50) ~requests
      ~op:b.Systems.b_client ()
  in
  let peak = ref 0 in
  while
    Loadgen.completed g < requests && Wd_sim.Sched.now sched < Time.sec 600
  do
    ignore
      (Wd_sim.Sched.run
         ~until:(Int64.add (Wd_sim.Sched.now sched) (Time.ms 1))
         sched);
    peak := max !peak (Wd_sim.Sched.timer_count sched)
  done;
  let spawned, switches, events = Wd_sim.Sched.stats sched in
  check_int "every request completed" requests (Loadgen.completed g);
  Alcotest.(check string)
    "spawned/switches/events/now/peak timers"
    "65/87375/163358/1149000000/19641"
    (Fmt.str "%d/%d/%d/%Ld/%d" spawned switches events
       (Wd_sim.Sched.now sched) !peak)

let test_tables_render () =
  let text =
    Tables.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  check "renders" true (String.length text > 0);
  check "has rules" true (String.contains text '+')

(* The E22 table at 20,000 requests per row, by MD5 at width 1: like the
   tables above, a change that moves every width alike (a reply routed to
   the wrong request moves detect times everywhere) shows only here. *)
let test_load_pinned () =
  Experiments.set_jobs 1;
  let e = List.find (fun e -> e.Experiments.name = "load") Experiments.all in
  Alcotest.(check string)
    "load --requests 20000" "5f10aba310c2fb9d44271b1fc44e4707"
    (Digest.to_hex (Digest.string (e.Experiments.render 20_000)))

let () =
  Alcotest.run "wd_harness"
    [
      ( "campaign",
        [
          Alcotest.test_case "zk-2201 story" `Slow test_zk2201_story;
          Alcotest.test_case "silent stuck: only mimic" `Slow
            test_silent_stuck_only_mimic;
          Alcotest.test_case "crash favours extrinsic" `Slow
            test_crash_favors_extrinsic;
          Alcotest.test_case "corruption needs mimic" `Slow
            test_corruption_needs_mimic;
          Alcotest.test_case "fault-free accuracy" `Slow test_fault_free_accuracy;
          Alcotest.test_case "full-catalog conformance" `Slow
            test_catalog_conformance;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "context-sync ablation (E8)" `Slow test_context_ablation;
          Alcotest.test_case "isolation (E10)" `Slow test_isolation_properties;
          Alcotest.test_case "generation stats (E6)" `Quick test_generation_stats;
          Alcotest.test_case "rerouted tables pinned" `Slow test_tables_pinned;
          Alcotest.test_case "load table pinned" `Slow test_load_pinned;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "checker classification" `Quick test_classify_checker;
          Alcotest.test_case "catalog consistency" `Quick
            test_scenario_catalog_consistent;
          Alcotest.test_case "table rendering" `Quick test_tables_render;
          Alcotest.test_case "loadgen deterministic" `Quick
            test_loadgen_deterministic;
          Alcotest.test_case "loadgen open-loop sheds overload" `Quick
            test_loadgen_open_sheds;
          Alcotest.test_case "crash injection stops the watchdog" `Quick
            test_crash_injection_stops_watchdog;
          Alcotest.test_case "boot fingerprints pinned" `Quick
            test_boot_fingerprints;
          Alcotest.test_case "load world fingerprint pinned" `Quick
            test_load_fingerprint;
        ] );
    ]
