(* Benchmark harness.

   Part 1 — bechamel micro-benchmarks of the infrastructure itself: one
   [Test.make] per table/figure-bearing component, measuring the host-time
   cost of the machinery that the experiments rely on (scheduler, IR
   interpreter, AutoWatchdog analysis, context synchronisation, checker
   execution).

   Part 2 — regeneration of every table and figure of the paper (E1-E10 as
   indexed in DESIGN.md), printed in full. Absolute numbers come from the
   deterministic simulator; the shapes are what reproduce the paper. *)

open Bechamel
open Toolkit

module Sched = Wd_sim.Sched
module Vtime = Wd_sim.Time
module B = Wd_ir.Builder
module Generate = Wd_autowatchdog.Generate

(* --- micro-benchmark subjects --- *)

let bench_sched_spawn_run =
  Test.make ~name:"sim/spawn+run 100 tasks"
    (Staged.stage (fun () ->
         let s = Sched.create ~seed:1 () in
         for i = 0 to 99 do
           ignore
             (Sched.spawn ~name:(string_of_int i) s (fun () ->
                  Sched.sleep (Vtime.us 10)))
         done;
         ignore (Sched.run s)))

let bench_sched_ping_pong =
  Test.make ~name:"sim/1000 context switches"
    (Staged.stage (fun () ->
         let s = Sched.create ~seed:1 () in
         ignore
           (Sched.spawn s (fun () ->
                for _ = 1 to 1000 do
                  Sched.yield ()
                done));
         ignore (Sched.run s)))

let interp_prog =
  B.program "bench"
    ~funcs:
      [
        B.func "sum_to" ~params:[ "n" ]
          [
            B.let_ "acc" (B.i 0);
            B.let_ "i" (B.i 1);
            B.while_
              B.(v "i" <=: v "n")
              [
                B.assign "acc" B.(v "acc" +: v "i");
                B.assign "i" B.(v "i" +: i 1);
              ];
            B.return (B.v "acc");
          ];
      ]
    ~entries:[]

let bench_interp_statements =
  Test.make ~name:"ir/interpret 3000-stmt loop"
    (Staged.stage (fun () ->
         let s = Sched.create ~seed:1 () in
         let reg = Wd_env.Faultreg.create () in
         let res = Wd_ir.Runtime.create ~reg ~rng:(Wd_sim.Rng.create ~seed:2) in
         let main = Wd_ir.Interp.create ~node:"n" ~res interp_prog in
         ignore
           (Sched.spawn s (fun () ->
                ignore (Wd_ir.Interp.call main "sum_to" [ Wd_ir.Ast.VInt 1000 ])));
         ignore (Sched.run s)))

let kvs_prog = Wd_targets.Kvs.program ()
let zk_prog = Wd_targets.Zkmini.program ()

let bench_generate_kvs =
  Test.make ~name:"autowatchdog/analyze kvs"
    (Staged.stage (fun () -> ignore (Generate.analyze kvs_prog)))

let bench_generate_zk =
  Test.make ~name:"autowatchdog/analyze zkmini"
    (Staged.stage (fun () -> ignore (Generate.analyze zk_prog)))

let bench_context_sync =
  Test.make ~name:"watchdog/hook capture + context sync"
    (Staged.stage
       (let w = Wd_watchdog.Wcontext.create () in
        Wd_watchdog.Wcontext.register_unit w ~unit_id:"u" ~params:[ "a"; "b" ];
        Wd_watchdog.Wcontext.bind_hook w ~hook_id:0 ~unit_id:"u"
          ~captures:[ ("a", "ta"); ("b", "tb") ];
        let payload = Wd_ir.Ast.VBytes (Bytes.create 256) in
        fun () ->
          Wd_watchdog.Wcontext.sink w ~now:1L 0
            [ ("ta", Wd_ir.Ast.copy_value payload); ("tb", Wd_ir.Ast.VInt 1) ];
          ignore (Wd_watchdog.Wcontext.args w "u")))

let bench_checker_execution =
  Test.make ~name:"watchdog/kvs+watchdog, 2 sim-seconds"
    (Staged.stage (fun () ->
         let g = Generate.analyze kvs_prog in
         let s = Sched.create ~seed:1 () in
         let reg = Wd_env.Faultreg.create () in
         let t =
           Wd_targets.Kvs.boot ~sched:s ~reg
             ~prog:g.Generate.red.Wd_analysis.Reduction.instrumented ()
         in
         let driver = Wd_watchdog.Driver.create s in
         ignore (Generate.attach g ~sched:s ~main:t.Wd_targets.Kvs.leader ~driver);
         ignore (Wd_targets.Kvs.start t);
         Wd_watchdog.Driver.start driver;
         ignore (Sched.run ~until:(Vtime.sec 2) s)))

let bench_cluster_fleet =
  Test.make ~name:"cluster/5-node zkmini fleet, 2 sim-seconds"
    (Staged.stage (fun () ->
         let topology =
           Wd_cluster.Topology.uniform ~nodes:5 Wd_cluster.Topology.Zkmini
         in
         let w = Wd_cluster.Sim.boot ~seed:1 ~topology () in
         ignore
           (Sched.run ~until:(Vtime.sec 2) (Wd_cluster.Sim.world_sched w))))

let microbenches =
  [
    bench_sched_spawn_run;
    bench_sched_ping_pong;
    bench_interp_statements;
    bench_generate_kvs;
    bench_generate_zk;
    bench_context_sync;
    bench_checker_execution;
    bench_cluster_fleet;
  ]

let run_microbenches () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  print_endline "== micro-benchmarks (host time per run) ==\n";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name bench ->
          let est = Analyze.one ols Instance.monotonic_clock bench in
          match Analyze.OLS.estimates est with
          | Some (t :: _) -> Printf.printf "  %-45s %14.1f ns/run\n%!" name t
          | Some [] | None -> Printf.printf "  %-45s (no estimate)\n%!" name)
        results)
    microbenches;
  print_newline ()

(* --- Part 3: --json mode — the harness performance trajectory ---

   Emits BENCH_harness.json: a jobs-scaling curve (1/2/4) for a fixed
   campaign batch (the E2 scenario sweep) with a determinism cross-check
   across widths, domain-local cache hit rates over that batch, a
   1000-world randomized fault-space sweep (worlds/s at each width, with a
   byte-identity gate), fleet-plane latencies, analysis-cache cold/hit
   times, and interpreter micro-bench throughput. Every future perf PR
   reruns this file. *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let interp_call_prog =
  B.program "bench_call"
    ~funcs:
      [
        B.func "leaf" ~params:[ "x" ] [ B.return (B.v "x") ];
        B.func "call_loop" ~params:[ "n" ]
          [
            B.let_ "i" (B.i 0);
            B.while_
              B.(v "i" <: v "n")
              [
                B.call ~bind:"r" "leaf" [ B.v "i" ];
                B.assign "i" B.(v "i" +: i 1);
              ];
            B.return (B.v "i");
          ];
      ]
    ~entries:[]

(* Host seconds to interpret [fname nv] in a fresh one-task simulation;
   returns (statements executed, wall seconds). The compiled form is built
   at [create] time, outside the measured window — compile cost is a
   one-time charge already covered by the analysis-cache section. *)
let interp_bench prog fname nv =
  let s = Sched.create ~seed:1 () in
  let reg = Wd_env.Faultreg.create () in
  let res = Wd_ir.Runtime.create ~reg ~rng:(Wd_sim.Rng.create ~seed:2) in
  let main = Wd_ir.Interp.create ~node:"n" ~res prog in
  ignore
    (Sched.spawn s (fun () ->
         ignore (Wd_ir.Interp.call main fname [ Wd_ir.Ast.VInt nv ])));
  let (), secs = wall (fun () -> ignore (Sched.run s)) in
  (Wd_ir.Interp.stmts_executed main, secs)

let per_s n secs = float_of_int n /. Float.max 1e-9 secs

let run_json_bench ~jobs_n () =
  let module Campaign = Wd_harness.Campaign in
  let module Interp = Wd_ir.Interp in
  let scenarios =
    List.filter
      (fun s -> s.Wd_faults.Catalog.special <> Some "crash")
      Wd_faults.Catalog.all
  in
  let cells =
    List.map (fun s -> Campaign.cell s.Wd_faults.Catalog.sid) scenarios
  in
  (* Every batch starts from cold analysis + compile caches so the jobs
     curve isolates one variable: domain parallelism. *)
  let cold_batch ~jobs () =
    Generate.clear_cache ();
    Interp.clear_compile_cache ();
    wall (fun () -> Campaign.run_batch ~jobs cells)
  in
  let recommended = Domain.recommended_domain_count () in
  let effective j = max 1 (min j recommended) in
  (* Jobs-scaling curve: requested widths 1/2/4 (plus --jobs if it differs).
     The persistent pool clamps to the host's core count — [effective] — so
     on a small host several points coincide; the JSON records both the
     requested and the effective width. *)
  let widths = List.sort_uniq compare [ 1; 2; 4; jobs_n ] in
  let curve =
    List.map
      (fun j ->
        let runs, secs = cold_batch ~jobs:j () in
        (* cache traffic of this batch: cleared at batch start, so the
           counters cover exactly these cells at this width *)
        let a_hits, a_misses = Generate.cache_stats () in
        let c_hits, c_misses = Interp.compile_cache_stats () in
        (j, runs, secs, (a_hits, a_misses), (c_hits, c_misses)))
      widths
  in
  let runs1, secs1, a_cache_n, c_cache_n =
    match (curve, List.rev curve) with
    | (_, r1, s1, _, _) :: _, (_, _, _, a_n, c_n) :: _ -> (r1, s1, a_n, c_n)
    | _ -> assert false
  in
  let deterministic =
    List.for_all (fun (_, runs, _, _, _) -> runs = runs1) curve
  in
  (* randomized fault-space sweep (E20 grid) at each width, cold caches,
     byte-identity across widths checked on the full outcome lists *)
  let module Sweep = Wd_harness.Sweep in
  let sweep_worlds = 1000 in
  let sweep_seed = Wd_harness.Experiments.base_seed () in
  let sweep_runs =
    List.map
      (fun j ->
        Generate.clear_cache ();
        Interp.clear_compile_cache ();
        let (summary, outcomes), secs =
          wall (fun () -> Sweep.run ~jobs:j ~seed:sweep_seed ~worlds:sweep_worlds ())
        in
        (j, summary, outcomes, secs))
      widths
  in
  let sweep_summary, sweep_outcomes1, sweep_secs1 =
    match sweep_runs with
    | (_, s, o, secs) :: _ -> (s, o, secs)
    | [] -> assert false
  in
  let sweep_identical =
    List.for_all (fun (_, _, o, _) -> o = sweep_outcomes1) sweep_runs
  in
  (* checker-generation race (E21): mine the inferred generation, race it
     against the mimic generation across the catalog in three deployments,
     and gate on mining determinism (digest at width 1 = digest at width
     N) and inferred accuracy (zero fault-free false positives) *)
  let module Experiments = Wd_harness.Experiments in
  let module Inference = Wd_harness.Inference in
  let race = Experiments.e21_run () in
  let mined_w1 = Inference.mine_and_synth ~jobs:1 () in
  let mining_deterministic =
    String.equal race.Experiments.e21_model_digest
      mined_w1.Inference.md_digest
  in
  let race_family d fam =
    List.find
      (fun (f : Experiments.e21_family) -> f.Experiments.e21f_family = fam)
      d.Experiments.e21d_families
  in
  let inferred_only =
    List.find
      (fun (d : Experiments.e21_deploy) ->
        d.Experiments.e21d_label = "inferred-only")
      race.Experiments.e21_deploys
  in
  let inferred_alone = race_family inferred_only "inferred" in
  (* analysis cache: cold analysis vs memoised hit *)
  Generate.clear_cache ();
  let _, cold_s = wall (fun () -> ignore (Generate.analyze_cached zk_prog)) in
  let _, hit_s = wall (fun () -> ignore (Generate.analyze_cached zk_prog)) in
  (* interpreter micro-benches: straight-line statements and call-heavy.
     The call loop also reports statement throughput — each iteration is a
     handful of statements around the call, so its stmts/s is the
     "statements with call overhead in the mix" number. *)
  let stmts, stmt_s = interp_bench interp_prog "sum_to" 100_000 in
  let calls = 30_000 in
  let cstmts, call_s = interp_bench interp_call_prog "call_loop" calls in
  (* heavy-traffic load plane (E22): each workload at >= 10^6 completed
     requests across its deployment rows, sized so the zkmini/cstore
     totals clear the bar with the detection runs included *)
  let module Loadgen = Wd_harness.Loadgen in
  let load_requests = 350_000 in
  let load, load_s =
    wall (fun () -> Experiments.e22_run ~requests:load_requests ())
  in
  (* allocation discipline (v6): minor-heap words per completed request on
     the zkmini closed loop, wd-off vs wd-on. Must run inline on this
     domain — Gc.minor_words is per-domain — and is deterministic for the
     fixed seed, so the gate below cannot flap. *)
  let alloc_rows, alloc_s = wall (fun () -> Experiments.e22_alloc ()) in
  (* scheduling frontier (E23, v7): fixed vs adaptive checker scheduling
     across the fault catalog and the load plane. The gated component is
     [sched_events] — events above a hooks-only baseline — because context
     sync is per-request cost no schedule can touch. *)
  let frontier, frontier_s = wall (fun () -> Experiments.e23_run ()) in
  let buf = Buffer.create 1024 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let rate (hits, misses) =
    float_of_int hits /. Float.max 1. (float_of_int (hits + misses))
  in
  bpf "{\n";
  bpf "  \"schema\": \"wd-bench-harness/v8\",\n";
  let gc = Gc.get () in
  bpf
    "  \"host\": { \"recommended_domains\": %d, \"gc\": { \
     \"minor_heap_words\": %d, \"space_overhead\": %d } },\n"
    recommended gc.Gc.minor_heap_size gc.Gc.space_overhead;
  bpf "  \"campaign_e2\": {\n";
  bpf "    \"scenarios\": %d,\n" (List.length cells);
  bpf "    \"jobs_curve\": [\n";
  List.iteri
    (fun i (j, _, secs, _, _) ->
      bpf
        "      { \"jobs\": %d, \"effective_jobs\": %d, \"wall_s\": %.3f, \
         \"speedup\": %.2f }%s\n"
        j (effective j) secs
        (secs1 /. Float.max 1e-9 secs)
        (if i = List.length curve - 1 then "" else ","))
    curve;
  bpf "    ],\n";
  bpf "    \"deterministic\": %b,\n" deterministic;
  bpf
    "    \"analysis_cache\": { \"hits\": %d, \"misses\": %d, \"hit_rate\": \
     %.3f },\n"
    (fst a_cache_n) (snd a_cache_n) (rate a_cache_n);
  bpf
    "    \"compile_cache\": { \"hits\": %d, \"misses\": %d, \"hit_rate\": \
     %.3f }\n"
    (fst c_cache_n) (snd c_cache_n) (rate c_cache_n);
  bpf "  },\n";
  bpf "  \"sweep\": {\n";
  bpf "    \"worlds\": %d,\n" sweep_worlds;
  bpf "    \"seed\": %d,\n" sweep_seed;
  bpf "    \"jobs_curve\": [\n";
  List.iteri
    (fun i (j, _, _, secs) ->
      bpf
        "      { \"jobs\": %d, \"effective_jobs\": %d, \"wall_s\": %.3f, \
         \"worlds_per_s\": %.1f, \"speedup\": %.2f }%s\n"
        j (effective j) secs
        (float_of_int sweep_worlds /. Float.max 1e-9 secs)
        (sweep_secs1 /. Float.max 1e-9 secs)
        (if i = List.length sweep_runs - 1 then "" else ","))
    sweep_runs;
  bpf "    ],\n";
  bpf "    \"byte_identical\": %b,\n" sweep_identical;
  bpf "    \"digest\": \"%s\",\n" sweep_summary.Wd_harness.Sweep.s_digest;
  bpf
    "    \"composition\": { \"scenario\": %d, \"fault_free\": %d, \"fleet\": \
     %d },\n"
    sweep_summary.Wd_harness.Sweep.s_scenario_worlds
    sweep_summary.Wd_harness.Sweep.s_fault_free_worlds
    sweep_summary.Wd_harness.Sweep.s_fleet_worlds;
  bpf
    "    \"oracle\": { \"ok\": %d, \"expect_detect\": %d, \"detected\": %d, \
     \"unexpected_detect\": %d, \"false_alarms\": %d }\n"
    sweep_summary.Wd_harness.Sweep.s_ok
    sweep_summary.Wd_harness.Sweep.s_expect_detect
    sweep_summary.Wd_harness.Sweep.s_detected
    sweep_summary.Wd_harness.Sweep.s_unexpected_detect
    sweep_summary.Wd_harness.Sweep.s_false_alarms;
  bpf "  },\n";
  (* fleet plane: one limplock cell, one leader-failover cell, and the two
     correlated cells on the asymmetric 9-node heterogeneous fabric; the
     latencies are sim-time (deterministic), the wall clocks are host *)
  let module Csim = Wd_cluster.Sim in
  let fleet_cell csid = wall (fun () -> Csim.run csid) in
  let hetero_cell csid =
    wall (fun () ->
        Csim.run
          ~cfg:
            {
              Csim.default_config with
              topology = Wd_cluster.Topology.hetero9 ();
            }
          csid)
  in
  let limp, limp_s = fleet_cell "fleet-limplock" in
  let fail, fail_s = fleet_cell "fleet-leader-limplock" in
  let alp, alp_s = hetero_cell "fleet-limplock-partition" in
  let asl, asl_s = hetero_cell "fleet-slow-link-gray" in
  let ms = function Some v -> Int64.to_float v /. 1e6 | None -> -1. in
  let converge (r : Csim.result) =
    match r.Csim.cr_converged_at with
    | Some at when at > r.Csim.cr_inject_at ->
        Some (Int64.sub at r.Csim.cr_inject_at)
    | Some _ | None -> None
  in
  let fleet_row label (r : Csim.result) wall_s comma =
    bpf
      "    \"%s\": { \"wall_s\": %.3f, \"detect_ms\": %.1f, \
       \"mttr_ms\": %.1f, \"ok\": %b }%s\n"
      label wall_s
      (ms r.Csim.cr_first_latency)
      (ms r.Csim.cr_first_recovery_latency)
      r.Csim.cr_as_expected comma
  in
  bpf "  \"fleet\": {\n";
  fleet_row "limplock" limp limp_s ",";
  bpf
    "    \"leader_failover\": { \"wall_s\": %.3f, \"detect_ms\": %.1f, \
     \"mttr_ms\": %.1f, \"election_converge_ms\": %.1f, \"elections\": %d },\n"
    fail_s
    (ms fail.Csim.cr_first_latency)
    (ms fail.Csim.cr_first_recovery_latency)
    (ms (converge fail)) fail.Csim.cr_elections;
  (* asymmetric-fabric detection latency and MTTR: the tentpole numbers a
     perf or fabric PR must not regress *)
  fleet_row "asym9_limplock_partition" alp alp_s ",";
  fleet_row "asym9_slow_link_gray" asl asl_s "";
  bpf "  },\n";
  (* E21 rows: per-deployment, per-family coverage / median latency /
     false positives, plus the deterministic sim-event overhead *)
  bpf "  \"race\": {\n";
  bpf "    \"mined_runs\": %d,\n" race.Experiments.e21_mined_runs;
  bpf "    \"mined_events\": %d,\n" race.Experiments.e21_mined_events;
  bpf "    \"model_digest\": \"%s\",\n" race.Experiments.e21_model_digest;
  bpf "    \"mining_deterministic\": %b,\n" mining_deterministic;
  bpf "    \"invariants\": { %s },\n"
    (String.concat ", "
       (List.map
          (fun (sys, n) -> Printf.sprintf "\"%s\": %d" sys n)
          race.Experiments.e21_invariants));
  bpf "    \"deploys\": [\n";
  List.iteri
    (fun i (d : Experiments.e21_deploy) ->
      bpf
        "      { \"label\": \"%s\", \"any_detected\": %d, \"total\": %d, \
         \"false_positives\": %d, \"checkers\": %d, \"sim_events\": %d, \
         \"overhead_pct\": %.1f,\n"
        d.Experiments.e21d_label d.Experiments.e21d_any
        d.Experiments.e21d_total d.Experiments.e21d_fp
        d.Experiments.e21d_checkers d.Experiments.e21d_sim_events
        d.Experiments.e21d_overhead_pct;
      bpf "        \"families\": { ";
      List.iteri
        (fun j (f : Experiments.e21_family) ->
          let median_ms =
            if f.Experiments.e21f_latency.Wd_harness.Metrics.ls_count = 0 then
              -1.
            else
              Int64.to_float f.Experiments.e21f_latency.Wd_harness.Metrics.ls_median
              /. 1e6
          in
          bpf
            "\"%s\": { \"detected\": %d, \"total\": %d, \"median_ms\": %.1f, \
             \"fp\": %d }%s"
            f.Experiments.e21f_family f.Experiments.e21f_detected
            f.Experiments.e21f_total median_ms f.Experiments.e21f_fp
            (if j = List.length d.Experiments.e21d_families - 1 then ""
             else ", "))
        d.Experiments.e21d_families;
      bpf " } }%s\n"
        (if i = List.length race.Experiments.e21_deploys - 1 then "" else ",")
      )
    race.Experiments.e21_deploys;
  bpf "    ]\n";
  bpf "  },\n";
  (* E22 rows: heavy-traffic load per workload and deployment; requests,
     accuracy, virtual-time throughput/percentiles (host-independent), the
     watchdog's sim-event overhead and latency inflation vs the wd-off row,
     and detection latency of a mid-load fault *)
  bpf "  \"load\": {\n";
  bpf "    \"requests_per_row\": %d,\n" load_requests;
  bpf "    \"total_requests\": %d,\n" load.Experiments.e22_total_requests;
  bpf "    \"wall_s\": %.1f,\n" load_s;
  bpf "    \"workloads\": [\n";
  List.iteri
    (fun i (w : Experiments.e22_workload) ->
      bpf "      { \"label\": \"%s\", \"gen\": \"%s\", \"requests\": %d,\n"
        w.Experiments.e22w_label w.Experiments.e22w_gen
        w.Experiments.e22w_requests;
      bpf "        \"rows\": [\n";
      List.iteri
        (fun j (row : Experiments.e22_row) ->
          let l = row.Experiments.e22r_load in
          bpf
            "          { \"deploy\": \"%s\", \"requests\": %d, \"ok_ratio\": \
             %.4f, \"shed\": %d, \"throughput_rps\": %.0f, \"p50_us\": %.1f, \
             \"p99_us\": %.1f, \"sim_events\": %d, \"overhead_pct\": %.2f, \
             \"p50_x\": %.3f, \"p99_x\": %.3f, \"detect_ms\": %.1f }%s\n"
            row.Experiments.e22r_deploy l.Loadgen.lr_requests
            (Loadgen.success_ratio l) l.Loadgen.lr_shed
            (Loadgen.throughput_rps l)
            (Int64.to_float l.Loadgen.lr_p50 /. 1e3)
            (Int64.to_float l.Loadgen.lr_p99 /. 1e3)
            row.Experiments.e22r_sim_events row.Experiments.e22r_overhead_pct
            row.Experiments.e22r_p50_x row.Experiments.e22r_p99_x
            (ms row.Experiments.e22r_detect)
            (if j = List.length w.Experiments.e22w_rows - 1 then "" else ","))
        w.Experiments.e22w_rows;
      bpf "        ] }%s\n"
        (if i = List.length load.Experiments.e22_workloads - 1 then ""
         else ","))
    load.Experiments.e22_workloads;
  bpf "    ]\n";
  bpf "  },\n";
  (* v6: minor-allocation per simulated request, the number the
     allocation-discipline refactor is accountable for *)
  bpf "  \"alloc\": {\n";
  bpf "    \"workload\": \"zkmini\",\n";
  bpf "    \"wall_s\": %.1f,\n" alloc_s;
  bpf "    \"budget_bytes_per_req\": 30000,\n";
  bpf "    \"rows\": [\n";
  List.iteri
    (fun i (r : Experiments.e22_alloc_row) ->
      bpf
        "      { \"deploy\": \"%s\", \"requests\": %d, \
         \"minor_words_per_req\": %.1f, \"bytes_per_req\": %.0f }%s\n"
        r.Experiments.e22a_deploy r.Experiments.e22a_requests
        r.Experiments.e22a_words_per_req r.Experiments.e22a_bytes_per_req
        (if i = List.length alloc_rows - 1 then "" else ","))
    alloc_rows;
  bpf "    ]\n";
  bpf "  },\n";
  (* v7: the E23 scheduling frontier — one row per scheduling mode, the
     overhead-vs-detection-latency trade the adaptive scheduler buys *)
  bpf "  \"frontier\": {\n";
  bpf "    \"requests_per_run\": %d,\n" frontier.Experiments.e23_requests;
  bpf "    \"scenarios\": %d,\n" frontier.Experiments.e23_scenarios;
  bpf "    \"wall_s\": %.1f,\n" frontier_s;
  bpf "    \"rows\": [\n";
  List.iteri
    (fun i (r : Experiments.e23_row) ->
      bpf
        "      { \"mode\": \"%s\", \"policy\": \"%s\", \"overhead_pct\": \
         %.3f, \"sched_events\": %d, \"sched_cut_pct\": %.1f, \"p99_x\": \
         %.3f, \"load_detect_ms\": %.1f, \"detected\": %d, \"catalog\": %d, \
         \"worst_detect_ms\": %.1f, \"mean_detect_ms\": %.1f, \"runs\": %d, \
         \"dedup_skips\": %d, \"shared_syncs\": %d, \"throttle_peak\": %.0f \
         }%s\n"
        r.Experiments.e23f_mode r.Experiments.e23f_policy
        r.Experiments.e23f_overhead_pct r.Experiments.e23f_sched_events
        r.Experiments.e23f_sched_cut_pct r.Experiments.e23f_p99_x
        (ms r.Experiments.e23f_load_detect)
        r.Experiments.e23f_detected r.Experiments.e23f_catalog
        (ms r.Experiments.e23f_worst_detect)
        (ms r.Experiments.e23f_mean_detect)
        r.Experiments.e23f_runs r.Experiments.e23f_dedup_skips
        r.Experiments.e23f_shared_syncs r.Experiments.e23f_throttle_peak
        (if i = List.length frontier.Experiments.e23_rows - 1 then ""
         else ","))
    frontier.Experiments.e23_rows;
  bpf "    ]\n";
  bpf "  },\n";
  bpf "  \"analysis_cache\": { \"cold_ms\": %.3f, \"hit_ms\": %.4f },\n"
    (1e3 *. cold_s) (1e3 *. hit_s);
  bpf "  \"interp\": {\n";
  bpf
    "    \"stmt_loop\": { \"stmts\": %d, \"wall_s\": %.3f, \
     \"stmts_per_s\": %.0f },\n"
    stmts stmt_s (per_s stmts stmt_s);
  bpf
    "    \"call_loop\": { \"calls\": %d, \"wall_s\": %.3f, \
     \"calls_per_s\": %.0f, \"stmts\": %d, \"stmts_per_s\": %.0f },\n"
    calls call_s (per_s calls call_s) cstmts (per_s cstmts call_s);
  let agg_stmts = stmts + cstmts and agg_s = stmt_s +. call_s in
  bpf
    "    \"aggregate\": { \"stmts\": %d, \"wall_s\": %.3f, \
     \"stmts_per_s\": %.0f, \"pct_of_1e8_target\": %.1f }\n"
    agg_stmts agg_s (per_s agg_stmts agg_s)
    (100. *. per_s agg_stmts agg_s /. 1e8);
  bpf "  }\n";
  bpf "}\n";
  let json = Buffer.contents buf in
  let oc = open_out "BENCH_harness.json" in
  output_string oc json;
  close_out oc;
  print_string json;
  Printf.printf "-> wrote BENCH_harness.json\n%!";
  if not deterministic then begin
    prerr_endline "ERROR: campaign results differ across jobs widths";
    exit 1
  end;
  if not sweep_identical then begin
    prerr_endline "ERROR: sweep outcomes differ across jobs widths";
    exit 1
  end;
  if not mining_deterministic then begin
    prerr_endline "ERROR: inferred-model digest differs across jobs widths";
    exit 1
  end;
  if inferred_alone.Experiments.e21f_fp > 0 then begin
    prerr_endline "ERROR: inferred checkers false-alarmed on fault-free runs";
    exit 1
  end;
  if
    2 * inferred_alone.Experiments.e21f_detected
    < inferred_alone.Experiments.e21f_total
  then begin
    prerr_endline "ERROR: inferred-only coverage fell below half the catalog";
    exit 1
  end;
  (* jobs-scaling gate: any campaign point that actually got >= 2 domains
     must show real speedup over the width-1 run; on a single-core host
     every point is effective width 1 and the gate is vacuous *)
  List.iter
    (fun (j, _, secs, _, _) ->
      if effective j >= 2 && secs1 /. Float.max 1e-9 secs < 1.2 then begin
        Printf.eprintf
          "ERROR: campaign jobs curve at effective width %d speedup %.2f < \
           1.2\n"
          (effective j)
          (secs1 /. Float.max 1e-9 secs);
        exit 1
      end)
    curve;
  (* load-plane gates: the gated rows of the v5 schema. Single-node
     workloads must field all three deployments at >= 10^6 completed
     requests with a clean oracle (every request answered, nothing shed)
     and a measured detection latency under load; the fleet row must be
     present and clean. *)
  let load_fail msg =
    prerr_endline ("ERROR: load gate: " ^ msg);
    exit 1
  in
  let check_row ~wl ~need_detect (row : Experiments.e22_row) =
    let l = row.Experiments.e22r_load in
    if Loadgen.success_ratio l < 0.99 then
      load_fail
        (Printf.sprintf "%s/%s ok ratio %.4f < 0.99" wl
           row.Experiments.e22r_deploy (Loadgen.success_ratio l));
    if l.Loadgen.lr_shed > 0 then
      load_fail
        (Printf.sprintf "%s/%s shed %d requests" wl row.Experiments.e22r_deploy
           l.Loadgen.lr_shed);
    if need_detect && row.Experiments.e22r_detect = None then
      load_fail
        (Printf.sprintf "%s/%s did not detect the mid-load fault" wl
           row.Experiments.e22r_deploy)
  in
  List.iter
    (fun wl ->
      match
        List.find_opt
          (fun (w : Experiments.e22_workload) -> w.Experiments.e22w_label = wl)
          load.Experiments.e22_workloads
      with
      | None -> load_fail (wl ^ " workload row missing")
      | Some w ->
          if w.Experiments.e22w_requests < 1_000_000 then
            load_fail
              (Printf.sprintf "%s completed %d requests < 1e6" wl
                 w.Experiments.e22w_requests);
          List.iter
            (fun deploy ->
              match
                List.find_opt
                  (fun (r : Experiments.e22_row) ->
                    r.Experiments.e22r_deploy = deploy)
                  w.Experiments.e22w_rows
              with
              | None -> load_fail (wl ^ "/" ^ deploy ^ " row missing")
              | Some row ->
                  check_row ~wl ~need_detect:(deploy <> "wd-off") row)
            [ "wd-off"; "wd-on"; "inferred-on" ])
    [ "zkmini"; "cstore" ];
  (match
     List.find_opt
       (fun (w : Experiments.e22_workload) ->
         w.Experiments.e22w_gen = "fleet")
       load.Experiments.e22_workloads
   with
  | None -> load_fail "fleet workload row missing"
  | Some w ->
      List.iter (check_row ~wl:w.Experiments.e22w_label ~need_detect:false)
        w.Experiments.e22w_rows);
  (* latency-identity gate: the watchdog runs off the request path, so in
     virtual time its presence must not move client percentiles at all —
     wd-on p50/p99 bit-identical to the wd-off baseline *)
  List.iter
    (fun (w : Experiments.e22_workload) ->
      if w.Experiments.e22w_gen <> "fleet" then
        List.iter
          (fun (row : Experiments.e22_row) ->
            if
              row.Experiments.e22r_deploy = "wd-on"
              && (row.Experiments.e22r_p50_x <> 1.
                 || row.Experiments.e22r_p99_x <> 1.)
            then
              load_fail
                (Printf.sprintf
                   "%s/wd-on p50/p99 not bit-identical to wd-off (x%.6f/x%.6f)"
                   w.Experiments.e22w_label row.Experiments.e22r_p50_x
                   row.Experiments.e22r_p99_x))
          w.Experiments.e22w_rows)
    load.Experiments.e22_workloads;
  (* allocation gate (v6): the refactor's budget — wd-on minor allocation
     per simulated request stays within 30 KB (the seed spent ~55 KB) *)
  (match
     List.find_opt
       (fun (r : Experiments.e22_alloc_row) ->
         r.Experiments.e22a_deploy = "wd-on")
       alloc_rows
   with
  | None ->
      prerr_endline "ERROR: alloc gate: wd-on row missing";
      exit 1
  | Some r ->
      if r.Experiments.e22a_bytes_per_req > 30_000. then begin
        Printf.eprintf
          "ERROR: alloc gate: wd-on %.0f bytes/request exceeds the 30000 \
           budget\n"
          r.Experiments.e22a_bytes_per_req;
        exit 1
      end);
  (* frontier gates (v7): the adaptive scheduler must cut the
     checker-scheduling event component by >= 30% vs the fixed baseline
     while keeping full-catalog coverage and staying within 2x the fixed
     worst-case detection latency *)
  let frontier_fail msg =
    prerr_endline ("ERROR: frontier gate: " ^ msg);
    exit 1
  in
  let frontier_row mode =
    match
      List.find_opt
        (fun (r : Experiments.e23_row) -> r.Experiments.e23f_mode = mode)
        frontier.Experiments.e23_rows
    with
    | Some r -> r
    | None -> frontier_fail (mode ^ " row missing")
  in
  let fx = frontier_row "fixed" in
  let ad = frontier_row "adaptive" in
  if ad.Experiments.e23f_sched_cut_pct < 30. then
    frontier_fail
      (Printf.sprintf "adaptive scheduling-overhead cut %.1f%% < 30%%"
         ad.Experiments.e23f_sched_cut_pct);
  if ad.Experiments.e23f_detected < fx.Experiments.e23f_detected then
    frontier_fail
      (Printf.sprintf "adaptive catalog coverage %d/%d below fixed %d/%d"
         ad.Experiments.e23f_detected ad.Experiments.e23f_catalog
         fx.Experiments.e23f_detected fx.Experiments.e23f_catalog);
  match
    (fx.Experiments.e23f_worst_detect, ad.Experiments.e23f_worst_detect)
  with
  | Some f, Some a ->
      if a > Int64.mul 2L f then
        frontier_fail
          (Printf.sprintf
             "adaptive worst-case detection %.1f ms > 2x fixed %.1f ms"
             (Int64.to_float a /. 1e6)
             (Int64.to_float f /. 1e6))
  | _ -> frontier_fail "worst-case detection latency missing"

let () =
  let argv = Array.to_list Sys.argv in
  (* same --jobs/--seed flags as repro, via the shared scanner
     (bechamel owns argv, so no cmdliner here); --json stays bench-local *)
  let opts =
    match Wd_harness.Cli.scan argv with
    | Ok o -> o
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
  in
  Wd_harness.Cli.apply_opts opts;
  if List.mem "--json" argv then
    let jobs_n =
      match opts.Wd_harness.Cli.o_jobs with
      | Some n -> n
      | None -> Wd_parallel.Pool.default_jobs ()
    in
    run_json_bench ~jobs_n ()
  else begin
    run_microbenches ();
    (* Part 2: every table and figure of the paper. *)
    List.iter
      (fun (name, f) ->
        Printf.printf "\n================ %s ================\n\n%!" name;
        print_string (f ()))
      (Wd_harness.Experiments.all_texts ())
  end
