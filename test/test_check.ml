(* Tests for the hard gates of `repro check` (Wd_harness.Check). Each gate
   family gets a record sitting exactly on its bounds, which must pass,
   and the same record moved one step past a bound, which must trip that
   gate and no other. *)

open Wd_harness
module E = Experiments
module Time = Wd_sim.Time

let failed gates =
  List.filter_map
    (fun g -> if g.Check.pass then None else Some g.Check.name)
    gates

let all_pass name gates =
  Alcotest.(check (list string)) (name ^ ": no gate fails") [] (failed gates)

let trips name expected gates =
  Alcotest.(check (list string)) (name ^ ": failing gates") expected
    (failed gates)

(* --- widths and identity -------------------------------------------- *)

let point ?(result = 0) jobs effective secs =
  { Check.wr_jobs = jobs; wr_effective = effective; wr_secs = secs;
    wr_result = result }

let test_widths () =
  (* width 2 at exactly 1.2x the width-1 wall *)
  let curve base = [ point 1 1 base; point 2 2 1.0; point 4 2 1.0 ] in
  all_pass "speedup 1.2x" (Check.jobs_curve (curve 1.2));
  trips "speedup below 1.2x"
    [ "e2.jobs_curve.speedup@2"; "e2.jobs_curve.speedup@4" ]
    (Check.jobs_curve (curve 1.19));
  (* a host that never ran two domains cannot pass the curve *)
  trips "single domain" [ "e2.jobs_curve.max_width" ]
    (Check.jobs_curve [ point 1 1 1.0; point 2 1 0.5 ])

let test_identity () =
  let runs r4 =
    [ point ~result:7 1 1 1.; point ~result:7 2 2 1.; point ~result:r4 4 2 1. ]
  in
  all_pass "identical" [ Check.identical "e20.identical" (runs 7) ];
  trips "one width differs" [ "e20.identical" ]
    [ Check.identical "e20.identical" (runs 8) ]

(* --- E21 race --------------------------------------------------------- *)

let race ?(digest = "d") ~detected ~fp () =
  let family =
    { E.e21f_family = "inferred"; e21f_detected = detected; e21f_total = 20;
      e21f_latency = Metrics.latency_stats_of [] ~total:20; e21f_fp = fp }
  in
  { E.e21_mined_runs = 30; e21_mined_events = 0; e21_model_digest = digest;
    e21_invariants = [];
    e21_deploys =
      [ { E.e21d_label = "inferred-only"; e21d_any = detected; e21d_total = 20;
          e21d_families = [ family ]; e21d_fp = fp; e21d_checkers = 1;
          e21d_overhead_pct = 0. } ] }

let test_race () =
  all_pass "half detected, no fp"
    (Check.race (race ~detected:10 ~fp:0 ()) ~digest_w1:"d");
  trips "below half" [ "e21.inferred-only/inferred.detected" ]
    (Check.race (race ~detected:9 ~fp:0 ()) ~digest_w1:"d");
  trips "one false positive" [ "e21.inferred-only/inferred.fp" ]
    (Check.race (race ~detected:10 ~fp:1 ()) ~digest_w1:"d");
  trips "digest differs" [ "e21.mining_digest" ]
    (Check.race (race ~digest:"e" ~detected:10 ~fp:0 ()) ~digest_w1:"d")

(* --- E22 load ----------------------------------------------------------- *)

let load_result ~requests ~ok ~shed =
  { Loadgen.lr_label = "w"; lr_requests = requests; lr_ok = ok; lr_err = 0;
    lr_timeout = requests - ok; lr_shed = shed; lr_sim_ns = Time.sec 1;
    lr_wall_s = 0.; lr_p50 = 0L; lr_p90 = 0L; lr_p99 = 0L; lr_mean = 0L;
    lr_max = 0L }

let row ?(ok = 99) ?(shed = 0) ?(detect = Some (Time.ms 5)) ?(p99_x = 1.)
    deploy =
  { E.e22r_deploy = deploy; e22r_load = load_result ~requests:100 ~ok ~shed;
    e22r_sim_events = 0; e22r_overhead_pct = 0.; e22r_p50_x = 1.;
    e22r_p99_x = p99_x;
    e22r_detect = (if deploy = "wd-off" then None else detect) }

let workload ?(requests = 1_000_000) ?(wd_on = row "wd-on") label gen =
  { E.e22w_label = label; e22w_gen = gen; e22w_requests = requests;
    e22w_rows = [ row "wd-off"; wd_on; row "inferred-on" ] }

let zkmini ?requests ?wd_on () = workload ?requests ?wd_on "zkmini" "closed"
let cstore ?wd_on () = workload ?wd_on "cstore" "open"

let load ?(zk = zkmini ()) ?(cs = cstore ()) ?(fleet = true) () =
  let fleet =
    if fleet then
      [ { E.e22w_label = "fleet-zkmini-3"; e22w_gen = "fleet";
          e22w_requests = 100; e22w_rows = [ row "wd-on" ] } ]
    else []
  in
  { E.e22_workloads = [ zk; cs ] @ fleet; e22_total_requests = 0 }

let test_load () =
  all_pass "on every bound" (Check.load (load ()));
  trips "zkmini one request short" [ "e22.zkmini.requests" ]
    (Check.load (load ~zk:(zkmini ~requests:999_999 ()) ()));
  trips "ok ratio 0.98" [ "e22.cstore/wd-on.ok_ratio" ]
    (Check.load (load ~cs:(cstore ~wd_on:(row ~ok:98 "wd-on") ()) ()));
  trips "one request shed" [ "e22.cstore/wd-on.shed" ]
    (Check.load (load ~cs:(cstore ~wd_on:(row ~shed:1 "wd-on") ()) ()));
  trips "no detection" [ "e22.zkmini/wd-on.detect" ]
    (Check.load (load ~zk:(zkmini ~wd_on:(row ~detect:None "wd-on") ()) ()));
  trips "p99 moved" [ "e22.zkmini/wd-on.latency_x" ]
    (Check.load
       (load ~zk:(zkmini ~wd_on:(row ~p99_x:(Float.succ 1.) "wd-on") ()) ()));
  trips "fleet missing" [ "e22.fleet" ] (Check.load (load ~fleet:false ()))

(* --- allocation --------------------------------------------------------- *)

let alloc_row ?(requests = 20_000) ?(bytes = 8_500.) deploy =
  { E.e22a_deploy = deploy; e22a_requests = requests;
    e22a_words_per_req = bytes /. 8.; e22a_bytes_per_req = bytes }

let test_alloc () =
  all_pass "8500 B" (Check.alloc [ alloc_row "wd-off"; alloc_row "wd-on" ]);
  trips "one byte over" [ "alloc.wd-on.bytes_per_req" ]
    (Check.alloc [ alloc_row "wd-off"; alloc_row ~bytes:8_501. "wd-on" ]);
  trips "no requests" [ "alloc.wd-off.requests" ]
    (Check.alloc [ alloc_row ~requests:0 "wd-off"; alloc_row "wd-on" ]);
  trips "wd-off missing" [ "alloc.wd-off" ] (Check.alloc [ alloc_row "wd-on" ])

(* --- E23 frontier ------------------------------------------------------- *)

let frontier_row ?(cut = 0.) ?(detected = 20) ?(worst = Some (Time.sec 1))
    ?(dedup = 0) mode =
  { E.e23f_mode = mode; e23f_policy = mode; e23f_overhead_pct = 0.;
    e23f_sched_events = 0; e23f_sched_cut_pct = cut; e23f_p99_x = 1.;
    e23f_load_detect = None; e23f_detected = detected; e23f_catalog = 23;
    e23f_worst_detect = worst; e23f_mean_detect = None; e23f_runs = 0;
    e23f_dedup_skips = dedup; e23f_shared_syncs = 0; e23f_throttle_peak = 1. }

let frontier ?(cut = 30.) ?(detected = 20) ?(worst = Some (Time.sec 2))
    ?(dedup = 1) ?(relaxed = true) () =
  [ frontier_row "fixed"; frontier_row ~cut ~detected ~worst ~dedup "adaptive" ]
  @ if relaxed then [ frontier_row "adaptive-relaxed" ] else []

let test_frontier () =
  all_pass "on every bound" (Check.frontier (frontier ()));
  trips "cut 29.9%" [ "e23.adaptive.sched_cut" ]
    (Check.frontier (frontier ~cut:29.9 ()));
  trips "one scenario fewer" [ "e23.adaptive.detected" ]
    (Check.frontier (frontier ~detected:19 ()));
  trips "worst 1ns over 2x" [ "e23.adaptive.worst_detect" ]
    (Check.frontier (frontier ~worst:(Some (Int64.succ (Time.sec 2))) ()));
  trips "worst missing" [ "e23.worst_detect.present" ]
    (Check.frontier (frontier ~worst:None ()));
  trips "no dedup" [ "e23.adaptive.dedup_skips" ]
    (Check.frontier (frontier ~dedup:0 ()));
  trips "relaxed row missing" [ "e23.modes" ]
    (Check.frontier (frontier ~relaxed:false ()))

(* --- every failure is reported ------------------------------------------ *)

let test_reports_every_failure () =
  trips "two frontier gates"
    [ "e23.adaptive.sched_cut"; "e23.adaptive.dedup_skips" ]
    (Check.frontier (frontier ~cut:29.9 ~dedup:0 ()));
  (* a family that raises neither hides the failures after it nor stops
     the families after it *)
  let seen = ref 0 in
  let gates =
    Check.evaluate
      [ ("boom", fun () -> failwith "boom");
        ( "alloc",
          fun () ->
            Check.alloc [ alloc_row "wd-off"; alloc_row ~bytes:8_501. "wd-on" ]
        );
        ("e23", fun () -> Check.frontier (frontier ())) ]
      (fun _ -> incr seen)
  in
  trips "across families" [ "boom"; "alloc.wd-on.bytes_per_req" ] gates;
  Alcotest.(check int) "every gate emitted" (List.length gates) !seen

let () =
  Alcotest.run "wd_check"
    [
      ( "gates",
        [
          Alcotest.test_case "widths" `Quick test_widths;
          Alcotest.test_case "identity" `Quick test_identity;
          Alcotest.test_case "race" `Quick test_race;
          Alcotest.test_case "load" `Quick test_load;
          Alcotest.test_case "alloc" `Quick test_alloc;
          Alcotest.test_case "frontier" `Quick test_frontier;
          Alcotest.test_case "every failure reported" `Quick
            test_reports_every_failure;
        ] );
    ]
