(* Tests for the randomized fault-space sweep (Wd_harness.Sweep): grid
   determinism from the base seed, generator validity (every world is
   well-formed and built through the validating constructors), and the
   headline guarantee — running a grid across a real multi-domain pool is
   byte-identical to running it sequentially. *)

module Sweep = Wd_harness.Sweep
module Pool = Wd_parallel.Pool
module Catalog = Wd_faults.Catalog
module Topology = Wd_cluster.Topology

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- grid generation --- *)

let test_grid_deterministic () =
  let g1 = Sweep.grid ~seed:42 ~worlds:150 () in
  let g2 = Sweep.grid ~seed:42 ~worlds:150 () in
  check "same seed, same grid" true (g1 = g2);
  check_int "asked-for world count" 150 (List.length g1);
  let g3 = Sweep.grid ~seed:7 ~worlds:150 () in
  check "different seed, different grid" true (g1 <> g3);
  Alcotest.(check (list pass)) "empty grid" [] (Sweep.grid ~worlds:0 ());
  match Sweep.grid ~worlds:(-1) () with
  | _ -> Alcotest.fail "expected Invalid_argument for negative count"
  | exception Invalid_argument _ -> ()

(* Marshal digests (values and sharing) of the 4000-world grids, pinned
   from the generator built on QCheck's list combinators; the array
   pickers that replaced them must make the same draws. *)
let test_grid_pinned () =
  List.iter
    (fun (seed, hex) ->
      let grid = Sweep.grid ~seed ~worlds:4000 () in
      Alcotest.(check string)
        (Printf.sprintf "seed %d grid digest" seed)
        hex
        (Digest.to_hex (Digest.string (Marshal.to_string grid []))))
    [
      (1, "8ea41c7c5cecc71f43693908f830e2ce");
      (42, "58c39ce624ca656b022d8fc4efe17eed");
    ]

let test_grid_validity () =
  let eligible_sids =
    List.filter_map
      (fun (s : Catalog.scenario) ->
        if s.Catalog.special = Some "crash" then None else Some s.Catalog.sid)
      Catalog.all
  in
  let worlds = Sweep.grid ~seed:11 ~worlds:600 () in
  List.iter
    (fun w ->
      match w with
      | Sweep.Scenario_world { sw_sid; sw_warmup; sw_observe; _ } ->
          check ("eligible sid: " ^ sw_sid) true (List.mem sw_sid eligible_sids);
          check "no slow-burn sids in short windows" false
            (List.mem sw_sid [ "kvs-mem-leak"; "cs-compaction-spin" ]);
          check "warmup covers baseline learning" true
            (sw_warmup >= Wd_sim.Time.sec 8);
          check "observe window bounded" true
            (sw_observe >= Wd_sim.Time.sec 12
            && sw_observe <= Wd_sim.Time.sec 15)
      | Sweep.Fault_free_world { ff_system; _ } ->
          check "known system" true
            (List.mem ff_system Wd_harness.Systems.all_systems)
      | Sweep.Fleet_world { fl_csid; fl_topology; _ } ->
          let n = Topology.nodes fl_topology in
          check "fleet size in quorum range" true (n >= 4 && n <= 6);
          (* find validates existence; the scenario must fit the fleet *)
          let s = Wd_faults.Cluster_catalog.find fl_csid in
          check "scenario fits topology" true
            (Wd_faults.Cluster_catalog.max_node_index s < n);
          check "failover cell excluded" true
            (fl_csid <> "fleet-leader-limplock"))
    worlds;
  (* all three world kinds are actually sampled at this size *)
  let count p = List.length (List.filter p worlds) in
  let scenarios =
    count (function Sweep.Scenario_world _ -> true | _ -> false)
  in
  let fault_free =
    count (function Sweep.Fault_free_world _ -> true | _ -> false)
  in
  let fleet = count (function Sweep.Fleet_world _ -> true | _ -> false) in
  check "scenario worlds dominate" true (scenarios > fault_free);
  check "fault-free worlds present" true (fault_free > 0);
  check "fleet worlds present" true (fleet > 0)

(* --- execution: byte-identity and the pinned oracle aggregate ---

   [Pool.global] clamps to the host's core count, so to genuinely exercise
   the multi-domain path on any host the identity test drives an explicit
   uncapped pool ([Pool.with_pool]) against a plain sequential map. *)

let test_parallel_byte_identity () =
  let worlds = Sweep.grid ~seed:42 ~worlds:60 () in
  let seq = List.map Sweep.run_world worlds in
  let par =
    Pool.with_pool ~jobs:4 (fun p -> Pool.map p Sweep.run_world worlds)
  in
  check "jobs=4 outcomes byte-identical to sequential" true (seq = par);
  Alcotest.(check string)
    "digests agree" (Sweep.digest seq) (Sweep.digest par);
  (* the public entry point (persistent pool) agrees too, at any width *)
  let _, via_run = Sweep.run ~jobs:4 ~seed:42 ~worlds:60 () in
  check "Sweep.run agrees with sequential map" true (seq = via_run);
  (* pinned aggregate for the seed-42 60-world grid: any drift in the
     generators, catalog, detectors or scheduler shows up here first *)
  let s = Sweep.summarize ~seed:42 seq in
  check_int "worlds" 60 s.Sweep.s_worlds;
  check_int "scenario worlds" 50 s.Sweep.s_scenario_worlds;
  check_int "fault-free worlds" 8 s.Sweep.s_fault_free_worlds;
  check_int "fleet worlds" 2 s.Sweep.s_fleet_worlds;
  check_int "oracle ok" 60 s.Sweep.s_ok;
  check_int "expected detections" 48 s.Sweep.s_expect_detect;
  check_int "actual detections" 48 s.Sweep.s_detected;
  check_int "unexpected detections" 0 s.Sweep.s_unexpected_detect;
  check_int "false alarms" 0 s.Sweep.s_false_alarms

(* --- the 1000-world sweep's single honest miss, pinned by name ---

   The full seed-42 E20 grid grades 999/1000 worlds against their oracles;
   the one miss is this kvs-deadlock world. Diagnosis (see also
   test_infer's race test): at seed 15233 the AB/BA lock collision only
   wedges ~18s after injection — 3s past the world's 15s observe window —
   so the miss is a window long-tail, not a detector gap. If this test
   starts failing because the world is suddenly detected, the interleaving
   or the detectors changed: re-run the full sweep (repro faultspace) and
   move this pin to whatever the new aggregate says. *)

let missed_world =
  Sweep.Scenario_world
    {
      sw_sid = "kvs-deadlock";
      sw_mode = Wd_harness.Systems.Wd_generated;
      sw_seed = 15233;
      sw_warmup = Wd_sim.Time.sec 8;
      sw_observe = Wd_sim.Time.sec 15;
    }

let test_pinned_e20_miss () =
  Alcotest.(check string)
    "world identity"
    "scenario:kvs-deadlock:generated:seed=15233:w=8s:o=15s"
    (Sweep.world_id missed_world);
  let o = Sweep.run_world missed_world in
  check "oracle expects a detection" true o.Sweep.o_expect_detect;
  check "the window long-tail still escapes" false o.Sweep.o_detected;
  check_int "and without false alarms" 0 o.Sweep.o_false_alarms;
  check "graded as a miss" false o.Sweep.o_ok

let () =
  Alcotest.run "wd_sweep"
    [
      ( "grid",
        [
          Alcotest.test_case "deterministic from seed" `Quick
            test_grid_deterministic;
          Alcotest.test_case "every world well-formed" `Quick
            test_grid_validity;
          Alcotest.test_case "pinned 4000-world digests" `Quick
            test_grid_pinned;
        ] );
      ( "run",
        [
          Alcotest.test_case "parallel byte-identity + pinned aggregate"
            `Slow test_parallel_byte_identity;
          Alcotest.test_case "pinned E20 long-tail miss" `Quick
            test_pinned_e20_miss;
        ] );
    ]
