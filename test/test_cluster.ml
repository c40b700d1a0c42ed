(* End-to-end tests for the fleet aggregation plane (wd_cluster): each case
   boots a full 5-node cstore fleet in one deterministic scheduler world,
   injects one cluster-scoped scenario, and checks the fleet plane's
   verdicts. cstore cells are used throughout — they are an order of
   magnitude cheaper than zkmini, and the correlation rules under test are
   system-agnostic. *)

module Sim = Wd_cluster.Sim
module Fleet = Wd_cluster.Fleet
module Topology = Wd_cluster.Topology
module Membership = Wd_cluster.Membership
module Election = Wd_cluster.Election
module Catalog = Wd_faults.Cluster_catalog

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cstore_cfg =
  {
    Sim.default_config with
    Sim.topology = Topology.uniform ~nodes:5 Topology.Cstore;
  }

let run csid = Sim.run ~cfg:cstore_cfg csid

let test_limplock_indicts_victim () =
  let r = run "fleet-limplock" in
  Alcotest.(check (list string)) "victim indicted" [ "n2" ] r.Sim.cr_indicted_nodes;
  check "no link indicted" true (r.Sim.cr_indicted_links = []);
  check "graded as expected" true r.Sim.cr_as_expected;
  check "component named" true (r.Sim.cr_component <> None);
  let truth =
    Catalog.truth_components (Catalog.find "fleet-limplock") ~system:"cstore"
  in
  (match r.Sim.cr_component with
  | Some c -> check "component in truth set" true (List.mem c truth)
  | None -> ());
  check "detection latency recorded" true (r.Sim.cr_first_latency <> None)

let test_asym_partition_indicts_links () =
  let r = run "fleet-asym-partition" in
  check "no node indicted" true (r.Sim.cr_indicted_nodes = []);
  check "cut pair indicted" true
    (List.mem ("n1", "n3") r.Sim.cr_indicted_links);
  check "graded as expected" true r.Sim.cr_as_expected

let test_overload_stays_quiet () =
  let r = run "fleet-overload" in
  check "no node indicted" true (r.Sim.cr_indicted_nodes = []);
  check "no link indicted" true (r.Sim.cr_indicted_links = []);
  check "overload recognised" true r.Sim.cr_overloaded;
  check "graded as expected" true r.Sim.cr_as_expected

let test_fault_free_stays_quiet () =
  let r = run "fleet-fault-free" in
  check "no node indicted" true (r.Sim.cr_indicted_nodes = []);
  check "no link indicted" true (r.Sim.cr_indicted_links = []);
  check "no overload recorded" false r.Sim.cr_overloaded;
  check "graded as expected" true r.Sim.cr_as_expected;
  check "membership stayed busy" true (r.Sim.cr_membership_events = 0);
  check "checkers attached fleet-wide" true (r.Sim.cr_checker_count > 0);
  check "workload healthy" true (r.Sim.cr_workload_ok > 0.9)

(* A cell is a pure function of (seed, system, scenario): two runs of the
   same cell must produce structurally identical results — the property the
   campaign engine relies on to fan cells over domains. *)
let test_cell_determinism () =
  let a = run "fleet-limplock" in
  let b = run "fleet-limplock" in
  check "identical results" true (a = b);
  let c = Sim.run ~cfg:{ cstore_cfg with Sim.seed = 7 } "fleet-limplock" in
  check_int "seed recorded" 7 c.Sim.cr_seed

(* --- decentralized plane: flap tolerance, oracle, failover ------------- *)

(* A transient link flap (1.2s drop window, under both the suspicion
   timeout and the probe-failure threshold's reach) must ride out without
   suspicion, indictment, or leadership churn. *)
let test_link_flap_stays_quiet () =
  let r = run "fleet-link-flap" in
  check "no node indicted" true (r.Sim.cr_indicted_nodes = []);
  check "no link indicted" true (r.Sim.cr_indicted_links = []);
  check "graded as expected" true r.Sim.cr_as_expected;
  check "no suspicion across a single flap" true (r.Sim.cr_suspected_events = 0);
  check "leadership undisturbed" true
    (r.Sim.cr_final_leaders = [ "n0" ] && r.Sim.cr_elections = 0)

(* --- correlated scenarios: verdict priority under compound faults ------ *)

(* A limplocked node plus an unrelated partial partition, injected
   together: the node verdict must win the rule-priority race, and the cut
   must neither shift blame onto a healthy node nor surface as a second
   (link) indictment — rule 3 is suppressed while the victim has no
   healthy link. *)
let test_correlated_limplock_partition () =
  let r = run "fleet-limplock-partition" in
  Alcotest.(check (list string))
    "limping node indicted" [ "n2" ] r.Sim.cr_indicted_nodes;
  check "no link indicted despite the cut" true (r.Sim.cr_indicted_links = []);
  check "graded as expected" true r.Sim.cr_as_expected;
  check "component named" true (r.Sim.cr_component <> None);
  check "component from the victim's system" true r.Sim.cr_component_ok

(* A gray node whose report path to the leader also limps (200x slower,
   nothing dropped): shipped evidence arrives late but arrives, and the
   verdict still pins the node, not the fabric. *)
let test_correlated_slow_link_gray () =
  let r = run "fleet-slow-link-gray" in
  Alcotest.(check (list string))
    "limping node indicted" [ "n1" ] r.Sim.cr_indicted_nodes;
  check "slow link not indicted" true (r.Sim.cr_indicted_links = []);
  check "graded as expected" true r.Sim.cr_as_expected;
  check "recovery still commanded" true
    (r.Sim.cr_first_recovery_latency <> None)

(* --- typed topology configs -------------------------------------------- *)

(* Bad configs die when built, not mid-boot: a scenario whose victim index
   falls outside the topology, or a link override naming a node that does
   not exist, is rejected before any scheduler exists. *)
let test_config_time_validation () =
  (match
     Sim.run
       ~cfg:
         {
           cstore_cfg with
           Sim.topology = Topology.uniform ~nodes:3 Topology.Cstore;
         }
       "fleet-limplock-partition"
   with
  | _ -> Alcotest.fail "undersized topology accepted"
  | exception Invalid_argument _ -> ());
  match Topology.with_link (Topology.uniform ~nodes:3 Topology.Cstore)
          ~src:0 ~dst:5 ()
  with
  | _ -> Alcotest.fail "out-of-range link accepted"
  | exception Invalid_argument _ -> ()

(* --- 9-node fleets: membership convergence at larger scale ------------- *)

(* A fault-free 9-node fleet must converge: every agent sees every peer
   answering deep probes, nobody is suspected or accused, and leadership
   stays with n0 with no election ever started. *)
let test_membership_convergence_9node () =
  let topology = Topology.uniform ~nodes:9 Topology.Cstore in
  let w = Sim.boot ~seed:43 ~topology () in
  ignore (Wd_sim.Sched.run ~until:(Wd_sim.Time.sec 8) (Sim.world_sched w));
  let ids = List.init 9 Wd_cluster.Fabric.node_name in
  List.iter
    (fun a ->
      let me = Membership.me a in
      check (me ^ " suspects nobody") true (Membership.suspects a = []);
      check (me ^ " accuses nobody") true (Membership.accused_probe a = []);
      List.iter
        (fun peer ->
          if peer <> me then
            check
              (Fmt.str "%s saw %s answer deep probes" me peer)
              true
              (Membership.probe_ok_count a peer > 0))
        ids)
    (Sim.world_agents w);
  List.iter
    (fun e ->
      check (Election.me e ^ " follows n0") true (Election.leader e = "n0");
      check_int (Election.me e ^ " started no election") 0
        (Election.elections_started e))
    (Sim.world_elections w)

(* The refactor's acceptance oracle: the decentralized plane — reports as
   wire-encoded fabric messages into the elected leader's engine, never a
   cross-node Driver.on_report subscription — reproduces the pre-refactor
   verdict grid exactly, and identically at any --jobs width. Identity with
   the reference tree-walker is checked by test_engine_diff's E17 case. *)
let test_e17_oracle_at_jobs_1_and_n () =
  let module E = Wd_harness.Experiments in
  let module M = Wd_harness.Metrics in
  E.set_jobs 1;
  let r1 = E.e17_run () in
  E.set_jobs (Wd_parallel.Pool.default_jobs ());
  let rn = E.e17_run () in
  check "jobs=1 and jobs=N grids identical" true (r1 = rn);
  (* pre-refactor oracle over the original four-scenario subset *)
  let orig = List.map (fun s -> s.Catalog.csid) Catalog.all in
  let sub = List.filter (fun r -> List.mem r.Sim.cr_csid orig) r1 in
  let s = M.fleet_summary sub in
  check_int "faulty cells" 8 s.M.fs_faulty;
  check_int "8/8 indict the right target" 8 s.M.fs_right;
  check_int "node cells" 4 s.M.fs_node_cells;
  check_int "4/4 name a true component" 4 s.M.fs_component_right;
  check_int "quiet cells" 8 s.M.fs_quiet;
  check_int "0/8 false indictments" 0 s.M.fs_false_indict;
  (* every node indictment now carries recoverable evidence: MTTR present *)
  check "fleet MTTR measured" true (s.M.fs_mttr.M.ls_count = 4);
  (* the evidence behind those verdicts decodes and attributes to the
     mimic family — and the quiet cells contribute no family evidence *)
  Alcotest.(check (list string))
    "family order" Wd_harness.Campaign.intrinsic_families
    (List.map (fun f -> f.M.fam_family) s.M.fs_families);
  let fam name =
    List.find (fun f -> f.M.fam_family = name) s.M.fs_families
  in
  check "mimic evidence backs the node verdicts" true
    ((fam "mimic").M.fam_indictments >= 4);
  check "no family fires on quiet cells" true
    (List.for_all (fun f -> f.M.fam_false_positives = 0) s.M.fs_families);
  (* the flap cells ride along in the extended grid and stay quiet *)
  let flap =
    List.filter (fun r -> r.Sim.cr_csid = "fleet-link-flap") r1
  in
  check_int "flap cells present" 4 (List.length flap);
  check "flap cells all quiet" true
    (List.for_all (fun r -> r.Sim.cr_as_expected) flap)

let e18_fault =
  {
    Wd_env.Faultreg.id = "repro-limplock";
    site_pattern = "disk:*";
    behaviour = Wd_env.Faultreg.Slow_factor 2000.;
    start_at = 0L;
    stop_at = Wd_sim.Time.never;
    once = false;
  }

(* E18: the leader itself goes gray. A successor must win the election,
   indict the old leader from re-shipped wire evidence, command its
   recovery, and the shipped mimic context must replay to the same
   violation class on a node that never saw the failure. *)
let test_leader_failover_recovery_repro () =
  let r = run "fleet-leader-limplock" in
  Alcotest.(check (list string))
    "old leader indicted" [ "n0" ] r.Sim.cr_indicted_nodes;
  check "no link indicted" true (r.Sim.cr_indicted_links = []);
  check "graded as expected" true r.Sim.cr_as_expected;
  (* the verdict was recorded by a successor engine, never by n0 itself *)
  (match r.Sim.cr_events with
  | (owner, _) :: _ -> check "successor recorded the verdict" true (owner <> "n0")
  | [] -> Alcotest.fail "no verdict recorded");
  (* failover happened and converged on one non-n0 leader, boundedly *)
  check "single successor leader" true
    (match r.Sim.cr_final_leaders with [ l ] -> l <> "n0" | _ -> false);
  check "elections ran" true (r.Sim.cr_elections > 0);
  (match r.Sim.cr_converged_at with
  | Some at ->
      let lat = Int64.sub at r.Sim.cr_inject_at in
      check "converged after injection" true (lat > 0L);
      check "converged within 8s" true (lat <= Wd_sim.Time.sec 8)
  | None -> Alcotest.fail "leadership did not converge");
  (match r.Sim.cr_first_latency with
  | Some l -> check "indicted within 8s" true (l <= Wd_sim.Time.sec 8)
  | None -> Alcotest.fail "no detection latency");
  (* the Recover command microrebooted a component on the victim *)
  check "victim microrebooted" true
    (List.exists (fun (n, _) -> n = "n0") r.Sim.cr_recoveries);
  check "recovery latency measured" true
    (r.Sim.cr_first_recovery_latency <> None);
  (* cross-node repro: evidence bytes -> same violation class *)
  (match r.Sim.cr_evidence_wire with
  | None -> Alcotest.fail "no evidence wire shipped"
  | Some wire -> (
      let g =
        Wd_autowatchdog.Generate.analyze_cached (Wd_targets.Cstore.program ())
      in
      let timeout = Wd_sim.Time.ms 100 in
      (match Wd_autowatchdog.Reproduce.run_wire ~fault:e18_fault ~timeout g ~wire with
      | Wd_autowatchdog.Reproduce.Reproduced k ->
          check "liveness violation reproduced" true
            (k = Wd_watchdog.Report.Hang)
      | o ->
          Alcotest.fail
            (Fmt.str "repro under fault: %a"
               Wd_autowatchdog.Reproduce.pp_outcome o));
      (* clean replay passes: the environment, not the payload, is faulty *)
      match Wd_autowatchdog.Reproduce.run_wire ~timeout g ~wire with
      | Wd_autowatchdog.Reproduce.Not_reproduced -> ()
      | o ->
          Alcotest.fail
            (Fmt.str "clean replay: %a" Wd_autowatchdog.Reproduce.pp_outcome o)));
  (* the whole story is a pure function of the seed *)
  let r2 = run "fleet-leader-limplock" in
  check "failover cell deterministic" true (r = r2)

(* E19: the heterogeneous asymmetric-fabric grid is byte-identical at any
   --jobs width, and every cell grades as expected — correlated faults pin
   the limping node on 9- and 15-node mixed fleets, and the asymmetric
   fabric alone indicts nothing. *)
let test_e19_hetero_grid () =
  let module E = Wd_harness.Experiments in
  E.set_jobs 1;
  let r1 = E.e19_run () in
  E.set_jobs (Wd_parallel.Pool.default_jobs ());
  let rn = E.e19_run () in
  check "jobs=1 and jobs=N grids identical" true (r1 = rn);
  check_int "six cells (2 topologies x 3 scenarios)" 6 (List.length r1);
  check "every cell graded as expected" true
    (List.for_all (fun r -> r.Sim.cr_as_expected) r1);
  check "both topologies mixed-system" true
    (List.for_all
       (fun r ->
         List.mem "zkmini" r.Sim.cr_node_systems
         && List.mem "cstore" r.Sim.cr_node_systems)
       r1)

(* Pinned fleet boot fingerprints: uniform zkmini and cstore fleets and a
   mixed one, booted through [Sim.boot] and run for 10 virtual seconds.
   The digest covers the scheduler's counters, the scheduler trace of the
   run (which task ran when, by id and name; under 2^16 events, so the
   ring keeps all of them), each node's checker ids in registration order
   and each node's workload counters, so a node boot that spawns,
   registers or orders anything differently moves it. *)
let fleet_fingerprint topology =
  let w = Sim.boot ~seed:42 ~topology () in
  let sched = Sim.world_sched w in
  let trace = Wd_sim.Sched.trace sched in
  ignore (Wd_sim.Sched.run ~until:(Wd_sim.Time.sec 10) sched);
  let spawned, switches, events = Wd_sim.Sched.stats sched in
  let timeline =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (List.map
               (fun (e : Wd_sim.Trace.event) ->
                 Fmt.str "%Ld/%d/%s/%s" e.at e.task_id e.task_name
                   (Wd_sim.Trace.kind_name e.kind))
               (Wd_sim.Trace.recent trace (Wd_sim.Trace.total trace)))))
  in
  let node n =
    let ids =
      List.map
        (fun st -> st.Wd_watchdog.Driver.cs_id)
        (Wd_watchdog.Driver.stats (Wd_cluster.Node.driver n))
    in
    let wl = Wd_cluster.Node.workload n in
    Fmt.str "%s[%s]%d/%d/%Ld" (Wd_cluster.Node.id n) (String.concat "," ids)
      wl.Wd_targets.Workload.issued wl.Wd_targets.Workload.ok
      wl.Wd_targets.Workload.total_latency
  in
  Digest.to_hex
    (Digest.string
       (Fmt.str "%d/%d/%d/%d/%s/%s" spawned switches events
          (Wd_sim.Trace.total trace) timeline
          (String.concat ";" (List.map node (Sim.world_nodes w)))))

let test_fleet_fingerprints () =
  List.iter
    (fun (name, topology, want) ->
      Alcotest.(check string) name want (fleet_fingerprint topology))
    [
      ( "zkmini x3",
        Topology.uniform ~nodes:3 Topology.Zkmini,
        "7532d6c2fbe5e1901370add3c0b5cf07" );
      ( "cstore x3",
        Topology.uniform ~nodes:3 Topology.Cstore,
        "1e4b96ebc8277b115001c066c5649440" );
      ( "mixed",
        Topology.mixed [ Topology.Cstore; Topology.Zkmini; Topology.Cstore ],
        "1fbd4d9427460c2c2b8c2a59bd608a45" );
    ]

let () =
  Alcotest.run "wd_cluster"
    [
      ( "fleet",
        [
          Alcotest.test_case "limplock indicts victim node and component"
            `Quick test_limplock_indicts_victim;
          Alcotest.test_case "asym partition indicts links only" `Quick
            test_asym_partition_indicts_links;
          Alcotest.test_case "overload yields no indictment" `Quick
            test_overload_stays_quiet;
          Alcotest.test_case "fault-free stays quiet" `Quick
            test_fault_free_stays_quiet;
          Alcotest.test_case "cells are deterministic" `Quick
            test_cell_determinism;
          Alcotest.test_case "link flap stays quiet" `Quick
            test_link_flap_stays_quiet;
        ] );
      ( "correlated",
        [
          Alcotest.test_case "limplock + partition pins the node" `Quick
            test_correlated_limplock_partition;
          Alcotest.test_case "slow link never masks a gray node" `Quick
            test_correlated_slow_link_gray;
        ] );
      ( "topology",
        [
          Alcotest.test_case "configs validated before boot" `Quick
            test_config_time_validation;
          Alcotest.test_case "fleet boot fingerprints pinned" `Quick
            test_fleet_fingerprints;
        ] );
      ( "membership",
        [
          Alcotest.test_case "9-node fault-free fleet converges" `Quick
            test_membership_convergence_9node;
        ] );
      ( "decentralized",
        [
          Alcotest.test_case "E17 oracle at jobs 1 and N" `Slow
            test_e17_oracle_at_jobs_1_and_n;
          Alcotest.test_case "leader failover, recovery, repro" `Quick
            test_leader_failover_recovery_repro;
          Alcotest.test_case "E19 hetero grid at jobs 1 and N" `Slow
            test_e19_hetero_grid;
        ] );
    ]
