(* Randomized fault-space sweep campaigns.

   The paper's pitch is *comprehensive* checking — coverage across the
   whole fault space — and the fixed scenario catalog (22 cells) is only a
   curated slice of it. A sweep samples that space at volume: a QCheck
   generator expands a base seed into thousands of *worlds* — catalog
   scenarios under varied watchdog modes, seeds and timing windows;
   fault-free accuracy probes; and whole fleets built through [Topology]'s
   validating constructors, injected with cluster-scoped scenarios — and
   the grid fans out over the persistent domain pool like any other
   campaign batch.

   Determinism: the grid is a pure function of (base seed, world count) —
   QCheck generators are driven by an explicit [Random.State], never the
   global RNG — and each world is a self-contained simulation, so the
   outcome list (and its digest) is byte-identical at any [--jobs] width.

   Grading: every world carries its own oracle. Scenario worlds compare
   mimic detection against the catalog's expectation and demand zero
   pre-injection reports; fault-free worlds demand zero reports of any
   class; fleet worlds reuse the fleet plane's own verdict grading
   ([Sim.result.cr_as_expected]). The summary aggregates these into the
   sweep row bench emits. *)

module Catalog = Wd_faults.Catalog
module Ccat = Wd_faults.Cluster_catalog
module Topology = Wd_cluster.Topology
module Csim = Wd_cluster.Sim
module Gen = QCheck.Gen

(* --- worlds --- *)

type world =
  | Scenario_world of {
      sw_sid : string;
      sw_mode : Systems.watchdog_mode;
      sw_seed : int;
      sw_warmup : int64;
      sw_observe : int64;
    }
  | Fault_free_world of {
      ff_system : string;
      ff_seed : int;
      ff_observe : int64;
    }
  | Fleet_world of {
      fl_csid : string;
      fl_topology : Topology.spec;
      fl_seed : int;
    }

let mode_name = function
  | Systems.Wd_generated -> "generated"
  | Systems.Wd_no_context -> "no-context"
  | Systems.Wd_none -> "none"

let sec_of t = Int64.to_int (Int64.div t 1_000_000_000L)

let world_id = function
  | Scenario_world w ->
      Fmt.str "scenario:%s:%s:seed=%d:w=%ds:o=%ds" w.sw_sid
        (mode_name w.sw_mode) w.sw_seed (sec_of w.sw_warmup)
        (sec_of w.sw_observe)
  | Fault_free_world w ->
      Fmt.str "fault-free:%s:seed=%d:o=%ds" w.ff_system w.ff_seed
        (sec_of w.ff_observe)
  | Fleet_world w ->
      Fmt.str "fleet:%s:%s:n=%d:seed=%d" w.fl_csid
        (Topology.describe w.fl_topology)
        (Topology.nodes w.fl_topology)
        w.fl_seed

(* --- generators ---

   Scenario worlds use shortened observation windows (the whole point of a
   sweep is volume), so scenarios whose mimic detection needs tens of
   simulated seconds to manifest are excluded rather than graded against a
   window they cannot meet: the slow-burn cells keep their full-window
   coverage in E2. Crash specials are excluded for the same reason E2
   excludes them — the watchdog dies with the process. *)

let slow_sids = [ "kvs-mem-leak"; "cs-compaction-spin" ]

(* Per-draw pickers over precomputed arrays and weight totals. Each makes
   exactly the [Random.State] call of the QCheck combinator it replaces
   ([Gen.oneofl], [Gen.frequencyl]/[Gen.frequency], [Gen.int_range] over a
   range below 2^30), so grids stay byte-identical; the combinators walk
   their list on every draw. *)
let pick a st = a.(Random.State.int st (Array.length a))

let int_range lo hi st = lo + Random.State.int st (hi - lo + 1)

let weighted choices =
  let weights = Array.of_list (List.map fst choices) in
  let values = Array.of_list (List.map snd choices) in
  let total = Array.fold_left ( + ) 0 weights in
  fun st ->
    let i = Random.State.int st total in
    let rec find k acc =
      let acc = acc + weights.(k) in
      if i < acc then values.(k) else find (k + 1) acc
    in
    find 0 0

let eligible_sids =
  lazy
    (Array.of_list
       (List.filter_map
          (fun (s : Catalog.scenario) ->
            if
              s.Catalog.special = Some "crash"
              || List.mem s.Catalog.sid slow_sids
            then None
            else Some s.Catalog.sid)
          Catalog.all))

(* Fleet worlds ride the cluster catalog minus the failover cell
   (fleet-leader-limplock needs an election round trip on top of detection,
   which does not fit the sweep's shortened windows; E18 covers it). *)
let fleet_eligible ~nodes =
  List.filter_map
    (fun (s : Ccat.cscenario) ->
      if s.Ccat.csid = "fleet-leader-limplock" then None
      else if Ccat.max_node_index s < nodes then Some s.Ccat.csid
      else None)
    (Ccat.all @ Ccat.extras)

let fleet_warmup = Wd_sim.Time.sec 8
let fleet_observe = Wd_sim.Time.sec 12

let gen_mode : Systems.watchdog_mode Gen.t =
  weighted [ (9, Systems.Wd_generated); (1, Systems.Wd_none) ]

let all_systems = Array.of_list Systems.all_systems
let warmup_secs = [| 8; 10 |]
let observe_secs = [| 12; 15 |]

let gen_scenario_world st =
  let sid = pick (Lazy.force eligible_sids) st in
  let mode = gen_mode st in
  let seed = int_range 0 99_999 st in
  (* Warmup must cover baseline learning: the slow-burn scenarios
     (disk-slow, snap-slow) are flaky below 8 s of fault-free history, so
     the sweep varies the windows upward from the campaign default, not
     downward. *)
  let warmup = Wd_sim.Time.sec (pick warmup_secs st) in
  let observe = Wd_sim.Time.sec (pick observe_secs st) in
  Scenario_world
    { sw_sid = sid; sw_mode = mode; sw_seed = seed; sw_warmup = warmup;
      sw_observe = observe }

let gen_fault_free_world st =
  let system = pick all_systems st in
  let seed = int_range 0 99_999 st in
  let observe = Wd_sim.Time.sec (pick observe_secs st) in
  Fault_free_world { ff_system = system; ff_seed = seed; ff_observe = observe }

(* Every topology goes through the validating constructors — [uniform],
   [mixed], [with_link] — so a malformed spec is unrepresentable in a grid:
   a generator bug fails loudly at generation time, not mid-boot. Link
   overrides stay within the asymmetry ranges the verdict rules are
   calibrated for (hetero presets use 4 ms crossings and 256 KiB/s return
   pipes). *)
let gen_topology st =
  (* 4..6 nodes: correlation-based indictment wants a quorum of healthy
     observers, and at 3 nodes the victim's two peers are too thin a jury —
     limplock and gray-link cells flake there. (Measured: every oracle miss
     in a 400-world calibration grid was an n=3 fleet.) *)
  let nodes = int_range 4 6 st in
  let base =
    match int_range 0 2 st with
    | 0 -> Topology.uniform ~nodes Topology.Zkmini
    | 1 -> Topology.uniform ~nodes Topology.Cstore
    | _ ->
        Topology.mixed
          ~name:(Fmt.str "sweep-mix%d" nodes)
          (List.init nodes (fun _ ->
               pick [| Topology.Zkmini; Topology.Cstore |] st))
  in
  let n_overrides = int_range 0 2 st in
  let rec add_links spec k =
    if k = 0 then spec
    else
      let src = int_range 0 (nodes - 1) st in
      let dst = int_range 0 (nodes - 1) st in
      if src = dst then add_links spec k (* reroll; [with_link] rejects self *)
      else
        let latency = Wd_sim.Time.ms (pick [| 1; 2; 4 |] st) in
        let bytes_per_sec = pick [| 256 * 1024; 1024 * 1024 |] st in
        let spec =
          match int_range 0 2 st with
          | 0 -> Topology.with_link spec ~src ~dst ~latency ()
          | 1 -> Topology.with_link spec ~src ~dst ~bytes_per_sec ()
          | _ -> Topology.with_link spec ~src ~dst ~latency ~bytes_per_sec ()
        in
        add_links spec (k - 1)
  in
  add_links base n_overrides

let gen_fleet_world st =
  let topology = gen_topology st in
  let csid =
    pick (Array.of_list (fleet_eligible ~nodes:(Topology.nodes topology))) st
  in
  let seed = int_range 0 9_999 st in
  Fleet_world { fl_csid = csid; fl_topology = topology; fl_seed = seed }

(* Grid shape: mostly single-node scenario worlds (cheap, broad), a slice
   of fault-free accuracy probes, and a thin band of whole-fleet worlds
   (each one boots N nodes and costs roughly N single-node worlds). *)
let gen_world : world Gen.t =
  let gen =
    weighted
      [
        (24, gen_scenario_world);
        (4, gen_fault_free_world);
        (1, gen_fleet_world);
      ]
  in
  fun st -> gen st st

let grid ?(seed = 42) ~worlds () =
  if worlds < 0 then invalid_arg "Sweep.grid: negative world count";
  let rand = Random.State.make [| 0x53EE9; seed |] in
  Gen.generate ~rand ~n:worlds gen_world

(* --- running and grading --- *)

type outcome = {
  o_world : string;
  o_kind : string;  (* "scenario" | "fault-free" | "fleet" *)
  o_expect_detect : bool;
  o_detected : bool;
  o_latency : int64 option;
  o_false_alarms : int;
  o_ok : bool;
}

let run_world w =
  match w with
  | Scenario_world sw ->
      let scenario = Catalog.find sw.sw_sid in
      let cfg =
        {
          Campaign.seed = sw.sw_seed;
          warmup = sw.sw_warmup;
          observe = sw.sw_observe;
          mode = sw.sw_mode;
          infer = None;
          schedule = Wd_watchdog.Schedule.fixed;
        }
      in
      let r = Campaign.run_scenario ~cfg sw.sw_sid in
      let mimic = List.assoc "mimic" r.Campaign.r_outcomes in
      let expect =
        sw.sw_mode = Systems.Wd_generated
        && scenario.Catalog.expected.Catalog.exp_mimic
      in
      let detected = mimic.Campaign.o_detected in
      let false_alarms = r.Campaign.r_pre_inject_reports in
      {
        o_world = world_id w;
        o_kind = "scenario";
        o_expect_detect = expect;
        o_detected = detected;
        o_latency = mimic.Campaign.o_latency;
        o_false_alarms = false_alarms;
        o_ok = detected = expect && false_alarms = 0;
      }
  | Fault_free_world ffw ->
      let cfg =
        {
          Campaign.default_config with
          Campaign.seed = ffw.ff_seed;
          observe = ffw.ff_observe;
        }
      in
      let ff = Campaign.run_fault_free ~cfg ffw.ff_system in
      let false_alarms =
        List.fold_left (fun n (_, c) -> n + c) 0 ff.Campaign.ff_fp
      in
      {
        o_world = world_id w;
        o_kind = "fault-free";
        o_expect_detect = false;
        o_detected = false_alarms > 0;
        o_latency = None;
        o_false_alarms = false_alarms;
        o_ok = false_alarms = 0;
      }
  | Fleet_world fl ->
      let scenario = Ccat.find fl.fl_csid in
      let cfg =
        {
          Csim.seed = fl.fl_seed;
          topology = fl.fl_topology;
          warmup = fleet_warmup;
          observe = fleet_observe;
        }
      in
      let r = Csim.run ~cfg fl.fl_csid in
      let expect = scenario.Ccat.cexpected <> Ccat.Expect_no_indictment in
      let indicted =
        r.Csim.cr_indicted_nodes <> [] || r.Csim.cr_indicted_links <> []
      in
      {
        o_world = world_id w;
        o_kind = "fleet";
        o_expect_detect = expect;
        o_detected = indicted;
        o_latency = r.Csim.cr_first_latency;
        o_false_alarms = (if (not expect) && indicted then 1 else 0);
        o_ok = r.Csim.cr_as_expected;
      }

type summary = {
  s_seed : int;
  s_worlds : int;
  s_scenario_worlds : int;
  s_fault_free_worlds : int;
  s_fleet_worlds : int;
  s_expect_detect : int;
  s_detected : int;  (* detections among worlds expecting one *)
  s_unexpected_detect : int;
  s_false_alarms : int;
  s_ok : int;
  s_digest : string;
}

let digest outcomes = Digest.to_hex (Digest.string (Marshal.to_string outcomes []))

let summarize ~seed outcomes =
  let count p = List.length (List.filter p outcomes) in
  {
    s_seed = seed;
    s_worlds = List.length outcomes;
    s_scenario_worlds = count (fun o -> o.o_kind = "scenario");
    s_fault_free_worlds = count (fun o -> o.o_kind = "fault-free");
    s_fleet_worlds = count (fun o -> o.o_kind = "fleet");
    s_expect_detect = count (fun o -> o.o_expect_detect);
    s_detected = count (fun o -> o.o_expect_detect && o.o_detected);
    s_unexpected_detect = count (fun o -> o.o_detected && not o.o_expect_detect);
    s_false_alarms =
      List.fold_left (fun acc o -> acc + o.o_false_alarms) 0 outcomes;
    s_ok = count (fun o -> o.o_ok);
    s_digest = digest outcomes;
  }

let run ?jobs ?(seed = 42) ~worlds () =
  let ws = grid ~seed ~worlds () in
  let outcomes = Wd_parallel.Pool.run_map ?jobs run_world ws in
  (summarize ~seed outcomes, outcomes)

let pp_summary ppf s =
  Fmt.pf ppf
    "%d worlds (%d scenario, %d fault-free, %d fleet), seed %d@.\
     oracle: %d/%d ok; detection %d/%d where expected, %d unexpected; %d \
     false alarms@.digest %s"
    s.s_worlds s.s_scenario_worlds s.s_fault_free_worlds s.s_fleet_worlds
    s.s_seed s.s_ok s.s_worlds s.s_detected s.s_expect_detect
    s.s_unexpected_detect s.s_false_alarms s.s_digest
