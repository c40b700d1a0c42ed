(* One fleet member: a [wd_targets] instance plus its AutoWatchdog-generated
   driver, booted into a shared scheduler world. Each node gets a *private*
   fault registry, so a fault injected at "disk:*" on node 2 degrades node 2
   only even though every node names its disk identically — the per-node
   scoping the cluster catalog relies on.

   Nodes carry their intrinsic evidence sources (generated mimic checkers,
   queue-depth signal checkers, a closed-loop client workload); cross-node
   probing and liveness gossip live in [Membership], and correlation lives
   in [Fleet] — deliberately off the node's hot path. *)

module Generate = Wd_autowatchdog.Generate
module Driver = Wd_watchdog.Driver
module Target = Wd_targets.Target

type t = {
  id : string; (* fabric endpoint, "n<index>" *)
  sched : Wd_sim.Sched.t;
  reg : Wd_env.Faultreg.t; (* private: faults here hit this node only *)
  driver : Driver.t;
  workload : Wd_targets.Workload.stats;
  target : Target.instance;
  fleet : Target.fleet;
  recovery : Wd_watchdog.Recovery.t;
      (* microreboot plane, driven by fleet [Recover] commands — the node
         never self-heals on local reports alone *)
  digests : Fabric.digest list ref;
      (* newest-first bounded buffer of local report digests, piggybacked
         on heartbeat gossip for leader-side corroboration *)
}

let digest_cap = 16

let digest_of (r : Wd_watchdog.Report.t) =
  {
    Fabric.d_checker = r.Wd_watchdog.Report.checker_id;
    d_fkind = Wd_watchdog.Report.fkind_name r.Wd_watchdog.Report.fkind;
    d_at = r.Wd_watchdog.Report.at;
  }

let take n l = List.filteri (fun i _ -> i < n) l

(* The one place a fleet system meets its description. *)
let describe = function
  | Topology.Zkmini -> Target.zkmini
  | Topology.Cstore -> Target.cstore

let boot ?schedule ~sched ~system ~index () =
  let id = Fabric.node_name index in
  let reg = Wd_env.Faultreg.create () in
  let driver = Driver.create ?schedule sched in
  let wstats = Wd_targets.Workload.create_stats () in
  let recovery = Wd_watchdog.Recovery.create sched in
  let digests = ref [] in
  Driver.on_report driver (fun r ->
      digests := take digest_cap (digest_of r :: !digests));
  let prog, boot_target = describe system None in
  let g = Generate.analyze_cached prog in
  let p =
    boot_target ~sched ~reg g.Generate.red.Wd_analysis.Reduction.instrumented
  in
  let fleet =
    match p.Target.fleet with
    | Some f -> f
    | None ->
        invalid_arg ("Node.boot: no fleet facts for " ^ Topology.system_name system)
  in
  ignore
    (Generate.attach ~progress:(Wd_sim.Time.sec 20) g ~sched
       ~main:p.Target.main ~driver);
  Driver.add_checker driver
    (Wd_detectors.Signalmon.queue_depth ~id:"signal:reqq" ~res:p.Target.res
       ~queue:p.Target.queue ~max_depth:64);
  (let _, period, op = p.Target.workload in
   ignore
     (Wd_targets.Workload.spawn ~name:(id ^ "-client") ~sched ~period ~op
        wstats));
  let tasks = p.Target.start () in
  Generate.register_components recovery ~sched ~main:p.Target.main
    ~entries:fleet.Target.entries ~tasks;
  Driver.start driver;
  {
    id;
    sched;
    reg;
    driver;
    workload = wstats;
    target = p;
    fleet;
    recovery;
    digests;
  }

(* Bounded end-to-end client operation, run by the membership responder
   before acking a peer's probe: a limping node answers gossip (pure
   network) but fails this (full request pipeline through its slow disk). *)
let local_probe t =
  match t.fleet.Target.write ~timeout:(Wd_sim.Time.ms 800) with
  | `Ok _ -> true
  | `Timeout | `Err _ -> false

(* Open-loop burst flooder for the fleet-overload scenario: legitimate
   traffic pushed straight into the request queue, no fault anywhere. The
   signal checkers alarm (queue over budget) while mimic checkers stay
   quiet — the paper's §4.2 false-alarm case at fleet scope. Each burst
   takes the service ~1s to absorb, so the depth sampler is guaranteed to
   see the backlog at least once. *)
let start_burst t =
  Target.spawn_burst ~sched:t.sched ~name:(t.id ^ "-burst")
    ~every:(Wd_sim.Time.sec 5) t.target

let checker_count t = Driver.checker_count t.driver

(* --- accessors (the record is abstract outside this module) ------------ *)

let id t = t.id
let reg t = t.reg
let driver t = t.driver
let workload t = t.workload

(* --- fleet-driven recovery and gossip corroboration -------------------- *)

let recent_digests t = !(t.digests)

(* Command entry point for a fleet [Recover] message: microreboot the
   component owning [func]. The fleet plane localised the failure from this
   node's own shipped mimic report; the node just executes. *)
let recover t ~func ~reason =
  Wd_watchdog.Recovery.recover_function t.recovery ~func ~reason

let recovery_events t = Wd_watchdog.Recovery.events t.recovery
