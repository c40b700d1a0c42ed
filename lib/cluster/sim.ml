(* Cluster campaign cell: boot a fleet described by a [Topology.spec]
   inside a single deterministic scheduler world, inject one cluster-scoped
   scenario, and grade the fleet plane's verdicts against the scenario's
   expectation. A cell is a pure function of (seed, topology, scenario), so
   campaigns fan cells out over domains exactly like single-node ones.

   The topology fixes everything boot needs: node count, which target
   system each node runs (fleets may mix them), and the per-link latency /
   bandwidth overrides materialised into the fabric. Mis-sized configs —
   a scenario whose victim index falls outside the topology — fail in
   [run] before any scheduler exists.

   The plane is decentralized: every node carries a membership agent, an
   election agent and a (mostly idle) fleet engine; correlation runs only
   on whichever node currently leads. Grading therefore merges verdicts
   across every node's engine — under failover the record legitimately
   moves from the old leader to its successor. *)

type config = {
  seed : int;
  topology : Topology.spec;
  warmup : int64; (* let checkers learn latency baselines first *)
  observe : int64; (* post-injection observation window *)
}

let default_config =
  {
    seed = 42;
    topology = Topology.uniform ~nodes:5 Topology.Zkmini;
    warmup = Wd_sim.Time.sec 8;
    observe = Wd_sim.Time.sec 15;
  }

(* A booted-but-uninjected fleet world; [run] drives one through a scenario
   and the bench harness reuses it for steady-state measurements. *)
type world = {
  w_sched : Wd_sim.Sched.t;
  w_fabric : Fabric.t;
  w_nodes : Node.t list;
  w_agents : Membership.t list; (* index-aligned with nodes *)
  w_elections : Election.t list; (* index-aligned with nodes *)
  w_membership_events : int ref;
  w_suspected_events : int ref;
}

let world_sched w = w.w_sched
let world_fabric w = w.w_fabric
let world_nodes w = w.w_nodes
let world_agents w = w.w_agents
let world_elections w = w.w_elections

let boot ~seed ~topology () =
  let sched = Wd_sim.Sched.create ~seed () in
  let n = Topology.nodes topology in
  let ids = List.init n Fabric.node_name in
  let links = Topology.link_profiles topology ~node_name:Fabric.node_name in
  let fabric = Fabric.create ~links ~sched ~nodes:ids () in
  let ns =
    List.init n (fun i ->
        Node.boot ~sched
          ~system:(Topology.system_at topology i)
          ~index:i ())
  in
  let agents =
    List.map
      (fun n -> Membership.create ~sched ~fabric ~node:n)
      ns
  in
  let elections =
    List.map2
      (fun n a ->
        let fleet = Fleet.create ~sched ~node_ids:ids in
        Election.create ~sched ~fabric ~node:n ~membership:a ~fleet)
      ns agents
  in
  let membership_events = ref 0 and suspected_events = ref 0 in
  List.iter
    (fun a ->
      Membership.on_event a (fun e ->
          incr membership_events;
          match e with
          | Membership.Suspected _ -> incr suspected_events
          | Membership.Probe_failing _ | Membership.Probe_recovered _ -> ()))
    agents;
  List.iter Membership.start agents;
  List.iter Election.start elections;
  {
    w_sched = sched;
    w_fabric = fabric;
    w_nodes = ns;
    w_agents = agents;
    w_elections = elections;
    w_membership_events = membership_events;
    w_suspected_events = suspected_events;
  }

type result = {
  cr_csid : string;
  cr_system : string;
      (* [Topology.describe]: the bare system name for uniform fleets, the
         topology's own name otherwise *)
  cr_node_systems : string list; (* per node, index order *)
  cr_seed : int;
  cr_nodes : int;
  cr_inject_at : int64; (* absolute injection time, for relative metrics *)
  cr_events : (string * Fleet.event) list;
      (* (recording engine's node, event); chronological, one per distinct
         verdict across the whole fleet *)
  cr_first_latency : int64 option; (* first verdict - injection time *)
  cr_indicted_nodes : string list;
  cr_indicted_links : (string * string) list;
  cr_component : string option;
  cr_overloaded : bool;
  cr_as_expected : bool; (* verdicts match the scenario's expectation *)
  cr_component_ok : bool; (* named component is in the truth set *)
  cr_membership_events : int;
  cr_suspected_events : int; (* gossip-silence suspicions fleet-wide *)
  cr_checker_count : int; (* per fleet, all nodes *)
  cr_workload_ok : float; (* min per-node success ratio *)
  cr_leader_history : (string * (int64 * string) list) list;
      (* per node: its believed-leader adoptions, chronological *)
  cr_final_leaders : string list; (* distinct believed leaders at end *)
  cr_elections : int; (* elections started fleet-wide *)
  cr_converged_at : int64 option;
      (* when the last node adopted the (single) final leader *)
  cr_recoveries : (string * Wd_watchdog.Recovery.event) list;
      (* fleet-commanded microreboots, (node, event), node order *)
  cr_first_recovery_latency : int64 option; (* first microreboot - injection *)
  cr_evidence_wire : string option;
      (* wire bytes behind the first node indictment — the cross-node
         repro seed *)
}

(* Merge every engine's record into one fleet-level verdict list: sort by
   (time, owner, verdict key), keep the first record of each distinct
   verdict. With a healthy leader exactly one engine records; under
   failover the union is the plane's actual output. *)
let merged_events elections =
  let all =
    List.concat_map
      (fun e ->
        List.map
          (fun ev -> (Election.me e, ev))
          (Fleet.events (Election.fleet e)))
      elections
  in
  let all =
    List.sort
      (fun (o1, (e1 : Fleet.event)) (o2, (e2 : Fleet.event)) ->
        match compare e1.Fleet.ev_at e2.Fleet.ev_at with
        | 0 -> (
            match compare o1 o2 with
            | 0 ->
                compare
                  (Fleet.verdict_key e1.Fleet.ev_verdict)
                  (Fleet.verdict_key e2.Fleet.ev_verdict)
            | c -> c)
        | c -> c)
      all
  in
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (_, (ev : Fleet.event)) ->
      let k = Fleet.verdict_key ev.Fleet.ev_verdict in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.replace seen k ();
        true
      end)
    all

let indicted_nodes events =
  List.filter_map
    (fun (_, (e : Fleet.event)) ->
      match e.Fleet.ev_verdict with
      | Fleet.Node_gray { node; _ } -> Some node
      | _ -> None)
    events
  |> List.sort_uniq compare

let indicted_links events =
  List.concat_map
    (fun (_, (e : Fleet.event)) ->
      match e.Fleet.ev_verdict with
      | Fleet.Link_fault { links } -> links
      | _ -> [])
    events
  |> List.sort_uniq compare

let first_component events =
  List.find_map
    (fun (_, (e : Fleet.event)) ->
      match e.Fleet.ev_verdict with
      | Fleet.Node_gray { component; _ } -> component
      | _ -> None)
    events

let first_evidence events =
  List.find_map
    (fun (_, (e : Fleet.event)) ->
      match e.Fleet.ev_verdict with
      | Fleet.Node_gray _ -> e.Fleet.ev_evidence
      | _ -> None)
    events

let overloaded events =
  List.exists
    (fun (_, (e : Fleet.event)) -> e.Fleet.ev_verdict = Fleet.Overload)
    events

(* Grade the fleet's verdicts against the scenario's expectation. A node
   indictment is correct only if it names exactly the victim; a link
   verdict is correct only if it covers the cut pair and indicts no node;
   overload, flaps and fault-free demand zero indictments of either kind.
   On a mixed fleet the component-truth set is the *victim's* system's, so
   node_systems rides in from the topology. *)
let grade (s : Wd_faults.Cluster_catalog.cscenario) ~node_systems ~events =
  let inodes = indicted_nodes events in
  let ilinks = indicted_links events in
  let component = first_component events in
  match s.Wd_faults.Cluster_catalog.cexpected with
  | Wd_faults.Cluster_catalog.Expect_node v ->
      let victim = Fabric.node_name v in
      let right_node = inodes = [ victim ] && ilinks = [] in
      let victim_system =
        match List.nth_opt node_systems v with Some sys -> sys | None -> ""
      in
      let truth =
        Wd_faults.Cluster_catalog.truth_components s ~system:victim_system
      in
      let component_ok =
        match component with
        | Some c -> truth = [] || List.mem c truth
        | None -> false
      in
      (right_node, right_node && component_ok)
  | Wd_faults.Cluster_catalog.Expect_links -> (
      match s.Wd_faults.Cluster_catalog.ckind with
      | Wd_faults.Cluster_catalog.Asym_partition { src; dst } ->
          let cut =
            let a = Fabric.node_name src and b = Fabric.node_name dst in
            if a <= b then (a, b) else (b, a)
          in
          (inodes = [] && List.mem cut ilinks, true)
      | _ -> (inodes = [] && ilinks <> [], true))
  | Wd_faults.Cluster_catalog.Expect_no_indictment ->
      (inodes = [] && ilinks = [], true)

let converged_at histories =
  let finals =
    List.filter_map
      (fun (_, h) ->
        match List.rev h with [] -> None | (at, l) :: _ -> Some (at, l))
      histories
  in
  match finals with
  | [] -> None
  | (_, l0) :: _ ->
      if List.for_all (fun (_, l) -> l = l0) finals then
        Some (List.fold_left (fun acc (at, _) -> max acc at) 0L finals)
      else None

(* does the scenario (possibly inside a [Correlated]) demand burst load? *)
let rec wants_burst = function
  | Wd_faults.Cluster_catalog.Fleet_overload -> true
  | Wd_faults.Cluster_catalog.Correlated ks -> List.exists wants_burst ks
  | _ -> false

let run ?(cfg = default_config) csid =
  let s = Wd_faults.Cluster_catalog.find csid in
  let topology = cfg.topology in
  let n = Topology.nodes topology in
  (* config-build-time check: the scenario must fit the topology *)
  let need = Wd_faults.Cluster_catalog.max_node_index s in
  if need >= n then
    invalid_arg
      (Fmt.str "Sim.run: scenario %s touches node %d but topology %s has %d \
                nodes"
         csid need (Topology.describe topology) n);
  let w = boot ~seed:cfg.seed ~topology () in
  let sched = w.w_sched in
  ignore (Wd_sim.Sched.run ~until:cfg.warmup sched);
  let inject_at = Wd_sim.Sched.now sched in
  Wd_faults.Cluster_catalog.inject
    ~node_reg:(fun i -> Node.reg (List.nth w.w_nodes i))
    ~fabric_reg:(Fabric.reg w.w_fabric) ~node_name:Fabric.node_name
    ~at:inject_at s;
  if wants_burst s.Wd_faults.Cluster_catalog.ckind then
    List.iter Node.start_burst w.w_nodes;
  ignore (Wd_sim.Sched.run ~until:(Int64.add inject_at cfg.observe) sched);
  let events = merged_events w.w_elections in
  let first_latency =
    match events with
    | [] -> None
    | (_, e) :: _ -> Some (Int64.sub e.Fleet.ev_at inject_at)
  in
  let node_systems = Topology.node_systems topology in
  let as_expected, component_ok = grade s ~node_systems ~events in
  let leader_history =
    List.map (fun e -> (Election.me e, Election.leader_history e)) w.w_elections
  in
  let recoveries =
    List.concat_map
      (fun n ->
        List.map (fun ev -> (Node.id n, ev)) (Node.recovery_events n))
      w.w_nodes
  in
  let first_recovery_latency =
    List.fold_left
      (fun acc (_, (ev : Wd_watchdog.Recovery.event)) ->
        let lat = Int64.sub ev.Wd_watchdog.Recovery.ev_at inject_at in
        match acc with
        | None -> Some lat
        | Some best -> Some (min best lat))
      None recoveries
  in
  {
    cr_csid = csid;
    cr_system = Topology.describe topology;
    cr_node_systems = node_systems;
    cr_seed = cfg.seed;
    cr_nodes = n;
    cr_inject_at = inject_at;
    cr_events = events;
    cr_first_latency = first_latency;
    cr_indicted_nodes = indicted_nodes events;
    cr_indicted_links = indicted_links events;
    cr_component = first_component events;
    cr_overloaded = overloaded events;
    cr_as_expected = as_expected;
    cr_component_ok = component_ok;
    cr_membership_events = !(w.w_membership_events);
    cr_suspected_events = !(w.w_suspected_events);
    cr_checker_count =
      List.fold_left (fun acc n -> acc + Node.checker_count n) 0 w.w_nodes;
    cr_workload_ok =
      List.fold_left
        (fun acc n ->
          min acc (Wd_targets.Workload.success_ratio (Node.workload n)))
        1.0 w.w_nodes;
    cr_leader_history = leader_history;
    cr_final_leaders =
      List.sort_uniq compare (List.map Election.leader w.w_elections);
    cr_elections =
      List.fold_left
        (fun acc e -> acc + Election.elections_started e)
        0 w.w_elections;
    cr_converged_at = converged_at leader_history;
    cr_recoveries = recoveries;
    cr_first_recovery_latency = first_recovery_latency;
    cr_evidence_wire = first_evidence events;
  }
