(** Cluster campaign cell: boot a fleet described by a [Topology.spec]
    inside a single deterministic scheduler world, inject one
    cluster-scoped scenario, and grade the fleet plane's verdicts against
    the scenario's expectation. A cell is a pure function of
    (seed, topology, scenario), so campaigns fan cells out over domains
    exactly like single-node ones. *)

type config = {
  seed : int;
  topology : Topology.spec;
      (** node count, per-node target system, link-fabric overrides *)
  warmup : int64;  (** let checkers learn latency baselines first *)
  observe : int64;  (** post-injection observation window *)
}

val default_config : config
(** Seed 42, a uniform 5-node zkmini fleet, 8 s warmup, 15 s observation. *)

type world
(** A booted-but-uninjected fleet; [run] drives one through a scenario and
    the bench harness reuses it for steady-state measurements. The plane's
    mutable internals stay behind the accessors below. *)

val world_sched : world -> Wd_sim.Sched.t
val world_fabric : world -> Fabric.t
val world_nodes : world -> Node.t list
val world_agents : world -> Membership.t list
(** Index-aligned with [world_nodes]. *)

val world_elections : world -> Election.t list
(** Index-aligned with [world_nodes]. *)

val boot :
  seed:int ->
  topology:Topology.spec ->
  unit ->
  world
(** Boot the fleet the topology describes — one scheduler world, one
    fabric carrying the topology's link profiles, one node (of the
    topology's per-slot system) plus membership/election agents and a
    fleet engine per slot — and start every agent. *)

type result = {
  cr_csid : string;
  cr_system : string;
      (** [Topology.describe]: the bare system name for uniform fleets,
          the topology's own name otherwise *)
  cr_node_systems : string list;  (** per node, index order *)
  cr_seed : int;
  cr_nodes : int;
  cr_inject_at : int64;
  cr_events : (string * Fleet.event) list;
      (** (recording engine's node, event); chronological, one per
          distinct verdict across the whole fleet *)
  cr_first_latency : int64 option;  (** first verdict - injection time *)
  cr_indicted_nodes : string list;
  cr_indicted_links : (string * string) list;
  cr_component : string option;
  cr_overloaded : bool;
  cr_as_expected : bool;
  cr_component_ok : bool;
  cr_membership_events : int;
  cr_suspected_events : int;
  cr_checker_count : int;
  cr_workload_ok : float;  (** min per-node success ratio *)
  cr_leader_history : (string * (int64 * string) list) list;
  cr_final_leaders : string list;
  cr_elections : int;
  cr_converged_at : int64 option;
  cr_recoveries : (string * Wd_watchdog.Recovery.event) list;
  cr_first_recovery_latency : int64 option;
  cr_evidence_wire : string option;
      (** wire bytes behind the first node indictment — the cross-node
          repro seed *)
}

val run : ?cfg:config -> string -> result
(** Run scenario [csid] against the config's topology. Raises
    [Invalid_argument] before booting anything if the scenario touches a
    node index the topology doesn't have, or the topology itself is
    malformed. Verdicts are merged across every node's engine — under
    failover the record legitimately moves from the old leader to its
    successor. *)
