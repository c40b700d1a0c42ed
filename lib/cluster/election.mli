(** Per-node election + dispatch agent: the piece that decentralizes the
    fleet plane.

    Each node runs one of these. It owns the node's single fabric inbox
    and dispatches every message class — membership traffic to
    [Membership], evidence to the local [Fleet] engine, election traffic
    here, [Recover] commands to the node's recovery plane. It also owns
    the node's view of who leads the fleet, maintained with a bully
    election (lower node index = higher priority); restricting challenges
    to *locally healthy* superiors is what dethrones a gray leader that
    still answers gossip.

    Aggregation is leader-only: each fleet tick, the agent (if leader)
    folds its own membership view into its fleet engine as self-gossip,
    steps the correlation, and turns fresh [Node_gray] verdicts into
    [Recover] commands carrying the localising report's wire bytes.

    The election state machine (rounds, deadlines, the retained-wire
    buffer re-shipped on failover) is private. *)

type t

val create :
  sched:Wd_sim.Sched.t ->
  fabric:Fabric.t ->
  node:Node.t ->
  membership:Membership.t ->
  fleet:Fleet.t ->
  t
(** The leadership watchdog checks the leader every 500 ms. An [Elect]
    unanswered for 1 s means crown self; an [Elect_ok] not followed by a
    [Coordinator] within 2 s (a superior answered but never took over)
    means re-run. *)

val start : t -> unit
(** Spawn the receiver, leadership-watchdog and fleet-tick tasks, and hook
    the node's report stream: every locally-surfaced report leaves the
    node as wire bytes, shipped to the current leader (self-delivery on
    the leader also goes through the codec). *)

val me : t -> string

val leader : t -> string
(** Who this node currently believes leads the fleet. *)

val leader_history : t -> (int64 * string) list
(** Chronological [(adopted_at, leader)] transitions, starting with the
    initial (priority-order) leader at time 0. *)

val elections_started : t -> int

val fleet : t -> Fleet.t
(** This node's correlation engine — the fleet-level report of record when
    this node led at verdict time. *)
