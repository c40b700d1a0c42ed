(** The fleet correlation engine: turns N streams of local findings into
    one fleet-level verdict.

    Every node carries one of these engines, but only the elected
    leader's runs ([Election] drives [step] leader-only). Nothing here
    reaches across node boundaries: evidence arrives as messages —
    wire-encoded reports via [ingest_wire], piggybacked accusation lists
    and report digests via [note_gossip_evidence].

    Rule set, evaluated in priority order each tick:

    + {b Global overload} — signal evidence (fresh within 45 s) on a
      majority of nodes while every mimic checker is quiet (no mimic
      evidence within 10 s): legitimate load, indict nobody.
    + {b Node-local gray failure} — a node's mimic checkers alarm AND a
      quorum of 2 distinct peers independently accuse it (an accuser's
      gossip view is live for 2 s). Indict the node, name the component,
      keep the localising report's wire bytes as evidence.
    + {b Fabric-level failure} — no mimic alarms anywhere, probes fail on
      specific pairs, and every involved node still has a healthy link to
      some peer. Indict the link pairs, never a node.

    A candidate verdict must survive 2 consecutive ticks before
    it is recorded, and each distinct verdict is recorded once. The
    per-node report inboxes, digest sets, accusation matrix and debounce
    streaks are all private — peers influence a verdict only through the
    two intake functions. *)

type verdict =
  | Node_gray of { node : string; component : string option }
  | Link_fault of { links : (string * string) list }
  | Overload

type event = {
  ev_at : int64;
  ev_verdict : verdict;
  ev_evidence : string option;
      (** wire bytes of the report that localised a [Node_gray] verdict *)
}

type t

val create : sched:Wd_sim.Sched.t -> node_ids:string list -> t

val tick_period : int64
(** The correlation period, 500 ms: the leader's election agent steps
    the engine this often. *)

(** {2 Evidence intake} *)

val ingest_wire : t -> from_:string -> wire:string -> unit
(** File a wire-encoded watchdog report into [from_]'s inbox. Duplicates
    (re-sends after a leader change) dedupe on the wire bytes; undecodable
    wires count as [rejected]. *)

val note_gossip_evidence :
  t ->
  from_:string ->
  accuse_probe:string list ->
  accuse_suspect:string list ->
  digests:Fabric.digest list ->
  unit
(** Record [from_]'s latest piggybacked gossip view. Accusations are kept
    per accuser and fade if the accuser's gossip stops; digests
    corroborate shipped reports. *)

val rejected : t -> int

val quorum_accused : t -> string -> now:int64 -> bool
(** Is this node accused by a quorum of peers right now?  The election
    agent consults this about {e itself}: a leader the fleet is about to
    indict must demote instead of stepping its own engine. *)

val step : t -> now:int64 -> event list
(** One debounced correlation step; returns the events recorded {e this}
    tick so the caller (the leader's election agent) can act on fresh
    verdicts. *)

(** {2 Results} *)

val events : t -> event list
(** Chronological. *)

val verdict_key : verdict -> string
