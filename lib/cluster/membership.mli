(** Per-node membership agent: heartbeat gossip plus end-to-end probing of
    every peer — the fleet plane's two extrinsic evidence channels.

    Gossip is deliberately shallow (a periodic fabric broadcast touching no
    disk or queue), so it keeps flowing from a limping node: the
    gray-failure signature. Probes are deep: the responder runs a bounded
    client operation through its local service before acking.

    The per-peer state (last gossip heard, consecutive probe failures,
    in-flight probes) is private; the fleet reads it through the accusation
    views below. The agent does not own the fabric inbox — the node's
    election agent drains one ordered stream and dispatches membership
    traffic into the [note_*]/[handle_*] entry points.

    The timing is fixed: gossip every 250 ms, a probe round every 500 ms,
    a probe unacked past 1.5 s counts as one failure, 2 consecutive
    failures make a peer probe-failing, and 3 s of gossip silence makes
    it suspected. *)

type event =
  | Suspected of { who : string; by : string; at : int64 }
      (** gossip silence past the suspicion timeout *)
  | Probe_failing of { who : string; by : string; at : int64 }
  | Probe_recovered of { who : string; by : string; at : int64 }

type t

val create : sched:Wd_sim.Sched.t -> fabric:Fabric.t -> node:Node.t -> t
(** Each heartbeat piggybacks the node's recent report digests
    ({!Node.recent_digests}) for leader-side corroboration. *)

val start : t -> unit
(** Spawn the gossip, prober and suspicion-sweep tasks. *)

val on_event : t -> (event -> unit) -> unit
val me : t -> string

(** {2 Accusation views} — what this agent tells the fleet (piggybacked on
    gossip, and folded in directly when this agent's node leads) *)

val accused_probe : t -> string list
(** Peers whose deep probes this agent currently sees failing (at or past
    the consecutive-failure threshold), sorted. *)

val suspects : t -> string list
(** Peers suspected for gossip silence, sorted. *)

val probe_failing : t -> string -> bool
val probe_ok_count : t -> string -> int
(** Lifetime healthy-ack count for a peer — how often its full request
    pipeline answered a deep probe. *)

(** {2 Inbox entry points} — called by the election agent's dispatcher *)

val note_gossip : t -> from_:string -> unit
val handle_probe_req : t -> from_:string -> seq:int -> unit
(** Answers off-thread so a stalled local service never blocks the
    receiver loop. *)

val note_probe_ack : t -> from_:string -> seq:int -> healthy:bool -> unit
