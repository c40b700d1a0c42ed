(** Inter-node fabric: the message plane membership gossip, probing,
    election and report shipping run over, built on [Wd_env.Net] so the
    fault machinery applies unchanged.

    Fault sites are ["net:fabric:send:<src>:<dst>"]: a pattern like
    ["net:fabric:send:n3:*"] cuts every link out of n3, and
    ["net:fabric:send:n1:n3"] exactly one direction of one link — the
    asymmetric partial partition the fleet plane must localise. The fabric
    owns its own fault registry, separate from every node's private
    environment registry. *)

(** Compact summary of a locally-surfaced report, piggybacked on heartbeat
    gossip so peers can corroborate leader evidence without a second
    channel. *)
type digest = { d_checker : string; d_fkind : string; d_at : int64 }

type msg =
  | Gossip of {
      from_ : string;
      seq : int;
      accuse_probe : string list;
      accuse_suspect : string list;
      digests : digest list;
    }  (** liveness heartbeat carrying accusations and report digests *)
  | Probe_req of { from_ : string; seq : int }
  | Probe_ack of { from_ : string; seq : int; healthy : bool }
  | Report_ship of { from_ : string; wire : string }
      (** a wire-encoded watchdog report bound for the current leader *)
  | Elect of { from_ : string; round : int }
  | Elect_ok of { from_ : string; round : int }
  | Coordinator of { from_ : string; round : int }
  | Recover of { from_ : string; func : string; wire : string }
      (** leader -> indicted node: microreboot the component owning [func] *)

type t

val node_name : int -> string
(** Fabric endpoint of node [i]: ["n<i>"]. *)

val create :
  ?links:(string * string * Wd_env.Net.link_profile) list ->
  sched:Wd_sim.Sched.t -> nodes:string list -> unit -> t
(** Fabric over the given endpoints. [links] profiles individual directed
    links (latency override, bandwidth bound) — see
    [Topology.link_profiles]; unlisted links keep the symmetric 1 ms base. *)

val peers : t -> string -> string list

val reg : t -> Wd_env.Faultreg.t
(** The fabric's own fault registry: scenario injection cuts or degrades
    links here without touching any node's private environment. *)

val send : t -> src:string -> dst:string -> msg -> unit
(** Fire-and-forget: a send failing under an [Error] fault is treated as a
    lost message. *)

val recv_timeout :
  t -> string -> timeout:int64 -> msg Wd_env.Net.envelope option
