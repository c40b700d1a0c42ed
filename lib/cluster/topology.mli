(** Declarative fleet topology: node count, per-node target system, and
    per-link latency/bandwidth overrides. A {!spec} is pure data consumed
    by [Sim.boot]; building one validates everything (link indices,
    bandwidths), so a bad campaign config fails when it is built, not
    mid-boot. *)

(** The fleet-capable target systems. A spec can name no other, and
    adding a target extends the variant, so the compiler finds every
    dispatch site. *)
type system = Zkmini | Cstore

val system_name : system -> string

type link = {
  l_src : int;
  l_dst : int;
  l_latency : int64 option;  (** propagation override; [None] = fabric base *)
  l_bytes_per_sec : int option;  (** [None] = unbounded *)
}

type spec = private {
  t_name : string;
  t_systems : system list;  (** node i runs [List.nth t_systems i] *)
  t_links : link list;  (** directed overrides; unlisted links = defaults *)
}

val uniform : ?name:string -> nodes:int -> system -> spec
(** N nodes of one system, default symmetric fabric. *)

val mixed : ?name:string -> system list -> spec
(** One node per listed system, in order. *)

val with_link :
  spec -> src:int -> dst:int -> ?latency:int64 -> ?bytes_per_sec:int ->
  unit -> spec
(** Override one direction of one link. Raises [Invalid_argument] on
    out-of-range indices, self-links or non-positive bandwidth. *)

val nodes : spec -> int
val system_at : spec -> int -> system
val node_systems : spec -> string list

val describe : spec -> string
(** Uniform default-fabric specs read as the bare system name (keeping
    single-system tables stable); anything else reads as [t_name]. *)

val hetero9 : unit -> spec
(** 9 nodes, zkmini at slots 1 and 6, cstore elsewhere; nodes 6-8 sit in a
    remote rack behind asymmetric links (4 ms crossing towards the rack,
    256 KiB/s back). *)

val hetero15 : unit -> spec
(** 15 nodes, zkmini at slots 1, 7 and 13; nodes 10-14 remote as above. *)

val link_profiles :
  spec -> node_name:(int -> string) -> (string * string * Wd_env.Net.link_profile) list
(** The link overrides as fabric endpoint triples, for [Net.set_link_profile]. *)
