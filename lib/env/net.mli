(** Simulated message network with asynchronous delivery over an
    (optionally) asymmetric link fabric.

    Fault sites are ["net:<fabric>:send:<src>:<dst>"]; behaviours map to
    delivery delay ([Delay], [Slow_factor]), message loss ([Drop]), payload
    corruption flagging ([Corrupt]), sender-side failure ([Error]) and
    sender blocking ([Hang]).

    Each directed (src, dst) pair may carry a {!link_profile} overriding
    the fabric-wide base latency and bounding bandwidth. Bandwidth is
    store-and-forward: a message of [size] bytes serialises onto the link
    for size/rate seconds after any message still transmitting, then
    propagates. All of it runs off the virtual clock and the fabric RNG, so
    the delivery schedule is byte-identical for a given seed. *)

exception Net_error of string

type 'a envelope = {
  src : string;
  dst : string;
  payload : 'a;
  sent_at : int64;
  corrupted : bool;
}

type link_profile = {
  lp_latency : int64 option;
      (** propagation latency for this direction; [None] = fabric base *)
  lp_bytes_per_sec : int option;  (** [None] = unbounded bandwidth *)
}

type 'a t

val create :
  ?base_latency:int64 -> reg:Faultreg.t -> rng:Wd_sim.Rng.t -> string -> 'a t

val name : 'a t -> string
val register : 'a t -> string -> unit

val ensure_registered : 'a t -> string -> unit
(** Register the endpoint unless it already exists; O(1) on the hot
    path. *)

val inbox_length : 'a t -> string -> int

val set_link_profile : 'a t -> src:string -> dst:string -> link_profile -> unit
(** Profile one direction of one link. Directions are independent, so an
    asymmetric fabric (fast one way, slow or narrow the other) is two
    profiles. Unprofiled links keep the fabric-wide base latency and
    unbounded bandwidth. *)

val link_profile : 'a t -> src:string -> dst:string -> link_profile option

val send :
  ?site_dst:string -> ?size:int -> 'a t -> src:string -> dst:string -> 'a -> unit
(** Asynchronous; returns once the message is committed to the fabric.
    Blocks only under a [Hang] fault; raises {!Net_error} under [Error].
    [site_dst] overrides the destination used for fault-site matching, so a
    redirected (shadow-inbox) send shares the fate of the real link.
    [size] (bytes, default 0) only matters on bandwidth-bounded links,
    where it sets the serialisation delay. *)

val recv_timeout : 'a t -> string -> timeout:int64 -> 'a envelope option
val try_recv : 'a t -> string -> 'a envelope option

val stats : 'a t -> int * int * int
(** [(sent, delivered, dropped)]. *)
