(* Inter-node fabric: the message plane the membership service gossips and
   probes over, built on [Wd_env.Net] so the fault machinery applies
   unchanged. Sites are "net:fabric:send:<src>:<dst>", so
   "net:fabric:send:n3:*" cuts every link out of n3 and
   "net:fabric:send:n1:n3" cuts exactly one direction of one link — the
   asymmetric partial partition the fleet plane must localise.

   The fabric owns its own fault registry, separate from every node's
   private environment registry: a fabric fault degrades links without
   touching any node's disks or queues, and vice versa. *)

(* Compact summary of a locally-surfaced report, piggybacked on heartbeat
   gossip so peers can corroborate leader evidence without a second
   channel: enough to classify (checker id carries the kind prefix) and to
   window by freshness, without the full payload. *)
type digest = { d_checker : string; d_fkind : string; d_at : int64 }

type msg =
  | Gossip of {
      from_ : string;
      seq : int;
      accuse_probe : string list;
          (* peers whose deep probes I currently see failing *)
      accuse_suspect : string list;
          (* peers I suspect for gossip silence *)
      digests : digest list;
          (* my recent report digests, for corroboration *)
    }
      (* liveness heartbeat: "I am scheduling and my network path to you
         works" — deliberately cheap, touching no disk or queue, so a
         limping node keeps gossiping (the gray-failure signature). The
         piggybacked accusations and digests are how extrinsic evidence
         reaches the elected leader without an extra channel. *)
  | Probe_req of { from_ : string; seq : int }
      (* end-to-end health probe: the receiver runs a bounded client
         operation against its local service before acking *)
  | Probe_ack of { from_ : string; seq : int; healthy : bool }
  | Report_ship of { from_ : string; wire : string }
      (* a locally-surfaced watchdog report, wire-encoded
         ([Wd_watchdog.Report.to_wire]) and shipped to the current leader *)
  | Elect of { from_ : string; round : int }
      (* bully election: challenge to every higher-priority peer *)
  | Elect_ok of { from_ : string; round : int }
      (* a higher-priority peer is alive and takes over the election *)
  | Coordinator of { from_ : string; round : int }
      (* leadership announcement; receivers adopt and re-ship retained
         reports so the new leader's inboxes rebuild *)
  | Recover of { from_ : string; func : string; wire : string }
      (* leader -> indicted node: microreboot the component owning [func];
         [wire] is the evidence report that localised it *)

type t = {
  net : msg Wd_env.Net.t;
  reg : Wd_env.Faultreg.t;
  nodes : string list;
}

let fabric_name = "fabric"
let node_name i = Fmt.str "n%d" i

let create ?(links = []) ~sched ~nodes () =
  let reg = Wd_env.Faultreg.create () in
  let rng = Wd_sim.Rng.split (Wd_sim.Sched.rng sched) in
  let net =
    Wd_env.Net.create ~base_latency:(Wd_sim.Time.ms 1) ~reg ~rng fabric_name
  in
  List.iter (Wd_env.Net.register net) nodes;
  List.iter
    (fun (src, dst, profile) ->
      Wd_env.Net.set_link_profile net ~src ~dst profile)
    links;
  { net; reg; nodes }

let peers t me = List.filter (fun n -> n <> me) t.nodes
let reg t = t.reg
(* Approximate wire size of each message class, in bytes. Only
   bandwidth-bounded links care: a big wire-encoded report ship serialises
   for size/rate seconds there, while a heartbeat barely registers — the
   asymmetry behind the slow-link-masked-gray scenario. *)
let msg_size = function
  | Gossip { accuse_probe; accuse_suspect; digests; _ } ->
      48
      + (8 * (List.length accuse_probe + List.length accuse_suspect))
      + List.fold_left
          (fun acc (d : digest) -> acc + 16 + String.length d.d_checker)
          0 digests
  | Probe_req _ | Probe_ack _ -> 24
  | Elect _ | Elect_ok _ | Coordinator _ -> 16
  | Report_ship { wire; _ } -> 32 + String.length wire
  | Recover { func; wire; _ } -> 32 + String.length func + String.length wire

(* [Net.send] can raise [Net_error] under an Error fault; fabric callers
   treat an unsendable message like a lost one. *)
let send t ~src ~dst m =
  try Wd_env.Net.send ~size:(msg_size m) t.net ~src ~dst m
  with Wd_env.Net.Net_error _ -> ()

let recv_timeout t endpoint ~timeout =
  Wd_env.Net.recv_timeout t.net endpoint ~timeout
