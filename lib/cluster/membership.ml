(* Per-node membership agent: heartbeat gossip plus end-to-end probing of
   every peer, the fleet plane's two extrinsic evidence channels.

   Gossip is deliberately shallow — a periodic fabric broadcast touching no
   disk or queue — so it keeps flowing from a limping node (the gray-failure
   signature: "the heartbeat protocol keeps answering"). Probes are deep: the
   responder runs a bounded client operation through its local service
   before acking, so a node whose request pipeline has stalled acks
   [healthy = false] (or never acks at all once its responder tasks pile up
   behind the stall).

   The agent keeps per-peer state — last gossip heard, consecutive probe
   failures — that [Fleet] reads each correlation tick. State transitions
   also fire an [on_event] hook so the fleet can log membership churn. *)

type event =
  | Suspected of { who : string; by : string; at : int64 }
      (* gossip silence past the suspicion timeout *)
  | Probe_failing of { who : string; by : string; at : int64 }
  | Probe_recovered of { who : string; by : string; at : int64 }

type peer_state = {
  peer : string;
  mutable last_gossip : int64; (* last heartbeat heard from this peer *)
  mutable suspected : bool;
  mutable probe_fails : int; (* consecutive probe failures *)
  mutable probe_oks : int; (* lifetime acked-healthy count *)
  mutable outstanding : (int * int64) option; (* in-flight probe: seq, sent *)
}

let gossip_period = Wd_sim.Time.ms 250
let probe_period = Wd_sim.Time.ms 500
let probe_timeout = Wd_sim.Time.ms 1500 (* unacked past this = one failure *)

(* gossip silence past this = suspected *)
let suspicion_timeout = Wd_sim.Time.sec 3

(* consecutive probe failures before a peer is probe-failing *)
let fail_threshold = 2

type t = {
  node : Node.t;
  fabric : Fabric.t;
  sched : Wd_sim.Sched.t;
  peers : (string, peer_state) Hashtbl.t;
  mutable gossip_seq : int;
  mutable probe_seq : int;
  mutable handlers : (event -> unit) list;
}

let create ~sched ~fabric ~node =
  let peers = Hashtbl.create 8 in
  List.iter
    (fun p ->
      Hashtbl.replace peers p
        {
          peer = p;
          last_gossip = Wd_sim.Sched.now sched;
          suspected = false;
          probe_fails = 0;
          probe_oks = 0;
          outstanding = None;
        })
    (Fabric.peers fabric (Node.id node));
  {
    node;
    fabric;
    sched;
    peers;
    gossip_seq = 0;
    probe_seq = 0;
    handlers = [];
  }

let on_event t f = t.handlers <- f :: t.handlers
let emit t e = List.iter (fun f -> f e) t.handlers
let me t = Node.id t.node

let record_probe_fail t st =
  st.probe_fails <- st.probe_fails + 1;
  if st.probe_fails = fail_threshold then
    emit t
      (Probe_failing
         { who = st.peer; by = me t; at = Wd_sim.Sched.now t.sched })

let record_probe_ok t st ~healthy =
  if healthy then begin
    if st.probe_fails >= fail_threshold then
      emit t
        (Probe_recovered
           { who = st.peer; by = me t; at = Wd_sim.Sched.now t.sched });
    st.probe_fails <- 0;
    st.probe_oks <- st.probe_oks + 1
  end
  else record_probe_fail t st

(* --- accusation views: what this agent tells the fleet (piggybacked on
   gossip, and folded in directly when this agent's node is leader) ------ *)

let accused_probe t =
  Hashtbl.fold
    (fun p st acc -> if st.probe_fails >= fail_threshold then p :: acc else acc)
    t.peers []
  |> List.sort compare

let suspects t =
  Hashtbl.fold (fun p st acc -> if st.suspected then p :: acc else acc) t.peers []
  |> List.sort compare

(* --- inbox handlers ----------------------------------------------------

   The agent no longer owns the fabric inbox: one receiver per node (the
   election agent) drains every message class and dispatches membership
   traffic here, so gossip, probes, election and report shipping share a
   single ordered stream. *)

let note_gossip t ~from_ =
  match Hashtbl.find_opt t.peers from_ with
  | None -> ()
  | Some st ->
      st.last_gossip <- Wd_sim.Sched.now t.sched;
      st.suspected <- false

(* answer probes off-thread so a stalled local service never blocks the
   receiver loop *)
let handle_probe_req t ~from_ ~seq =
  let id = me t in
  ignore
    (Wd_sim.Sched.spawn ~name:(id ^ "-responder") ~daemon:true t.sched
       (fun () ->
         let healthy = Node.local_probe t.node in
         Fabric.send t.fabric ~src:id ~dst:from_
           (Fabric.Probe_ack { from_ = id; seq; healthy })))

let note_probe_ack t ~from_ ~seq ~healthy =
  match Hashtbl.find_opt t.peers from_ with
  | None -> ()
  | Some st -> (
      match st.outstanding with
      | Some (s, _) when s = seq ->
          st.outstanding <- None;
          record_probe_ok t st ~healthy
      | Some _ | None -> ())

let start t =
  let sched = t.sched and id = me t in
  (* heartbeat gossip broadcast, piggybacking accusations and digests *)
  ignore
    (Wd_sim.Sched.spawn ~name:(id ^ "-gossip") ~daemon:true sched (fun () ->
         while true do
           Wd_sim.Sched.sleep gossip_period;
           t.gossip_seq <- t.gossip_seq + 1;
           let accuse_probe = accused_probe t in
           let accuse_suspect = suspects t in
           let digests = Node.recent_digests t.node in
           List.iter
             (fun dst ->
               Fabric.send t.fabric ~src:id ~dst
                 (Fabric.Gossip
                    {
                      from_ = id;
                      seq = t.gossip_seq;
                      accuse_probe;
                      accuse_suspect;
                      digests;
                    }))
             (Fabric.peers t.fabric id)
         done));
  (* prober: time out the in-flight probe, then launch the next round *)
  ignore
    (Wd_sim.Sched.spawn ~name:(id ^ "-prober") ~daemon:true sched (fun () ->
         while true do
           Wd_sim.Sched.sleep probe_period;
           let now = Wd_sim.Sched.now sched in
           Hashtbl.iter
             (fun _ st ->
               (match st.outstanding with
               | Some (_, sent) when Int64.sub now sent > probe_timeout ->
                   st.outstanding <- None;
                   record_probe_fail t st
               | Some _ | None -> ());
               if st.outstanding = None then begin
                 t.probe_seq <- t.probe_seq + 1;
                 st.outstanding <- Some (t.probe_seq, now);
                 Fabric.send t.fabric ~src:id ~dst:st.peer
                   (Fabric.Probe_req { from_ = id; seq = t.probe_seq })
               end)
             t.peers
         done));
  (* suspicion sweep: gossip silence past the timeout *)
  ignore
    (Wd_sim.Sched.spawn ~name:(id ^ "-suspect") ~daemon:true sched (fun () ->
         while true do
           Wd_sim.Sched.sleep (Wd_sim.Time.ms 500);
           let now = Wd_sim.Sched.now sched in
           Hashtbl.iter
             (fun _ st ->
               if
                 (not st.suspected)
                 && Int64.sub now st.last_gossip > suspicion_timeout
               then begin
                 st.suspected <- true;
                 emit t (Suspected { who = st.peer; by = id; at = now })
               end)
             t.peers
         done))

(* --- fleet-facing views ----------------------------------------------- *)

let probe_failing t peer =
  match Hashtbl.find_opt t.peers peer with
  | Some st -> st.probe_fails >= fail_threshold
  | None -> false

let probe_ok_count t peer =
  match Hashtbl.find_opt t.peers peer with Some st -> st.probe_oks | None -> 0
