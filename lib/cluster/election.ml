(* Per-node election + dispatch agent: the piece that decentralizes the
   fleet plane.

   Each node runs one of these. It owns the node's single fabric inbox and
   dispatches every message class — membership traffic to [Membership],
   evidence to the local [Fleet] engine, election traffic here, [Recover]
   commands to the node's recovery plane. It also owns the node's view of
   who leads the fleet, maintained with a bully election (lower node index
   = higher priority):

   - Everyone starts agreeing on the highest-priority node (n0).
   - A node that locally distrusts its leader (deep probes failing, or
     suspected for gossip silence) starts an election: it challenges every
     *locally healthy* higher-priority peer with [Elect]. Restricting
     challenges to healthy peers is what dethrones a gray leader — a
     limping n0 still answers gossip, but its failing probes disqualify it,
     so n1 finds no healthy superior and crowns itself.
   - A challenged peer answers [Elect_ok] ("a better candidate lives") and
     runs its own election; a challenger with no healthy superiors
     broadcasts [Coordinator] and becomes leader.
   - Deadlines guard both waits: no [Elect_ok] in time means crown self; an
     [Elect_ok] but no [Coordinator] in time means re-run the election.

   Aggregation is leader-only: each fleet tick, the agent (if leader) folds
   its own membership view into its fleet engine as self-gossip, steps the
   correlation, and turns fresh [Node_gray] verdicts into [Recover]
   commands carrying the localising report's wire bytes back to the
   indicted node.

   Failover rebuilds the leader's evidence without any shared state: gossip
   keeps every engine's accusation matrices and digest sets warm, and each
   node retains its recently shipped report wires, re-sending them when it
   adopts a new leader. *)

module Report = Wd_watchdog.Report
module Driver = Wd_watchdog.Driver

type t = {
  node : Node.t;
  fabric : Fabric.t;
  membership : Membership.t;
  fleet : Fleet.t;
  sched : Wd_sim.Sched.t;
  node_ids : string list; (* priority order: head outranks all *)
  mutable leader : string; (* who this node believes leads *)
  mutable round : int;
  mutable electing : bool;
  mutable elect_deadline : int64 option;
  mutable coord_deadline : int64 option;
  mutable retained : (int64 * string) list; (* shipped wires, newest first *)
  mutable leader_history : (int64 * string) list; (* newest first *)
  mutable elections_started : int;
}

let retain_cap = 32

(* how often the leadership watchdog checks the current leader's health *)
let check_period = Wd_sim.Time.ms 500

let answer_timeout = Wd_sim.Time.sec 1 (* Elect -> Elect_ok wait *)
let coord_timeout = Wd_sim.Time.sec 2 (* Elect_ok -> Coordinator wait *)

let me t = Node.id t.node
let rank t id = Option.value ~default:max_int (List.find_index (( = ) id) t.node_ids)

let create ~sched ~fabric ~node ~membership ~fleet =
  let node_ids = Node.id node :: Fabric.peers fabric (Node.id node) in
  let node_ids = List.sort compare node_ids in
  let leader = List.hd node_ids in
  {
    node;
    fabric;
    membership;
    fleet;
    sched;
    node_ids;
    leader;
    round = 0;
    electing = false;
    elect_deadline = None;
    coord_deadline = None;
    retained = [];
    leader_history = [ (0L, leader) ];
    elections_started = 0;
  }

(* a peer is a credible leader candidate only if this node's own evidence
   says it is healthy: answering deep probes and not gossip-silent *)
let locally_healthy t peer =
  (not (Membership.probe_failing t.membership peer))
  && not (List.mem peer (Membership.suspects t.membership))

let healthy_superiors t =
  List.filter
    (fun id -> rank t id < rank t (me t) && locally_healthy t id)
    t.node_ids

let adopt t ~leader =
  let now = Wd_sim.Sched.now t.sched in
  let changed = t.leader <> leader in
  t.leader <- leader;
  t.electing <- false;
  t.elect_deadline <- None;
  t.coord_deadline <- None;
  if changed then begin
    t.leader_history <- (now, leader) :: t.leader_history;
    (* inbox rebuild: re-ship retained report wires so the new leader's
       fleet engine recovers the evidence the old leader held privately *)
    List.iter
      (fun (_, wire) ->
        if leader = me t then
          Fleet.ingest_wire t.fleet ~from_:(me t) ~wire
        else
          Fabric.send t.fabric ~src:(me t) ~dst:leader
            (Fabric.Report_ship { from_ = me t; wire }))
      (List.rev t.retained)
  end

let become_leader t =
  let round = t.round in
  List.iter
    (fun dst ->
      Fabric.send t.fabric ~src:(me t) ~dst
        (Fabric.Coordinator { from_ = me t; round }))
    (Fabric.peers t.fabric (me t));
  adopt t ~leader:(me t)

let start_election t =
  t.round <- t.round + 1;
  t.elections_started <- t.elections_started + 1;
  t.electing <- true;
  match healthy_superiors t with
  | [] -> become_leader t
  | sup ->
      let now = Wd_sim.Sched.now t.sched in
      t.elect_deadline <- Some (Int64.add now answer_timeout);
      t.coord_deadline <- None;
      List.iter
        (fun dst ->
          Fabric.send t.fabric ~src:(me t) ~dst
            (Fabric.Elect { from_ = me t; round = t.round }))
        sup

(* --- inbox dispatch ----------------------------------------------------- *)

let handle_elect t ~from_ ~round =
  (* answer any lower-priority challenger, then contest the election
     ourselves — the bully invariant that the fittest node ends up crowned *)
  if rank t from_ > rank t (me t) then begin
    Fabric.send t.fabric ~src:(me t) ~dst:from_
      (Fabric.Elect_ok { from_ = me t; round });
    if t.leader = me t then
      (* already leading: remind the challenger instead of re-electing *)
      Fabric.send t.fabric ~src:(me t) ~dst:from_
        (Fabric.Coordinator { from_ = me t; round = t.round })
    else if not t.electing then start_election t
  end

let handle_elect_ok t ~round =
  if t.electing && round = t.round then begin
    (* a superior lives; stop waiting for answers, wait for its crown *)
    t.elect_deadline <- None;
    let now = Wd_sim.Sched.now t.sched in
    t.coord_deadline <- Some (Int64.add now coord_timeout)
  end

let handle_recover t ~func ~wire =
  let reason =
    match Report.of_wire wire with
    | Ok r ->
        Fmt.str "fleet indictment: %s %s" r.Report.checker_id
          (Report.fkind_name r.Report.fkind)
    | Error _ -> "fleet indictment"
  in
  ignore (Node.recover t.node ~func ~reason)

let dispatch t (env : Fabric.msg Wd_env.Net.envelope) =
  match env.Wd_env.Net.payload with
  | Fabric.Gossip { from_; accuse_probe; accuse_suspect; digests; _ } ->
      Membership.note_gossip t.membership ~from_;
      Fleet.note_gossip_evidence t.fleet ~from_ ~accuse_probe ~accuse_suspect
        ~digests
  | Fabric.Probe_req { from_; seq } ->
      Membership.handle_probe_req t.membership ~from_ ~seq
  | Fabric.Probe_ack { from_; seq; healthy } ->
      Membership.note_probe_ack t.membership ~from_ ~seq ~healthy
  | Fabric.Report_ship { from_; wire } ->
      (* filed even when not (yet) leader: a stale ship or an election in
         flight must not lose evidence *)
      Fleet.ingest_wire t.fleet ~from_ ~wire
  | Fabric.Elect { from_; round } -> handle_elect t ~from_ ~round
  | Fabric.Elect_ok { round; _ } -> handle_elect_ok t ~round
  | Fabric.Coordinator { from_; round } ->
      t.round <- max t.round round;
      adopt t ~leader:from_
  | Fabric.Recover { func; wire; _ } -> handle_recover t ~func ~wire

(* --- leader duties ------------------------------------------------------ *)

let act_on_verdict t (ev : Fleet.event) =
  match ev.Fleet.ev_verdict with
  | Fleet.Node_gray { node = victim; component = Some func } ->
      let wire = Option.value ev.Fleet.ev_evidence ~default:"" in
      if victim = me t then handle_recover t ~func ~wire
      else
        Fabric.send t.fabric ~src:(me t) ~dst:victim
          (Fabric.Recover { from_ = me t; func; wire })
  | Fleet.Node_gray { component = None; _ }
  | Fleet.Link_fault _ | Fleet.Overload ->
      ()

let fleet_tick t =
  if
    t.leader = me t && (not t.electing)
    && not
         (Fleet.quorum_accused t.fleet (me t)
            ~now:(Wd_sim.Sched.now t.sched))
    (* a quorum of peers accuses *this* node: the fleet is deposing it.
       Demote silently rather than act on verdicts computed by the very
       node they condemn — the successor reaches the same verdict from
       the same gossip, and records it as the one report of record. *)
  then begin
    (* fold this node's own membership view in as self-gossip: the leader
       is a peer like any other, its evidence enters through the same door *)
    Fleet.note_gossip_evidence t.fleet ~from_:(me t)
      ~accuse_probe:(Membership.accused_probe t.membership)
      ~accuse_suspect:(Membership.suspects t.membership)
      ~digests:(Node.recent_digests t.node);
    let newly = Fleet.step t.fleet ~now:(Wd_sim.Sched.now t.sched) in
    List.iter (act_on_verdict t) newly
  end

let election_check t =
  let now = Wd_sim.Sched.now t.sched in
  if t.electing then begin
    (match t.elect_deadline with
    | Some d when now >= d ->
        (* no healthy superior answered: crown self *)
        t.elect_deadline <- None;
        become_leader t
    | Some _ | None -> ());
    match t.coord_deadline with
    | Some d when now >= d ->
        (* a superior answered but never took over: re-run *)
        t.coord_deadline <- None;
        start_election t
    | Some _ | None -> ()
  end
  else if t.leader <> me t && not (locally_healthy t t.leader) then
    start_election t

(* --- agent tasks -------------------------------------------------------- *)

let start t =
  let id = me t in
  (* the single fabric receiver: every message class, one ordered stream *)
  ignore
    (Wd_sim.Sched.spawn ~name:(id ^ "-rx") ~daemon:true t.sched (fun () ->
         while true do
           match
             Fabric.recv_timeout t.fabric id ~timeout:(Wd_sim.Time.ms 250)
           with
           | None -> ()
           | Some env -> dispatch t env
         done));
  (* leadership watchdog *)
  ignore
    (Wd_sim.Sched.spawn ~name:(id ^ "-elect") ~daemon:true t.sched (fun () ->
         while true do
           Wd_sim.Sched.sleep check_period;
           election_check t
         done));
  (* leader-only correlation tick *)
  ignore
    (Wd_sim.Sched.spawn ~name:(id ^ "-fleet") ~daemon:true t.sched (fun () ->
         while true do
           Wd_sim.Sched.sleep Fleet.tick_period;
           fleet_tick t
         done));
  (* evidence as data: every locally-surfaced report leaves the node as
     wire bytes — even self-delivery on the leader goes through the codec *)
  Driver.on_report (Node.driver t.node) (fun r ->
      let wire = Report.to_wire r in
      t.retained <-
        List.filteri (fun i _ -> i < retain_cap)
          ((r.Report.at, wire) :: t.retained);
      if t.leader = id then Fleet.ingest_wire t.fleet ~from_:id ~wire
      else
        Fabric.send t.fabric ~src:id ~dst:t.leader
          (Fabric.Report_ship { from_ = id; wire }))

(* --- views -------------------------------------------------------------- *)

let leader t = t.leader
let leader_history t = List.rev t.leader_history (* chronological *)
let elections_started t = t.elections_started
let fleet t = t.fleet
