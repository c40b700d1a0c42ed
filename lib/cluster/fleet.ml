(* The fleet correlation engine: turns N streams of local findings into one
   fleet-level verdict — decentralized edition.

   Every node carries one of these engines, but only the elected leader's
   runs ([Election] drives [step] leader-only). Nothing here reaches across
   node boundaries: evidence arrives as *messages* —

   - [ingest_wire]: a wire-encoded watchdog report shipped over the fabric
     ([Fabric.Report_ship]), decoded and filed into the origin node's inbox.
     Duplicates (re-sends after a leader change) dedupe on the wire bytes.
   - [note_gossip_evidence]: the accusation lists and report digests each
     node piggybacks on its heartbeat gossip. Accusations are kept per
     accuser and fade if the accuser's gossip stops; digests corroborate
     shipped reports (and stand in for them if a ship was lost).

   Because gossip reaches every node, every engine's accusation matrices and
   digest sets stay warm even while it is a follower — a freshly elected
   leader only needs the full reports re-shipped to resume correlating.

   Rule set, evaluated in priority order each tick (unchanged from the
   centralized plane):

   1. Global overload — signal evidence on a majority of nodes while every
      mimic checker is quiet. Queue pressure without any failed or slow
      mimicked operation means legitimate load, not a fault: record
      [Overload], indict nobody (the paper's §4.2 false-alarm case).

   2. Node-local gray failure — some node's mimic checkers alarm AND at
      least [quorum] distinct peers independently accuse it (deep probes
      failing, or suspected for gossip silence). Indict the node, name the
      component from its mimic report's localisation, and keep that
      report's wire bytes as the verdict's evidence — the leader sends them
      back in its [Recover] command, and they seed cross-node reproduction.

   3. Fabric-level failure — no mimic alarms anywhere, yet probes fail on
      specific (a,b) pairs while every involved node still has a healthy
      link to some other peer. Indict the link pairs, never a node.
      Probe accusations only: gossip-silence suspicion names no direction.

   A candidate verdict must survive [confirm] consecutive ticks before it
   is recorded (debounce), and each distinct verdict is recorded once. *)

module Report = Wd_watchdog.Report
module Checker = Wd_watchdog.Checker

type verdict =
  | Node_gray of { node : string; component : string option }
  | Link_fault of { links : (string * string) list }
  | Overload

type event = {
  ev_at : int64;
  ev_verdict : verdict;
  ev_evidence : string option;
      (* wire bytes of the report that localised a Node_gray verdict *)
}

(* the per-origin-node report inbox; [seen] dedupes re-shipped wires *)
type inbox = {
  mutable reps : (Report.t * string) list; (* newest first; report + wire *)
  seen : (string, unit) Hashtbl.t;
}

(* one accuser's latest piggybacked view; replaced on each of its gossips *)
type accusation = {
  acc_at : int64;
  acc_probe : string list; (* peers whose deep probes the accuser sees failing *)
  acc_suspect : string list; (* peers the accuser suspects for gossip silence *)
}

(* the correlation period: the leader's election agent steps the engine
   this often *)
let tick_period = Wd_sim.Time.ms 500

(* mimic evidence is fresh within this *)
let mimic_window = Wd_sim.Time.sec 10

(* signal evidence fades slower: the driver dedups repeats for 30s, so
   persistent overload re-reports at that cadence; the window must outlast
   the gap or overload would "blink" and let rules 2-3 misfire in between *)
let signal_window = Wd_sim.Time.sec 45

(* an accuser's gossip view is live within this; a dead accuser's stale
   accusations fade *)
let accuse_window = Wd_sim.Time.sec 2

(* distinct peers that must accuse a node before rule 2 indicts it *)
let quorum = 2

(* consecutive ticks a candidate verdict must survive before it is recorded *)
let confirm = 2

type t = {
  sched : Wd_sim.Sched.t;
  node_ids : string list;
  inboxes : (string, inbox) Hashtbl.t;
  digests : (string, (Fabric.digest, unit) Hashtbl.t) Hashtbl.t;
  accusations : (string, accusation) Hashtbl.t; (* keyed by accuser *)
  streaks : (string, int) Hashtbl.t; (* verdict key -> consecutive ticks *)
  recorded : (string, unit) Hashtbl.t;
  mutable events : event list; (* newest first *)
  mutable rejected : int; (* wires that failed to decode *)
}

let create ~sched ~node_ids =
  let t =
    {
      sched;
      node_ids;
      inboxes = Hashtbl.create 8;
      digests = Hashtbl.create 8;
      accusations = Hashtbl.create 8;
      streaks = Hashtbl.create 8;
      recorded = Hashtbl.create 8;
      events = [];
      rejected = 0;
    }
  in
  List.iter
    (fun id ->
      Hashtbl.replace t.inboxes id { reps = []; seen = Hashtbl.create 32 };
      Hashtbl.replace t.digests id (Hashtbl.create 32))
    node_ids;
  t

(* --- evidence intake ---------------------------------------------------- *)

let ingest_wire t ~from_ ~wire =
  match Hashtbl.find_opt t.inboxes from_ with
  | None -> ()
  | Some ib ->
      if not (Hashtbl.mem ib.seen wire) then begin
        match Report.of_wire wire with
        | Ok r ->
            Hashtbl.replace ib.seen wire ();
            ib.reps <- (r, wire) :: ib.reps
        | Error _ -> t.rejected <- t.rejected + 1
      end

let note_gossip_evidence t ~from_ ~accuse_probe ~accuse_suspect ~digests =
  Hashtbl.replace t.accusations from_
    {
      acc_at = Wd_sim.Sched.now t.sched;
      acc_probe = accuse_probe;
      acc_suspect = accuse_suspect;
    };
  match Hashtbl.find_opt t.digests from_ with
  | None -> ()
  | Some set -> List.iter (fun d -> Hashtbl.replace set d ()) digests

let rejected t = t.rejected

(* --- evidence views ----------------------------------------------------- *)

let fresh_reports t node_id ~now ~window ~kind =
  match Hashtbl.find_opt t.inboxes node_id with
  | None -> []
  | Some ib ->
      List.filter
        (fun ((r : Report.t), _) ->
          Checker.kind_of_id r.Report.checker_id = kind
          && Int64.sub now r.Report.at <= window)
        ib.reps

let has_fresh_digest t node_id ~now ~window ~kind =
  match Hashtbl.find_opt t.digests node_id with
  | None -> false
  | Some set ->
      Hashtbl.fold
        (fun (d : Fabric.digest) () acc ->
          acc
          || (Checker.kind_of_id d.Fabric.d_checker = kind
             && Int64.sub now d.Fabric.d_at <= window))
        set false

(* a node shows evidence of [kind] if a fresh full report reached us, or a
   fresh digest was corroborated over gossip *)
let has_evidence t node_id ~now ~window ~kind =
  fresh_reports t node_id ~now ~window ~kind <> []
  || has_fresh_digest t node_id ~now ~window ~kind

let live_accusation t accuser ~now =
  match Hashtbl.find_opt t.accusations accuser with
  | Some a when Int64.sub now a.acc_at <= accuse_window -> Some a
  | Some _ | None -> None

(* peers currently accusing [node_id]: deep probe failing, or suspected for
   gossip silence *)
let accusers t node_id ~now =
  List.filter
    (fun accuser ->
      accuser <> node_id
      &&
      match live_accusation t accuser ~now with
      | None -> false
      | Some a ->
          List.mem node_id a.acc_probe || List.mem node_id a.acc_suspect)
    t.node_ids

(* is [node_id] accused by a quorum of peers right now?  The election agent
   consults this about *itself*: a leader the fleet is about to indict must
   demote instead of stepping its own engine — a verdict computed by the
   gray node it condemns is not trustworthy, and the successor will reach
   the same one from the same gossip. *)
let quorum_accused t node_id ~now =
  List.length (accusers t node_id ~now) >= quorum

(* directed probe-failure view: does [a] (freshly) accuse [b]'s deep probes?
   Rule 3 uses this alone — suspicion names no direction. *)
let probe_accuses t a b ~now =
  match live_accusation t a ~now with
  | None -> false
  | Some acc -> List.mem b acc.acc_probe

let canonical_pair a b = if a <= b then (a, b) else (b, a)

let verdict_key = function
  | Overload -> "overload"
  | Node_gray { node; _ } -> "node:" ^ node
  | Link_fault { links } ->
      "links:" ^ String.concat "," (List.map (fun (a, b) -> a ^ "-" ^ b) links)

(* one correlation tick: compute candidate verdicts (with their evidence) *)
let candidates t ~now =
  let n = List.length t.node_ids in
  let mimic_nodes =
    List.filter
      (fun id -> has_evidence t id ~now ~window:mimic_window ~kind:Checker.Mimic)
      t.node_ids
  in
  let signal_count =
    List.length
      (List.filter
         (fun id ->
           has_evidence t id ~now ~window:signal_window ~kind:Checker.Signal)
         t.node_ids)
  in
  (* rule 1: overload *)
  if 2 * signal_count > n && mimic_nodes = [] then [ (Overload, None) ]
  else
    (* rule 2: node-local gray failure *)
    let gray =
      List.filter_map
        (fun id ->
          if List.length (accusers t id ~now) >= quorum then
            (* oldest loc'd fresh mimic report names the component; its wire
               bytes ride along as the verdict's evidence *)
            let located =
              List.find_opt
                (fun ((r : Report.t), _) -> r.Report.loc <> None)
                (List.rev
                   (fresh_reports t id ~now ~window:mimic_window
                      ~kind:Checker.Mimic))
            in
            let component =
              match located with
              | Some (r, _) -> Option.map Wd_ir.Loc.func r.Report.loc
              | None -> None
            in
            Some
              ( Node_gray { node = id; component },
                Option.map snd located )
          else None)
        mimic_nodes
    in
    if gray <> [] then gray
    else if mimic_nodes <> [] then []
    else
      (* rule 3: fabric-level failure; only with every mimic quiet *)
      let ids = t.node_ids in
      let pairs =
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b ->
                if a < b then
                  if probe_accuses t a b ~now || probe_accuses t b a ~now then
                    Some (canonical_pair a b)
                  else None
                else None)
              ids)
          ids
      in
      if pairs = [] then []
      else
        let involved =
          List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) pairs)
        in
        let has_healthy_link x =
          List.exists
            (fun y ->
              y <> x
              && (not (probe_accuses t x y ~now))
              && not (probe_accuses t y x ~now))
            ids
        in
        if List.for_all has_healthy_link involved then
          [ (Link_fault { links = pairs }, None) ]
        else []

(* one debounced correlation step; returns the events recorded *this* tick
   so the caller (the leader's election agent) can act on fresh verdicts *)
let step t ~now =
  let cands = candidates t ~now in
  let keys = List.map (fun (v, _) -> verdict_key v) cands in
  (* a candidate absent this tick resets its streak (debounce semantics) *)
  let stale =
    Hashtbl.fold
      (fun k _ acc -> if List.mem k keys then acc else k :: acc)
      t.streaks []
  in
  List.iter (Hashtbl.remove t.streaks) stale;
  List.filter_map
    (fun (v, evidence) ->
      let key = verdict_key v in
      let streak =
        (match Hashtbl.find_opt t.streaks key with Some s -> s | None -> 0) + 1
      in
      Hashtbl.replace t.streaks key streak;
      if streak >= confirm && not (Hashtbl.mem t.recorded key) then begin
        Hashtbl.replace t.recorded key ();
        let ev = { ev_at = now; ev_verdict = v; ev_evidence = evidence } in
        t.events <- ev :: t.events;
        Some ev
      end
      else None)
    cands

(* --- results ----------------------------------------------------------- *)

let events t = List.rev t.events (* chronological *)
