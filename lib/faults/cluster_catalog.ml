(* Cluster-scoped failure scenarios for the fleet aggregation plane
   (`wd_cluster`). Unlike [Catalog] scenarios, which are injected into one
   process's environment, these name a *victim inside a fleet*: a node
   index whose local environment degrades, a directed fabric link to cut,
   or a fleet-wide condition with no victim at all. The expected verdict is
   what the fleet plane should conclude from correlating the nodes' local
   watchdog streams — the cluster analogue of Catalog's [expectation]. *)

type ckind =
  | Node_limplock of { victim : int; factor : float }
      (* the victim's disks degrade by [factor] but never fail: its mimic
         checkers alarm, peers' probes of it stall, everyone else healthy *)
  | Asym_partition of { src : int; dst : int }
      (* drop fabric messages src->dst only; dst->src stays alive — the
         partial partition whose cut the probe matrix must localise *)
  | Fleet_overload
      (* every node is flooded by legitimate open-loop bursts: signal
         checkers alarm fleet-wide, mimics stay quiet — the paper's §4.2
         false-alarm case lifted to fleet scope *)
  | Fault_free
  | Link_flap of { src : int; dst : int; window : int64 }
      (* transient fabric fault: drop src->dst for a bounded window, then
         heal. Shorter than the suspicion timeout and the probe timeout's
         reach, so a correct plane accumulates at most one consecutive
         probe failure and indicts nothing *)
  | Slow_fabric_link of { src : int; dst : int; factor : float }
      (* degrade one fabric direction by [factor] without dropping anything:
         probes over it limp, every payload still arrives *)
  | Correlated of ckind list
      (* inject several kinds at once: the correlated failures that stress
         the verdict rules' priority order *)

(* What the fleet plane should conclude. *)
type expected_verdict =
  | Expect_node of int      (* indict exactly this node (by index) *)
  | Expect_links            (* indict links only; no node indicted *)
  | Expect_no_indictment    (* overload / fault-free: stay quiet *)

type cscenario = {
  csid : string;
  cdescription : string;
  ckind : ckind;
  cexpected : expected_verdict;
  (* acceptable localisation per system: any generated-checker report whose
     function is in this list counts as "right component" *)
  ctruth : (string * string list) list;
}

let all =
  [
    {
      csid = "fleet-limplock";
      cdescription =
        "one node's disks degrade 2000x but never fail; its heartbeat gossip \
         keeps flowing";
      ckind = Node_limplock { victim = 2; factor = 2000. };
      cexpected = Expect_node 2;
      ctruth =
        [
          ( "zkmini",
            [ "commit_txn"; "serialize_node"; "serialize_snapshot";
              "follower_loop" ] );
          ( "cstore",
            [ "do_write"; "flush_memtable"; "compact_once"; "do_read" ] );
        ];
    };
    {
      csid = "fleet-asym-partition";
      cdescription =
        "fabric cut n1->n3 only: probes across the cut fail both ways, \
         every node keeps healthy links elsewhere";
      ckind = Asym_partition { src = 1; dst = 3 };
      cexpected = Expect_links;
      ctruth = [];
    };
    {
      csid = "fleet-overload";
      cdescription =
        "legitimate burst traffic floods every node's request queue; no \
         fault anywhere";
      ckind = Fleet_overload;
      cexpected = Expect_no_indictment;
      ctruth = [];
    };
    {
      csid = "fleet-fault-free";
      cdescription = "no fault, no overload: any indictment is false";
      ckind = Fault_free;
      cexpected = Expect_no_indictment;
      ctruth = [];
    };
  ]

(* Scenarios beyond the original four-cell grid. Kept out of [all] so the
   long-standing 8/8-indict / 0/8-false oracle over [all] stays meaningful;
   campaign and experiment grids opt in explicitly. *)
let extras =
  [
    {
      csid = "fleet-link-flap";
      cdescription =
        "fabric link n1->n3 drops for 1.2s then heals: a transient flap the \
         plane must ride out without suspicion or indictment";
      ckind = Link_flap { src = 1; dst = 3; window = Wd_sim.Time.ms 1200 };
      cexpected = Expect_no_indictment;
      ctruth = [];
    };
    {
      csid = "fleet-leader-limplock";
      cdescription =
        "the elected leader's own disks degrade 2000x: the plane must fail \
         over to a successor, which indicts and recovers the old leader";
      ckind = Node_limplock { victim = 0; factor = 2000. };
      cexpected = Expect_node 0;
      ctruth =
        [
          ( "zkmini",
            [ "commit_txn"; "serialize_node"; "serialize_snapshot";
              "follower_loop" ] );
          ( "cstore",
            [ "do_write"; "flush_memtable"; "compact_once"; "do_read" ] );
        ];
    };
    {
      csid = "fleet-limplock-partition";
      cdescription =
        "one node limps while an unrelated fabric link is cut: the node \
         verdict must win the priority race, the cut must not shift blame";
      ckind =
        Correlated
          [
            Node_limplock { victim = 2; factor = 2000. };
            Asym_partition { src = 1; dst = 3 };
          ];
      cexpected = Expect_node 2;
      ctruth =
        [
          ( "zkmini",
            [ "commit_txn"; "serialize_node"; "serialize_snapshot";
              "follower_loop" ] );
          ( "cstore",
            [ "do_write"; "flush_memtable"; "compact_once"; "do_read" ] );
        ];
    };
    {
      csid = "fleet-slow-link-gray";
      cdescription =
        "a gray node behind a link that also limps: the slow link masks \
         nothing — mimic evidence must still pin the node, not the fabric";
      ckind =
        Correlated
          [
            Node_limplock { victim = 1; factor = 2000. };
            Slow_fabric_link { src = 1; dst = 0; factor = 200. };
          ];
      cexpected = Expect_node 1;
      ctruth =
        [
          ( "zkmini",
            [ "commit_txn"; "serialize_node"; "serialize_snapshot";
              "follower_loop" ] );
          ( "cstore",
            [ "do_write"; "flush_memtable"; "compact_once"; "do_read" ] );
        ];
    };
  ]

let find csid =
  match List.find_opt (fun s -> s.csid = csid) (all @ extras) with
  | Some s -> s
  | None ->
      invalid_arg (Fmt.str "Cluster_catalog.find: unknown scenario %s" csid)

(* Accepted localisations for [system], or [] when any/no component is
   acceptable (link and no-indictment scenarios). *)
let truth_components s ~system =
  match List.assoc_opt system s.ctruth with Some fs -> fs | None -> []

(* Highest node index the scenario touches (victims and link endpoints), or
   -1 for fleet-wide kinds. Lets a campaign config reject a topology too
   small for its scenario before any scheduler exists. *)
let rec max_index_of_kind = function
  | Node_limplock { victim; _ } -> victim
  | Asym_partition { src; dst }
  | Link_flap { src; dst; _ }
  | Slow_fabric_link { src; dst; _ } ->
      max src dst
  | Fleet_overload | Fault_free -> -1
  | Correlated ks -> List.fold_left (fun acc k -> max acc (max_index_of_kind k)) (-1) ks

let max_node_index s = max_index_of_kind s.ckind

(* Materialise the scenario into faults at [at].

   [node_reg i] is node i's private environment registry — a fault injected
   there degrades that node only, even though every node names its disk by
   the same site string. [fabric_reg] governs the shared inter-node fabric,
   where sites carry src/dst node ids ("net:fabric:send:n1:n3"). Overload
   and fault-free inject nothing; the overload burst is workload, not a
   fault, and is driven by the cluster boot. *)
let inject ~node_reg ~fabric_reg ~node_name ~at s =
  let rec go tag kind =
    match kind with
    | Node_limplock { victim; factor } ->
        Wd_env.Faultreg.inject (node_reg victim)
          {
            Wd_env.Faultreg.id = tag;
            site_pattern = "disk:*";
            behaviour = Wd_env.Faultreg.Slow_factor factor;
            start_at = at;
            stop_at = Wd_sim.Time.never;
            once = false;
          }
    | Asym_partition { src; dst } ->
        Wd_env.Faultreg.inject fabric_reg
          {
            Wd_env.Faultreg.id = tag;
            site_pattern =
              Fmt.str "net:fabric:send:%s:%s" (node_name src) (node_name dst);
            behaviour = Wd_env.Faultreg.Drop;
            start_at = at;
            stop_at = Wd_sim.Time.never;
            once = false;
          }
    | Link_flap { src; dst; window } ->
        Wd_env.Faultreg.inject fabric_reg
          {
            Wd_env.Faultreg.id = tag;
            site_pattern =
              Fmt.str "net:fabric:send:%s:%s" (node_name src) (node_name dst);
            behaviour = Wd_env.Faultreg.Drop;
            start_at = at;
            stop_at = Int64.add at window;
            once = false;
          }
    | Slow_fabric_link { src; dst; factor } ->
        Wd_env.Faultreg.inject fabric_reg
          {
            Wd_env.Faultreg.id = tag;
            site_pattern =
              Fmt.str "net:fabric:send:%s:%s" (node_name src) (node_name dst);
            behaviour = Wd_env.Faultreg.Slow_factor factor;
            start_at = at;
            stop_at = Wd_sim.Time.never;
            once = false;
          }
    | Fleet_overload | Fault_free -> ()
    | Correlated ks ->
        List.iteri (fun i k -> go (Fmt.str "%s#%d" tag i) k) ks
  in
  go s.csid s.ckind
