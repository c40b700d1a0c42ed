(** Cluster-scoped failure scenarios for the fleet aggregation plane.

    Unlike {!Catalog} scenarios, which are injected into one process's
    environment, these name a victim inside a fleet: a node index whose
    local environment degrades, a directed fabric link to cut, or a
    fleet-wide condition with no victim at all. The expected verdict is
    what the fleet plane should conclude from correlating the nodes' local
    watchdog streams. *)

type ckind =
  | Node_limplock of { victim : int; factor : float }
      (** the victim's disks degrade by [factor] but never fail: its mimic
          checkers alarm, peers' probes of it stall, everyone else healthy *)
  | Asym_partition of { src : int; dst : int }
      (** drop fabric messages src->dst only; dst->src stays alive — the
          partial partition whose cut the probe matrix must localise *)
  | Fleet_overload
      (** every node flooded by legitimate open-loop bursts: signal
          checkers alarm fleet-wide, mimics stay quiet (§4.2 false-alarm
          case at fleet scope) *)
  | Fault_free
  | Link_flap of { src : int; dst : int; window : int64 }
      (** transient fabric fault: drop src->dst for a bounded window, then
          heal — short enough that a correct plane indicts nothing *)
  | Slow_fabric_link of { src : int; dst : int; factor : float }
      (** degrade one fabric direction by [factor] without dropping
          anything: probes over it limp, every payload still arrives *)
  | Correlated of ckind list
      (** several kinds at once: stresses the verdict rules' priority *)

(** What the fleet plane should conclude. *)
type expected_verdict =
  | Expect_node of int  (** indict exactly this node (by index) *)
  | Expect_links  (** indict links only; no node indicted *)
  | Expect_no_indictment  (** overload / fault-free: stay quiet *)

type cscenario = {
  csid : string;
  cdescription : string;
  ckind : ckind;
  cexpected : expected_verdict;
  ctruth : (string * string list) list;
      (** acceptable localisation per system: any generated-checker report
          whose function is in the list counts as "right component" *)
}

val all : cscenario list
(** The original four-cell grid; the long-standing 8/8-indict / 0/8-false
    oracle runs over exactly these. *)

val extras : cscenario list
(** Scenarios beyond the grid; campaigns and experiment grids opt in
    explicitly so the oracle over {!all} stays meaningful. *)

val find : string -> cscenario
(** Looks up {!all} then {!extras}; raises [Invalid_argument] on an
    unknown id. *)

val truth_components : cscenario -> system:string -> string list
(** Accepted localisations for [system], or [[]] when any/no component is
    acceptable (link and no-indictment scenarios). *)

val max_node_index : cscenario -> int
(** Highest node index the scenario touches (victims and link endpoints),
    or [-1] for fleet-wide kinds — lets a campaign config reject a
    topology too small for its scenario before any scheduler exists. *)

val inject :
  node_reg:(int -> Wd_env.Faultreg.t) ->
  fabric_reg:Wd_env.Faultreg.t ->
  node_name:(int -> string) ->
  at:int64 ->
  cscenario ->
  unit
(** Materialise the scenario into faults at [at]. [node_reg i] is node
    [i]'s private registry (a fault there degrades that node only);
    [fabric_reg] governs the shared inter-node fabric. Overload and
    fault-free inject nothing — the burst is workload, not a fault. *)
