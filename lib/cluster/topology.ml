(* Declarative fleet topology: how many nodes, which target system each one
   runs, and what the link fabric between them looks like. A [spec] is pure
   data consumed by [Sim.boot], so a campaign cell stays a pure function of
   (seed, topology, scenario) and topologies can be validated when the
   config is built, long before any scheduler exists.

   Target systems are a closed variant: a spec can only name a
   fleet-capable target, and a new one extends the variant, making every
   dispatch site exhaustive by construction. *)

type system = Zkmini | Cstore

let system_name = function Zkmini -> "zkmini" | Cstore -> "cstore"

(* One directed link override. Unlisted links keep the fabric defaults
   (symmetric base latency, unbounded bandwidth). *)
type link = {
  l_src : int;
  l_dst : int;
  l_latency : int64 option;
  l_bytes_per_sec : int option;
}

type spec = {
  t_name : string;
  t_systems : system list; (* node i runs [List.nth t_systems i] *)
  t_links : link list;
}

let nodes t = List.length t.t_systems

let system_at t i =
  match List.nth_opt t.t_systems i with
  | Some s -> s
  | None ->
      invalid_arg
        (Fmt.str "Topology.system_at: node %d out of range (%s has %d nodes)" i
           t.t_name (nodes t))

let node_systems t = List.map system_name t.t_systems

let validate t =
  if t.t_systems = [] then
    invalid_arg (Fmt.str "Topology %s: no nodes" t.t_name);
  let n = nodes t in
  List.iter
    (fun l ->
      if l.l_src < 0 || l.l_src >= n || l.l_dst < 0 || l.l_dst >= n then
        invalid_arg
          (Fmt.str "Topology %s: link %d->%d out of range (%d nodes)" t.t_name
             l.l_src l.l_dst n);
      if l.l_src = l.l_dst then
        invalid_arg
          (Fmt.str "Topology %s: self-link on node %d" t.t_name l.l_src);
      match l.l_bytes_per_sec with
      | Some r when r <= 0 ->
          invalid_arg
            (Fmt.str "Topology %s: link %d->%d has non-positive bandwidth"
               t.t_name l.l_src l.l_dst)
      | Some _ | None -> ())
    t.t_links;
  t

let uniform ?name ~nodes:n system =
  if n <= 0 then invalid_arg "Topology.uniform: need at least one node";
  let name =
    match name with Some x -> x | None -> system_name system
  in
  { t_name = name; t_systems = List.init n (fun _ -> system); t_links = [] }

let mixed ?(name = "mixed") systems =
  validate { t_name = name; t_systems = systems; t_links = [] }

let with_link t ~src ~dst ?latency ?bytes_per_sec () =
  validate
    {
      t with
      t_links =
        { l_src = src; l_dst = dst; l_latency = latency;
          l_bytes_per_sec = bytes_per_sec }
        :: t.t_links;
    }

(* Uniform topologies read as just the system name, so single-system tables
   keep their familiar "zkmini" / "cstore" cells; anything else reads as
   the topology's own name. *)
let describe t =
  match t.t_systems with
  | s :: rest when List.for_all (( = ) s) rest && t.t_links = [] ->
      system_name s
  | _ -> t.t_name

(* --- presets: heterogeneous fleets over an asymmetric fabric -----------

   Both presets model two racks: a local rack holding the leader-priority
   nodes and a remote rack behind asymmetric links — crossing towards the
   remote rack costs 4x the base propagation latency, while the return
   path keeps base latency but squeezes through a bandwidth-bounded pipe
   (so big wire-encoded report ships serialise; heartbeat gossip barely
   notices). zkmini instances sit at fixed slots so scenario victims land
   on known systems; the rest run cstore. *)

let cross_rack t ~remote_from ~cross_latency ~return_bps =
  let n = nodes t in
  let rec add t i j =
    if i >= remote_from then t
    else if j >= n then add t (i + 1) remote_from
    else
      let t = with_link t ~src:i ~dst:j ~latency:cross_latency () in
      let t = with_link t ~src:j ~dst:i ~bytes_per_sec:return_bps () in
      add t i (j + 1)
  in
  add t 0 remote_from

let hetero9 () =
  let systems =
    List.init 9 (fun i -> match i with 1 | 6 -> Zkmini | _ -> Cstore)
  in
  cross_rack
    (mixed ~name:"hetero9" systems)
    ~remote_from:6
    ~cross_latency:(Wd_sim.Time.ms 4)
    ~return_bps:262_144

let hetero15 () =
  let systems =
    List.init 15 (fun i -> match i with 1 | 7 | 13 -> Zkmini | _ -> Cstore)
  in
  cross_rack
    (mixed ~name:"hetero15" systems)
    ~remote_from:10
    ~cross_latency:(Wd_sim.Time.ms 4)
    ~return_bps:262_144

(* Materialise the link overrides for a fabric whose endpoints are
   [node_name i]. *)
let link_profiles t ~node_name =
  List.rev_map
    (fun l ->
      ( node_name l.l_src,
        node_name l.l_dst,
        {
          Wd_env.Net.lp_latency = l.l_latency;
          lp_bytes_per_sec = l.l_bytes_per_sec;
        } ))
    t.t_links
