(* Aggregate statistics over repeated campaign runs: detection rates and
   latency distributions across seeds. The simulator is deterministic per
   seed, so a multi-seed sweep measures sensitivity to event interleavings
   (workload phase, jitter draws), not flakiness. *)

type latency_stats = {
  ls_count : int;        (* runs in which detection happened *)
  ls_total : int;        (* runs overall *)
  ls_min : int64;
  ls_median : int64;
  ls_p90 : int64;
  ls_max : int64;
}

let latency_stats_of latencies ~total =
  match List.sort compare latencies with
  | [] ->
      { ls_count = 0; ls_total = total; ls_min = 0L; ls_median = 0L;
        ls_p90 = 0L; ls_max = 0L }
  | sorted ->
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      let pick p = arr.(min (n - 1) (int_of_float (p *. float_of_int n))) in
      {
        ls_count = n;
        ls_total = total;
        ls_min = arr.(0);
        ls_median = pick 0.5;
        ls_p90 = pick 0.9;
        ls_max = arr.(n - 1);
      }

let pp_latency_stats ppf s =
  if s.ls_count = 0 then Fmt.pf ppf "0/%d detected" s.ls_total
  else
    Fmt.pf ppf "%d/%d detected; median %a (p90 %a, max %a)" s.ls_count
      s.ls_total Wd_sim.Time.pp s.ls_median Wd_sim.Time.pp s.ls_p90
      Wd_sim.Time.pp s.ls_max

(* Run one scenario across several seeds and aggregate one detector class. *)
let scenario_across_seeds ?(cfg = Campaign.default_config) ~seeds ~detector sid =
  let outcomes =
    List.map
      (fun seed ->
        let r = Campaign.run_scenario ~cfg:{ cfg with Campaign.seed } sid in
        List.assoc detector r.Campaign.r_outcomes)
      seeds
  in
  let latencies =
    List.filter_map (fun o -> o.Campaign.o_latency) outcomes
  in
  let exact =
    List.length
      (List.filter (fun o -> o.Campaign.o_pinpoint = Some Campaign.Exact) outcomes)
  in
  (latency_stats_of latencies ~total:(List.length seeds), exact)

(* --- fleet-level aggregation (E17) ------------------------------------ *)

type family_stats = {
  fam_family : string; (* mimic | probe | signal | inferred *)
  fam_indictments : int; (* evidence-backed verdicts on faulty cells *)
  fam_false_positives : int; (* evidence-backed verdicts on quiet cells *)
}

type fleet_summary = {
  fs_faulty : int; (* cells whose scenario expects an indictment *)
  fs_right : int; (* ... that indicted exactly the right target *)
  fs_node_cells : int; (* cells expecting a node indictment *)
  fs_component_right : int; (* ... that also named a true component *)
  fs_quiet : int; (* cells expecting no indictment *)
  fs_false_indict : int; (* ... that indicted a node or link anyway *)
  fs_latency : latency_stats; (* first-verdict latency over faulty cells *)
  fs_mttr : latency_stats;
      (* injection -> first fleet-commanded microreboot, over node cells:
         the decentralized plane's verdict-driven repair loop end to end *)
  fs_families : family_stats list;
      (* evidence-backed verdicts attributed to the checker family that
         produced the shipped report, in [Campaign.intrinsic_families]
         order *)
}

(* Which checker family stands behind each evidence-backed fleet verdict:
   the verdict's evidence travels as report wire bytes, so decoding it
   recovers the checker id of whichever local detector fired. *)
let evidence_families (r : Wd_cluster.Sim.result) =
  List.filter_map
    (fun (_, (e : Wd_cluster.Fleet.event)) ->
      match e.Wd_cluster.Fleet.ev_evidence with
      | None -> None
      | Some wire -> (
          match Wd_watchdog.Report.of_wire wire with
          | Error _ -> None
          | Ok rep ->
              let id = rep.Wd_watchdog.Report.checker_id in
              Some (Campaign.family_of_checker id)))
    r.Wd_cluster.Sim.cr_events

let fleet_summary (rs : Wd_cluster.Sim.result list) =
  let expects_indictment (r : Wd_cluster.Sim.result) =
    match
      (Wd_faults.Cluster_catalog.find r.Wd_cluster.Sim.cr_csid)
        .Wd_faults.Cluster_catalog.cexpected
    with
    | Wd_faults.Cluster_catalog.Expect_no_indictment -> false
    | Wd_faults.Cluster_catalog.Expect_node _
    | Wd_faults.Cluster_catalog.Expect_links ->
        true
  in
  let expects_node (r : Wd_cluster.Sim.result) =
    match
      (Wd_faults.Cluster_catalog.find r.Wd_cluster.Sim.cr_csid)
        .Wd_faults.Cluster_catalog.cexpected
    with
    | Wd_faults.Cluster_catalog.Expect_node _ -> true
    | _ -> false
  in
  let faulty = List.filter expects_indictment rs in
  let quiet = List.filter (fun r -> not (expects_indictment r)) rs in
  let node_cells = List.filter expects_node rs in
  {
    fs_faulty = List.length faulty;
    fs_right =
      List.length
        (List.filter (fun r -> r.Wd_cluster.Sim.cr_as_expected) faulty);
    fs_node_cells = List.length node_cells;
    fs_component_right =
      List.length
        (List.filter (fun r -> r.Wd_cluster.Sim.cr_component_ok) node_cells);
    fs_quiet = List.length quiet;
    fs_false_indict =
      List.length
        (List.filter
           (fun (r : Wd_cluster.Sim.result) ->
             r.Wd_cluster.Sim.cr_indicted_nodes <> []
             || r.Wd_cluster.Sim.cr_indicted_links <> [])
           quiet);
    fs_latency =
      latency_stats_of
        (List.filter_map (fun r -> r.Wd_cluster.Sim.cr_first_latency) faulty)
        ~total:(List.length faulty);
    fs_mttr =
      latency_stats_of
        (List.filter_map
           (fun r -> r.Wd_cluster.Sim.cr_first_recovery_latency)
           node_cells)
        ~total:(List.length node_cells);
    fs_families =
      (let count cells fam =
         List.fold_left
           (fun acc r ->
             acc
             + List.length
                 (List.filter (String.equal fam) (evidence_families r)))
           0 cells
       in
       List.map
         (fun fam ->
           {
             fam_family = fam;
             fam_indictments = count faulty fam;
             fam_false_positives = count quiet fam;
           })
         Campaign.intrinsic_families);
  }

let pp_family_stats ppf fams =
  Fmt.pf ppf "%a"
    Fmt.(
      list ~sep:(any ", ") (fun ppf f ->
          Fmt.pf ppf "%s %d (+%d fp)" f.fam_family f.fam_indictments
            f.fam_false_positives))
    fams
