(** Aggregate statistics over repeated campaign runs: detection rates and
    latency distributions across seeds. The simulator is deterministic per
    seed, so a multi-seed sweep measures sensitivity to event interleavings,
    not flakiness. *)

type latency_stats = {
  ls_count : int;   (** runs in which detection happened *)
  ls_total : int;   (** runs overall *)
  ls_min : int64;
  ls_median : int64;
  ls_p90 : int64;
  ls_max : int64;
}

val latency_stats_of : int64 list -> total:int -> latency_stats
val pp_latency_stats : Format.formatter -> latency_stats -> unit

val scenario_across_seeds :
  ?cfg:Campaign.config ->
  seeds:int list ->
  detector:string ->
  string ->
  latency_stats * int
(** Run the scenario once per seed; returns the detector's latency stats and
    how many runs pinpointed exactly. *)

type family_stats = {
  fam_family : string;  (** mimic | probe | signal | inferred *)
  fam_indictments : int;  (** evidence-backed verdicts on faulty cells *)
  fam_false_positives : int;  (** evidence-backed verdicts on quiet cells *)
}

type fleet_summary = {
  fs_faulty : int;  (** cells whose scenario expects an indictment *)
  fs_right : int;  (** ... that indicted exactly the right target *)
  fs_node_cells : int;  (** cells expecting a node indictment *)
  fs_component_right : int;  (** ... that also named a true component *)
  fs_quiet : int;  (** cells expecting no indictment *)
  fs_false_indict : int;  (** ... that indicted a node or link anyway *)
  fs_latency : latency_stats;  (** first-verdict latency over faulty cells *)
  fs_mttr : latency_stats;
      (** injection -> first fleet-commanded microreboot, over node cells *)
  fs_families : family_stats list;
      (** evidence-backed verdicts attributed to the checker family whose
          report the verdict shipped, in {!Campaign.intrinsic_families}
          order *)
}

val fleet_summary : Wd_cluster.Sim.result list -> fleet_summary
(** Grade a batch of cluster cells (E17): indictment accuracy over faulty
    scenarios, false-indictment rate over quiet ones, detection latency,
    and per-checker-family attribution of the evidence behind verdicts. *)

val pp_family_stats : Format.formatter -> family_stats list -> unit
(** Render the per-family breakout on one line:
    ["mimic 12 (+0 fp), probe 0 (+0 fp), ..."]. *)
