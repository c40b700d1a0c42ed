(* The repo's hard gates, evaluated in one place.

   Each gate family is a pure function from an experiment's result record
   to a list of verdicts, so tests can feed doctored records at and past
   every bound. [families] runs the experiments at their gated sizes and
   [evaluate] checks every gate; a failing gate, or an experiment that
   raises, never stops the families after it. *)

type gate = { name : string; measured : string; bound : string; pass : bool }

let gate name ~measured ~bound pass = { name; measured; bound; pass }
let missing name = gate name ~measured:"missing" ~bound:"present" false
let sp = Printf.sprintf

let render g =
  sp "%-37s %-32s %-12s %s" g.name g.measured g.bound
    (if g.pass then "PASS" else "FAIL")

(* --- bounds ---------------------------------------------------------- *)

let min_speedup = 1.2
let min_ok_ratio = 0.99
let min_workload_requests = 1_000_000
let max_alloc_bytes_per_req = 8_500.
let min_sched_cut_pct = 30.

(* --- runs across domain-pool widths ---------------------------------- *)

type 'a width_run = {
  wr_jobs : int;
  wr_effective : int;
  wr_secs : float;
  wr_result : 'a;
}

let widths_of runs =
  String.concat "," (List.map (fun r -> string_of_int r.wr_jobs) runs)

let identical name runs =
  match runs with
  | [] -> missing name
  | first :: _ ->
      let differ = List.filter (fun r -> r.wr_result <> first.wr_result) runs in
      gate name
        ~measured:
          (if differ = [] then "identical at " ^ widths_of runs
           else "differs at " ^ widths_of differ)
        ~bound:"identical" (differ = [])

(* Speedup of each point over the first run, which is width 1. A point
   only counts as parallel when the pool really ran it on >= 2 domains. *)
let jobs_curve runs =
  let base = match runs with r :: _ -> r.wr_secs | [] -> 0. in
  let widest = List.fold_left (fun acc r -> max acc r.wr_effective) 0 runs in
  gate "e2.jobs_curve.max_width" ~measured:(string_of_int widest)
    ~bound:">= 2" (widest >= 2)
  :: List.filter_map
       (fun r ->
         if r.wr_effective < 2 then None
         else
           let x = base /. Float.max 1e-9 r.wr_secs in
           Some
             (gate
                (sp "e2.jobs_curve.speedup@%d" r.wr_jobs)
                ~measured:(sp "%.2fx (width %d)" x r.wr_effective)
                ~bound:(sp ">= %.2fx" min_speedup)
                (x >= min_speedup)))
       runs

(* --- gates over experiment results ------------------------------------ *)

open Experiments

let find key f xs = List.find_opt (fun x -> f x = key) xs
let latency = function Some d -> Wd_sim.Time.to_string d | None -> "none"

let race r ~digest_w1 =
  let same = String.equal r.e21_model_digest digest_w1 in
  let digest =
    gate "e21.mining_digest" ~bound:"equal" same
      ~measured:(if same then "width 1 = width N" else "width 1 <> width N")
  in
  match
    Option.bind
      (find "inferred-only" (fun d -> d.e21d_label) r.e21_deploys)
      (fun d -> find "inferred" (fun f -> f.e21f_family) d.e21d_families)
  with
  | None -> [ digest; missing "e21.inferred-only/inferred" ]
  | Some f ->
      [
        digest;
        gate "e21.inferred-only/inferred.fp" ~bound:"= 0" (f.e21f_fp = 0)
          ~measured:(string_of_int f.e21f_fp);
        gate "e21.inferred-only/inferred.detected" ~bound:">= half"
          (2 * f.e21f_detected >= f.e21f_total)
          ~measured:(sp "%d/%d" f.e21f_detected f.e21f_total);
      ]

let load_row ~wl ~need_detect row =
  let name k = sp "e22.%s/%s.%s" wl row.e22r_deploy k in
  let ok = Loadgen.success_ratio row.e22r_load in
  let shed = row.e22r_load.Loadgen.lr_shed in
  [
    gate (name "ok_ratio") ~measured:(sp "%.4f" ok)
      ~bound:(sp ">= %.2f" min_ok_ratio) (ok >= min_ok_ratio);
    gate (name "shed") ~measured:(string_of_int shed) ~bound:"= 0" (shed = 0);
  ]
  @
  if need_detect then
    [
      gate (name "detect") ~measured:(latency row.e22r_detect)
        ~bound:"detected" (row.e22r_detect <> None);
    ]
  else []

let load r =
  let single wl =
    match find wl (fun w -> w.e22w_label) r.e22_workloads with
    | None -> [ missing ("e22." ^ wl) ]
    | Some w ->
        gate (sp "e22.%s.requests" wl) ~measured:(string_of_int w.e22w_requests)
          ~bound:(sp ">= %d" min_workload_requests)
          (w.e22w_requests >= min_workload_requests)
        :: List.concat_map
             (fun deploy ->
               match find deploy (fun row -> row.e22r_deploy) w.e22w_rows with
               | None -> [ missing (sp "e22.%s/%s" wl deploy) ]
               | Some row -> load_row ~wl ~need_detect:(deploy <> "wd-off") row)
             [ "wd-off"; "wd-on"; "inferred-on" ]
  in
  let fleet =
    match find "fleet" (fun w -> w.e22w_gen) r.e22_workloads with
    | None -> [ missing "e22.fleet" ]
    | Some w ->
        List.concat_map (load_row ~wl:w.e22w_label ~need_detect:false)
          w.e22w_rows
  in
  (* the watchdog runs off the request path, so in virtual time it must
     not move client percentiles at all *)
  let latency_identity =
    List.concat_map
      (fun w ->
        List.filter_map
          (fun row ->
            if w.e22w_gen = "fleet" || row.e22r_deploy <> "wd-on" then None
            else
              Some
                (gate (sp "e22.%s/wd-on.latency_x" w.e22w_label)
                   ~measured:
                     (sp "p50 x%.6f, p99 x%.6f" row.e22r_p50_x row.e22r_p99_x)
                   ~bound:"= 1 exactly"
                   (row.e22r_p50_x = 1. && row.e22r_p99_x = 1.)))
          w.e22w_rows)
      r.e22_workloads
  in
  single "zkmini" @ single "cstore" @ fleet @ latency_identity

let alloc rows =
  List.concat_map
    (fun deploy ->
      match find deploy (fun r -> r.e22a_deploy) rows with
      | None -> [ missing ("alloc." ^ deploy) ]
      | Some r ->
          [
            gate (sp "alloc.%s.requests" deploy) ~bound:"> 0"
              ~measured:(string_of_int r.e22a_requests) (r.e22a_requests > 0);
            gate (sp "alloc.%s.bytes_per_req" deploy)
              ~measured:(sp "%.0f B" r.e22a_bytes_per_req)
              ~bound:(sp "<= %.0f B" max_alloc_bytes_per_req)
              (r.e22a_bytes_per_req <= max_alloc_bytes_per_req);
          ])
    [ "wd-off"; "wd-on" ]

let frontier rows =
  let row mode = find mode (fun x -> x.e23f_mode) rows in
  let modes = [ "fixed"; "adaptive"; "adaptive-relaxed" ] in
  let present = List.filter (fun m -> row m <> None) modes in
  let rows =
    gate "e23.modes" ~measured:(String.concat "," present) ~bound:"all three"
      (present = modes)
  in
  match (row "fixed", row "adaptive") with
  | None, _ | _, None -> [ rows ]
  | Some fx, Some ad ->
      let worst x =
        match x.e23f_worst_detect with Some d when d > 0L -> Some d | _ -> None
      in
      let cut = ad.e23f_sched_cut_pct in
      [
        rows;
        gate "e23.adaptive.sched_cut" ~measured:(sp "%.1f%%" cut)
          ~bound:(sp ">= %.0f%%" min_sched_cut_pct) (cut >= min_sched_cut_pct);
        gate "e23.adaptive.detected" ~bound:">= fixed"
          ~measured:(sp "%d vs fixed %d" ad.e23f_detected fx.e23f_detected)
          (ad.e23f_detected >= fx.e23f_detected);
        gate "e23.worst_detect.present" ~bound:"both"
          ~measured:
            (sp "fixed %s, adaptive %s" (latency (worst fx))
               (latency (worst ad)))
          (worst fx <> None && worst ad <> None);
      ]
      @ (match (worst fx, worst ad) with
        | Some f, Some a ->
            [
              gate "e23.adaptive.worst_detect" ~bound:"<= 2x fixed"
                ~measured:
                  (sp "%s vs fixed %s" (latency (Some a)) (latency (Some f)))
                (a <= Int64.mul 2L f);
            ]
        | _ -> [])
      @ [
          gate "e23.adaptive.dedup_skips" ~bound:"> 0"
            ~measured:(string_of_int ad.e23f_dedup_skips)
            (ad.e23f_dedup_skips > 0);
        ]

(* --- running the gated experiments ------------------------------------ *)

let sweep_worlds = 1000
let load_requests = 350_000

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Run [f] once per width in [sort_uniq [1; 2; 4; jobs]], each from cold
   analysis and compile caches, so the curve isolates domain parallelism.
   The pool clamps its width to the host's cores; [wr_effective] records
   the width a run really got. *)
let across_widths ~jobs f =
  let cores = Domain.recommended_domain_count () in
  List.map
    (fun j ->
      Wd_autowatchdog.Generate.clear_cache ();
      Wd_ir.Interp.clear_compile_cache ();
      let r, secs = timed (fun () -> f j) in
      { wr_jobs = j; wr_effective = max 1 (min j cores); wr_secs = secs;
        wr_result = r })
    (List.sort_uniq compare [ 1; 2; 4; jobs ])

let families ~jobs =
  let module Catalog = Wd_faults.Catalog in
  [
    ( "e2",
      fun () ->
        (* the crash scenario is left out, as it always was for the curve *)
        let cells =
          List.filter_map
            (fun (s : Catalog.scenario) ->
              if s.Catalog.special = Some "crash" then None
              else Some (Campaign.cell s.Catalog.sid))
            Catalog.all
        in
        let runs =
          across_widths ~jobs (fun j -> Campaign.run_batch ~jobs:j cells)
        in
        identical "e2.identical" runs :: jobs_curve runs );
    ( "e20",
      fun () ->
        let seed = base_seed () in
        [
          identical "e20.identical"
            (across_widths ~jobs (fun j ->
                 snd (Sweep.run ~jobs:j ~seed ~worlds:sweep_worlds ())));
        ] );
    ( "e21",
      fun () ->
        let r = e21_run () in
        let w1 = Inference.mine_and_synth ~jobs:1 () in
        race r ~digest_w1:w1.Inference.md_digest );
    ("e22", fun () -> load (e22_run ~requests:load_requests ()));
    (* [Gc.minor_words] is per-domain: [e22_alloc] runs inline here *)
    ("alloc", fun () -> alloc (e22_alloc ()));
    ("e23", fun () -> frontier (e23_run ()));
  ]

let evaluate families emit =
  List.concat_map
    (fun (family, eval) ->
      let gates =
        try eval ()
        with e ->
          [ gate family ~measured:(Printexc.to_string e) ~bound:"runs" false ]
      in
      List.iter emit gates;
      gates)
    families
