(* Invariant synthesizer (stage 2): fit checkable invariants to mined
   observations. Five families:

   - Envelope: an operation observed often enough gets a deadline of
     p99 x safety-factor (floored, and never below the worst passing
     sample x a margin). In flight past the deadline = hang; completed
     past it = fail-slow.
   - Gap: an operation that recurred steadily in *every* passing run must
     keep recurring — silence beyond max-observed-gap x factor is a
     liveness violation (heartbeat-style absence).
   - Never_fail: an operation exercised heavily with zero failures across
     all runs must not raise; any Op_fail is an error-signature finding.
   - Precedes: key A's first occurrence preceded key B's in every run
     (transitively reduced); at runtime, B without A ever is a violation.
   - Never_concurrent: two well-exercised keys on the same target never
     overlapped in flight in any run AND share lockset evidence (a sync
     key held at every start of both); an observed overlap is a violation
     of the locking discipline.

   Support thresholds reject coincidental invariants: a key seen twice in
   one run constrains nothing. All outputs are canonically sorted and the
   model digests deterministically — same observations, same model. *)

type body =
  | Envelope of { p99 : int64; deadline : int64 }
  | Gap of { max_gap : int64; budget : int64 }
  | Never_fail
  | Precedes of { first : string } (* [first] must occur before ikey ever does *)
  | Never_concurrent of { other : string } (* same-target exclusion partner *)

type invariant = {
  ikey : string;
  ibody : body;
  isupport : int; (* completed samples backing the invariant *)
  iruns : int; (* distinct runs backing it *)
  iloc : Wd_ir.Loc.t option; (* static pinpoint, when the key resolves *)
}

type config = {
  min_samples : int;
  min_runs : int;
  safety_factor : int;
  min_deadline : int64;
  gap_factor : int;
  min_gap_budget : int64;
  max_gap_budget : int64;
  (* never-concurrent needs heavy support: a pair that merely happened to
     serialize in a handful of runs proves nothing *)
  concurrent_min_samples : int;
  max_concurrent_pairs : int;
}

let default_config =
  {
    min_samples = 30;
    min_runs = 3;
    safety_factor = 25;
    min_deadline = Wd_sim.Time.sec 2;
    gap_factor = 8;
    min_gap_budget = Wd_sim.Time.sec 5;
    max_gap_budget = Wd_sim.Time.sec 15;
    concurrent_min_samples = 100;
    max_concurrent_pairs = 16;
  }

type model = {
  m_system : string;
  m_runs : int;
  m_config : config;
  m_invariants : invariant list; (* canonically sorted *)
}

let family_name = function
  | Envelope _ -> "envelope"
  | Gap _ -> "gap"
  | Never_fail -> "never_fail"
  | Precedes _ -> "precedes"
  | Never_concurrent _ -> "never_concurrent"

let family_rank = function
  | Envelope _ -> 0
  | Gap _ -> 1
  | Never_fail -> 2
  | Precedes _ -> 3
  | Never_concurrent _ -> 4

let aux_key = function
  | Precedes { first } -> first
  | Never_concurrent { other } -> other
  | Envelope _ | Gap _ | Never_fail -> ""

let compare_invariant a b =
  compare
    (family_rank a.ibody, a.ikey, aux_key a.ibody)
    (family_rank b.ibody, b.ikey, aux_key b.ibody)

let percentile arr p =
  let n = Array.length arr in
  if n = 0 then 0L else arr.(min (n - 1) (int_of_float (p *. float_of_int n)))

let max_dur arr =
  let n = Array.length arr in
  if n = 0 then 0L else arr.(n - 1)

let i64_scale x k = Int64.mul x (Int64.of_int k)

(* Transitive reduction of the precedes DAG: drop (a, b) when some c has
   (a, c) and (c, b) — keeps the checker count linear in practice. *)
let hasse edges =
  let set = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace set e ()) edges;
  List.filter
    (fun (a, b) ->
      not
        (List.exists
           (fun (a', c) ->
             a' = a && c <> b && c <> a && Hashtbl.mem set (c, b))
           edges))
    edges

let synthesize ?(config = default_config) ?(locate = fun _ -> None) ~system
    (obs : Mine.observations) =
  let well_supported ks =
    ks.Mine.ks_count >= config.min_samples && ks.Mine.ks_runs >= config.min_runs
  in
  let inv key body ~support ~runs =
    { ikey = key; ibody = body; isupport = support; iruns = runs;
      iloc = locate key }
  in
  let envelopes =
    List.filter_map
      (fun ks ->
        if not (well_supported ks) then None
        else
          let p99 = percentile ks.Mine.ks_durs 0.99 in
          let deadline =
            max
              (max (i64_scale p99 config.safety_factor) config.min_deadline)
              (i64_scale (max_dur ks.Mine.ks_durs) 4)
          in
          Some
            (inv ks.Mine.ks_key
               (Envelope { p99; deadline })
               ~support:ks.Mine.ks_count ~runs:ks.Mine.ks_runs))
      obs.Mine.obs_keys
  in
  let gaps =
    List.filter_map
      (fun ks ->
        if not (well_supported ks && ks.Mine.ks_runs = obs.Mine.obs_runs) then
          None
        else
          let budget =
            max
              (i64_scale ks.Mine.ks_max_gap config.gap_factor)
              config.min_gap_budget
          in
          if budget > config.max_gap_budget then None
          else
            Some
              (inv ks.Mine.ks_key
                 (Gap { max_gap = ks.Mine.ks_max_gap; budget })
                 ~support:ks.Mine.ks_count ~runs:ks.Mine.ks_runs))
      obs.Mine.obs_keys
  in
  let never_fails =
    List.filter_map
      (fun ks ->
        if well_supported ks && ks.Mine.ks_fails = 0 then
          Some
            (inv ks.Mine.ks_key Never_fail ~support:ks.Mine.ks_count
               ~runs:ks.Mine.ks_runs)
        else None)
      obs.Mine.obs_keys
  in
  (* Ordering: consider only universally supported keys; keep pairs whose
     first occurrences are consistently ordered in every run, reduced. *)
  let universal =
    List.filter
      (fun ks -> well_supported ks && ks.Mine.ks_runs = obs.Mine.obs_runs)
      obs.Mine.obs_keys
    |> List.map (fun ks -> ks.Mine.ks_key)
  in
  let precedes =
    if obs.Mine.obs_runs < config.min_runs then []
    else
      let pos_per_run =
        List.map
          (fun order ->
            let h = Hashtbl.create 64 in
            List.iteri (fun i k -> Hashtbl.replace h k i) order;
            h)
          obs.Mine.obs_orders
      in
      let always_before a b =
        List.for_all
          (fun h ->
            match (Hashtbl.find_opt h a, Hashtbl.find_opt h b) with
            | Some ia, Some ib -> ia < ib
            | _ -> false)
          pos_per_run
      in
      let edges =
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b -> if a <> b && always_before a b then Some (a, b) else None)
              universal)
          universal
      in
      List.map
        (fun (a, b) ->
          inv b (Precedes { first = a }) ~support:obs.Mine.obs_runs
            ~runs:obs.Mine.obs_runs)
        (hasse edges)
  in
  let never_concurrent =
    let hot =
      List.filter
        (fun ks ->
          ks.Mine.ks_count >= config.concurrent_min_samples
          && ks.Mine.ks_runs = obs.Mine.obs_runs)
        obs.Mine.obs_keys
    in
    let overlapped a b =
      let pair = if a < b then (a, b) else (b, a) in
      List.mem pair obs.Mine.obs_overlaps
    in
    (* Lockset gate: besides never having been observed overlapping, the
       pair must share a lock held at every start of both ops. Absence of
       overlap in finitely many passing runs is no proof for two ops that
       merely tend to serialize — such pairs eventually overlap in some
       legitimate interleaving and would false-alarm. A common lock makes
       the exclusion structural, so a runtime overlap means the locking
       discipline itself broke. *)
    let common_lock ks ks' =
      List.exists (fun l -> List.mem l ks'.Mine.ks_locks) ks.Mine.ks_locks
    in
    let rec pairs = function
      | [] -> []
      | ks :: rest ->
          List.filter_map
            (fun ks' ->
              if
                String.equal ks.Mine.ks_target ks'.Mine.ks_target
                && (not (overlapped ks.Mine.ks_key ks'.Mine.ks_key))
                && common_lock ks ks'
              then Some (ks.Mine.ks_key, ks'.Mine.ks_key, ks.Mine.ks_count)
              else None)
            rest
          @ pairs rest
    in
    let all = pairs hot in
    let kept =
      List.filteri (fun i _ -> i < config.max_concurrent_pairs)
        (List.sort compare all)
    in
    List.map
      (fun (a, b, support) ->
        inv a (Never_concurrent { other = b }) ~support
          ~runs:obs.Mine.obs_runs)
      kept
  in
  {
    m_system = system;
    m_runs = obs.Mine.obs_runs;
    m_config = config;
    m_invariants =
      List.sort compare_invariant
        (envelopes @ gaps @ never_fails @ precedes @ never_concurrent);
  }

(* --- canonical rendering & digest -------------------------------------- *)

let pp_invariant ppf i =
  let loc =
    match i.iloc with
    | Some l -> Wd_ir.Loc.func l ^ "#" ^ string_of_int (Wd_ir.Loc.uid l)
    | None -> "-"
  in
  (match i.ibody with
  | Envelope { p99; deadline } ->
      Fmt.pf ppf "envelope %s p99=%Ld deadline=%Ld" i.ikey p99 deadline
  | Gap { max_gap; budget } ->
      Fmt.pf ppf "gap %s max_gap=%Ld budget=%Ld" i.ikey max_gap budget
  | Never_fail -> Fmt.pf ppf "never_fail %s" i.ikey
  | Precedes { first } -> Fmt.pf ppf "precedes %s -> %s" first i.ikey
  | Never_concurrent { other } ->
      Fmt.pf ppf "never_concurrent %s || %s" i.ikey other);
  Fmt.pf ppf " [support=%d runs=%d loc=%s]" i.isupport i.iruns loc

let to_canonical m =
  Fmt.str "model %s runs=%d@.%a" m.m_system m.m_runs
    Fmt.(list ~sep:(any "@.") pp_invariant)
    m.m_invariants

let digest m = Digest.to_hex (Digest.string (to_canonical m))

let family_counts m =
  let tally = Hashtbl.create 8 in
  List.iter
    (fun i ->
      let f = family_name i.ibody in
      Hashtbl.replace tally f (1 + Option.value ~default:0 (Hashtbl.find_opt tally f)))
    m.m_invariants;
  Hashtbl.fold (fun f n l -> (f, n) :: l) tally [] |> List.sort compare
