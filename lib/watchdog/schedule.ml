(* Adaptive checker scheduling.

   The paper's central tension is comprehensiveness vs. overhead: checkers
   must run continuously, but every run steals cycles from the workload.
   Historically the driver hard-coded one answer — a fixed per-checker
   cadence — as an implicit daemon loop. This module makes the answer a
   typed policy chosen at [Driver.create]:

   - [Fixed]: the historical behaviour. Each checker gets its own daemon
     loop sleeping its declared period, bit-for-bit the old schedule.

   - [Adaptive _]: one central scheduling loop owns every checker. It
     samples load pressure each window — the sim scheduler's run-queue
     depth and virtual-time slack to the next timer, plus the loadgen
     arrival stream via an optional probe — and accounts the share of
     fired events the checkers themselves cost. When that share exceeds
     [target_overhead], or pressure is high, per-checker periods stretch
     (halving back when the system idles), but never beyond
     [latency_bound]: the gap between two executions of one checker is
     capped at [max period latency_bound] (plus one loop quantum and
     in-batch service time), which is the hard detection-latency bound the
     frontier experiment measures against.

     Co-scheduled checkers are dispatched as one batch: their context
     versions are sampled in a single pass, so checkers reading the same
     context unit observe one snapshot version — and the context's COW
     cache then hands them one shared copy. A checker whose context
     version has not changed since its last execution is deduplicated
     (skipped, counted) until the latency bound forces a real run.

   Every input is virtual-time or scheduler-local state — never wall
   clock — so adaptive decisions are a deterministic function of the seed,
   byte-identical at any domain-pool width. *)

type policy =
  | Fixed
  | Adaptive of {
      target_overhead : float;
      latency_bound : int64;
      sample_window : int64;
    }

let fixed = Fixed

let adaptive ?(target_overhead = 0.005) ?(latency_bound = Wd_sim.Time.sec 2)
    ?(sample_window = Wd_sim.Time.ms 500) () =
  if target_overhead <= 0. then
    invalid_arg "Schedule.adaptive: target_overhead must be positive";
  if latency_bound <= 0L then
    invalid_arg "Schedule.adaptive: latency_bound must be positive";
  if sample_window <= 0L then
    invalid_arg "Schedule.adaptive: sample_window must be positive";
  Adaptive { target_overhead; latency_bound; sample_window }

let policy_name = function Fixed -> "fixed" | Adaptive _ -> "adaptive"

let pp_policy ppf = function
  | Fixed -> Fmt.string ppf "fixed"
  | Adaptive { target_overhead; latency_bound; sample_window } ->
      Fmt.pf ppf "adaptive(target=%.2f%%, bound=%a, window=%a)"
        (100. *. target_overhead)
        Wd_sim.Time.pp latency_bound Wd_sim.Time.pp sample_window

type slot = {
  sl_period : int64;
  sl_version : (unit -> int) option;
  mutable sl_next_due : int64;
  mutable sl_last_run : int64; (* start of last real execution *)
  mutable sl_last_version : int; (* version then; -1 = never ran *)
  mutable sl_batch_version : int; (* sampled once per batch *)
}

type stats = {
  st_policy : string;
  st_batches : int;
  st_dedup_skips : int;
  st_shared_syncs : int;
  st_windows : int;
  st_throttle_peak : float;
}

type t = {
  policy : policy;
  sched : Wd_sim.Sched.t;
  mutable slots : slot list;
  mutable load_probe : (unit -> int) option;
  mutable throttle : float;
  mutable window_start : int64;
  mutable window_events0 : int; (* sched events fired at window start *)
  mutable window_checker_events : int; (* events charged to checker runs *)
  mutable batches : int;
  mutable dedup_skips : int;
  mutable shared_syncs : int;
  mutable windows : int;
  mutable throttle_peak : float;
}

let create policy sched =
  {
    policy;
    sched;
    slots = [];
    load_probe = None;
    throttle = 1.0;
    window_start = Wd_sim.Sched.now sched;
    window_events0 = (let _, _, ev = Wd_sim.Sched.stats sched in ev);
    window_checker_events = 0;
    batches = 0;
    dedup_skips = 0;
    shared_syncs = 0;
    windows = 0;
    throttle_peak = 1.0;
  }

let policy t = t.policy
let set_load_probe t f = t.load_probe <- Some f

let register t ~period ?version () =
  let now = Wd_sim.Sched.now t.sched in
  let sl =
    {
      sl_period = period;
      sl_version = version;
      sl_next_due = Int64.add now period;
      sl_last_run = -1L;
      sl_last_version = -1;
      sl_batch_version = -1;
    }
  in
  t.slots <- sl :: t.slots;
  sl

(* How long the central loop sleeps between scheduling decisions: the
   fastest registered period, floored at 1ms (a degenerate sub-ms checker
   period must not turn the loop into a busy spin) and capped at the
   sample window so pressure accounting stays live even with slow
   checkers. *)
let quantum t =
  let window =
    match t.policy with
    | Adaptive { sample_window; _ } -> sample_window
    | Fixed -> Wd_sim.Time.ms 500
  in
  let fastest =
    List.fold_left (fun acc sl -> Int64.min acc sl.sl_period) window t.slots
  in
  Int64.max (Wd_sim.Time.ms 1) (Int64.min window fastest)

(* Hard cap on the inter-execution gap for a slot: its own period when
   that is already slower than the bound, the bound otherwise. *)
let gap_bound latency_bound sl = Int64.max sl.sl_period latency_bound

(* Current effective period: base period stretched by the throttle, capped
   by the latency bound, never faster than the checker asked for. *)
let eff_period t sl =
  match t.policy with
  | Fixed -> sl.sl_period
  | Adaptive { latency_bound; _ } ->
      let stretched =
        Int64.of_float (t.throttle *. Int64.to_float sl.sl_period)
      in
      Int64.min (gap_bound latency_bound sl) (Int64.max sl.sl_period stretched)

let max_throttle = 64.

(* Close a sampling window if due: compare the events checkers cost against
   the events the whole simulation fired, sample the pressure probes, and
   move the throttle. Stretch on over-budget or high pressure; relax only
   when the share is comfortably inside budget AND the system is quiet, so
   a loaded-but-cheap window does not flap the cadence back up. *)
let tick t =
  match t.policy with
  | Fixed -> ()
  | Adaptive { target_overhead; sample_window; _ } ->
      let now = Wd_sim.Sched.now t.sched in
      if Int64.sub now t.window_start >= sample_window then begin
        let _, _, events = Wd_sim.Sched.stats t.sched in
        let total = events - t.window_events0 in
        let share =
          float_of_int t.window_checker_events /. float_of_int (max 1 total)
        in
        let runq = Wd_sim.Sched.runq_depth t.sched in
        let slack = Wd_sim.Sched.timer_slack t.sched in
        let inflight =
          match t.load_probe with Some f -> f () | None -> 0
        in
        (* pressured: other tasks are runnable right now, or the arrival
           stream holds queued work and the next event is imminent *)
        let pressured =
          runq >= 2 || (inflight >= 16 && slack < quantum t)
        in
        if share > target_overhead || (pressured && share > 0.5 *. target_overhead)
        then t.throttle <- Float.min max_throttle (t.throttle *. 2.)
        else if share < 0.5 *. target_overhead && not pressured then
          t.throttle <- Float.max 1.0 (t.throttle /. 2.);
        t.throttle_peak <- Float.max t.throttle_peak t.throttle;
        t.windows <- t.windows + 1;
        t.window_start <- now;
        t.window_events0 <- events;
        t.window_checker_events <- 0
      end

let due t sl = sl.sl_next_due <= Wd_sim.Sched.now t.sched

(* One version-sampling pass for every due slot: co-scheduled checkers see
   the context as of this single instant (one snapshot version per batch),
   and the slot-level COW cache shares the actual copies between them. *)
let begin_batch t slots =
  let n = List.length slots in
  if n > 0 then begin
    t.batches <- t.batches + 1;
    if n >= 2 then t.shared_syncs <- t.shared_syncs + (n - 1);
    List.iter
      (fun sl ->
        sl.sl_batch_version <-
          (match sl.sl_version with Some f -> f () | None -> -1))
      slots
  end

(* Decision for a due slot. Dedup: the checker ran before, its context
   version is unchanged, and the latency bound has not expired — skip, and
   park the slot so the next decision lands no later than the bound. *)
let decide t sl =
  match t.policy with
  | Fixed -> `Run
  | Adaptive { latency_bound; _ } -> (
      let now = Wd_sim.Sched.now t.sched in
      match sl.sl_version with
      | Some _
        when sl.sl_last_version >= 0
             && sl.sl_batch_version = sl.sl_last_version
             && Int64.sub now sl.sl_last_run < gap_bound latency_bound sl ->
          t.dedup_skips <- t.dedup_skips + 1;
          sl.sl_next_due <-
            Int64.min
              (Int64.add now (eff_period t sl))
              (Int64.add sl.sl_last_run (gap_bound latency_bound sl));
          `Skip_dedup
      | Some _ | None -> `Run)

(* Account a completed run: charge its event cost to the current window,
   remember when and at which context version it started, and reschedule
   one effective period after completion (mirroring the fixed loop, which
   sleeps the period after the run returns). *)
let note_run t sl ~started ~events_cost =
  t.window_checker_events <- t.window_checker_events + events_cost;
  sl.sl_last_run <- started;
  sl.sl_last_version <- sl.sl_batch_version;
  sl.sl_next_due <- Int64.add (Wd_sim.Sched.now t.sched) (eff_period t sl)

let stats t =
  {
    st_policy = policy_name t.policy;
    st_batches = t.batches;
    st_dedup_skips = t.dedup_skips;
    st_shared_syncs = t.shared_syncs;
    st_windows = t.windows;
    st_throttle_peak = t.throttle_peak;
  }
