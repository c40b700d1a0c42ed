(* Tests for the adaptive checker-scheduling layer (Wd_watchdog.Schedule):
   policy construction, campaign determinism across domain-pool widths,
   dedup/shared-snapshot accounting through the driver's checker stats, and
   the hard latency-bound guarantee under randomized load spikes. *)

open Wd_watchdog
module Sched = Wd_sim.Sched
module Time = Wd_sim.Time
module Campaign = Wd_harness.Campaign

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- policy construction --- *)

let test_policy_construction () =
  (match Schedule.fixed with
  | Schedule.Fixed -> ()
  | Schedule.Adaptive _ -> Alcotest.fail "Schedule.fixed must be Fixed");
  (match Schedule.adaptive () with
  | Schedule.Adaptive { target_overhead; latency_bound; sample_window } ->
      check "default target" true (target_overhead = 0.005);
      check "default bound" true (latency_bound = Time.sec 2);
      check "default window" true (sample_window = Time.ms 500)
  | Schedule.Fixed -> Alcotest.fail "Schedule.adaptive must be Adaptive");
  let rejects f = match f () with
    | exception Invalid_argument _ -> true
    | (_ : Schedule.policy) -> false
  in
  check "zero target rejected" true
    (rejects (fun () -> Schedule.adaptive ~target_overhead:0.0 ()));
  check "zero bound rejected" true
    (rejects (fun () -> Schedule.adaptive ~latency_bound:0L ()));
  check "zero window rejected" true
    (rejects (fun () -> Schedule.adaptive ~sample_window:0L ()))

(* --- dedup + shared-snapshot accounting ---

   A versioned checker whose context never changes must be deduplicated
   (within the latency bound) and the skips must land in both the driver's
   per-checker stats and the scheduler's aggregate; a version-less checker
   on the same driver must never be deduplicated. *)

let test_dedup_accounting () =
  let s = Sched.create ~seed:7 () in
  (* background traffic keeps the checkers' event share under the target so
     the throttle stays at 1x — in an idle world the share saturates the
     throttle and every cadence stretches to the bound, hiding dedup *)
  ignore
    (Sched.spawn ~name:"traffic" ~daemon:true s (fun () ->
         while true do
           Sched.sleep (Time.ms 1)
         done));
  let driver =
    Driver.create ~schedule:(Schedule.adaptive ~target_overhead:0.1 ()) s
  in
  let versioned_times = ref [] in
  Driver.add_checker driver
    (Checker.make ~id:"versioned" ~period:(Time.ms 100)
       ~ctx_version:(fun () -> 0)
       (fun ~now ->
         versioned_times := now :: !versioned_times;
         Checker.Pass));
  Driver.add_checker driver
    (Checker.make ~id:"plain" ~period:(Time.ms 100) (fun ~now:_ -> Checker.Pass));
  Driver.start driver;
  ignore (Sched.run ~until:(Time.sec 10) s);
  let st_of id =
    List.find (fun st -> st.Driver.cs_id = id) (Driver.stats driver)
  in
  let v = st_of "versioned" and p = st_of "plain" in
  check "versioned deduplicated" true (v.Driver.cs_dedups > 0);
  check_int "plain never deduplicated" 0 p.Driver.cs_dedups;
  check "plain runs every period" true (p.Driver.cs_executions >= 50);
  check "dedup sheds most versioned runs" true
    (v.Driver.cs_executions < p.Driver.cs_executions / 2);
  (* the latency bound still forces real executions of the parked checker *)
  check "versioned keeps executing at the bound" true
    (v.Driver.cs_executions >= 4);
  let sst = Schedule.stats (Driver.schedule driver) in
  check_int "scheduler aggregate matches checker stats" v.Driver.cs_dedups
    sst.Schedule.st_dedup_skips;
  check "co-scheduled runs shared a snapshot" true
    (sst.Schedule.st_shared_syncs > 0);
  check "windows closed" true (sst.Schedule.st_windows > 0);
  (* no versioned gap may exceed the default 2s bound (+ dispatch quantum) *)
  let limit = Int64.add (Time.sec 2) (Time.ms 200) in
  let rec gaps_ok = function
    | a :: (b :: _ as rest) -> Int64.sub a b <= limit && gaps_ok rest
    | _ -> true
  in
  check "bounded gaps" true (gaps_ok !versioned_times)

(* --- determinism across domain-pool widths ---

   An adaptive-schedule campaign batch is a pure function of the seed: the
   scheduler's inputs are all virtual-time or scheduler-local, so running
   the same cells at width 1 and width 3 must produce structurally
   identical runs (outcomes, latencies, events, reports). *)

let test_adaptive_determinism_across_widths () =
  let cfg =
    {
      Campaign.default_config with
      Campaign.schedule = Schedule.adaptive ~target_overhead:0.0001 ();
    }
  in
  let sids =
    Wd_faults.Catalog.all
    |> List.filter (fun s -> s.Wd_faults.Catalog.special <> Some "crash")
    |> List.filteri (fun i _ -> i < 4)
    |> List.map (fun s -> s.Wd_faults.Catalog.sid)
  in
  let cells = List.map (fun sid -> Campaign.cell ~cfg sid) sids in
  let w1 = Campaign.run_batch ~jobs:1 cells in
  let w3 = Campaign.run_batch ~jobs:3 cells in
  check "4 runs" true (List.length w1 = 4);
  check "identical across widths" true (w1 = w3);
  (* and the schedule is doing something: at least one scenario detected *)
  check "still detects" true
    (List.exists
       (fun r ->
         List.exists
           (fun (_, o) -> o.Campaign.o_detected)
           r.Campaign.r_outcomes)
       w1)

(* --- QCheck: the latency bound survives randomized load spikes ---

   Whatever the load pattern does to the throttle, the gap between two
   executions of a checker must never exceed
   max(period, latency_bound) + dispatch slack. The target overhead is set
   absurdly tight so the throttle saturates, making the bound the only
   thing keeping the checker alive. *)

let prop_latency_bound_under_spikes =
  QCheck.Test.make
    ~name:"latency bound never exceeded under randomized load spikes"
    ~count:25
    QCheck.(
      make
        Gen.(
          pair (int_bound 1000)
            (list_size (int_range 3 12) (int_bound 40))))
    (fun (seed, spikes) ->
      let s = Sched.create ~seed:(succ seed) () in
      let bound = Time.sec 1 in
      let driver =
        Driver.create
          ~schedule:
            (Schedule.adaptive ~target_overhead:1e-6 ~latency_bound:bound
               ~sample_window:(Time.ms 200) ())
          s
      in
      let times = ref [] in
      Driver.add_checker driver
        (Checker.make ~id:"bounded" ~period:(Time.ms 50)
           ~ctx_version:(fun () -> 0)
           (fun ~now ->
             times := now :: !times;
             Checker.Pass));
      let load = ref 0 in
      Schedule.set_load_probe (Driver.schedule driver) (fun () -> !load);
      ignore
        (Sched.spawn ~name:"spikes" ~daemon:true s (fun () ->
             List.iter
               (fun k ->
                 load := k;
                 for _ = 1 to k do
                   Sched.sleep (Time.ms 5)
                 done;
                 Sched.sleep (Time.ms 20))
               spikes;
             load := 0));
      Driver.start driver;
      ignore (Sched.run ~until:(Time.sec 12) s);
      let ts = List.rev !times in
      (* gap_bound = max(period, bound) = 1s; the central loop dispatches
         on a 50ms quantum, so allow two quanta of slack *)
      let limit = Int64.add bound (Time.ms 100) in
      let rec gaps_ok = function
        | a :: (b :: _ as rest) -> Int64.sub b a <= limit && gaps_ok rest
        | _ -> true
      in
      List.length ts >= 2 && gaps_ok ts)

let () =
  Alcotest.run "wd_schedule"
    [
      ( "policy",
        [ Alcotest.test_case "construction" `Quick test_policy_construction ] );
      ( "accounting",
        [ Alcotest.test_case "dedup + shared syncs" `Quick test_dedup_accounting ]
      );
      ( "determinism",
        [
          Alcotest.test_case "adaptive campaign identical across widths"
            `Quick test_adaptive_determinism_across_widths;
        ] );
      ( "latency bound",
        [ QCheck_alcotest.to_alcotest prop_latency_bound_under_spikes ] );
    ]
