(* Tests for the baseline detectors: heartbeat crash FD, probe checkers,
   signal checkers, Panorama-style observers. *)

module Sched = Wd_sim.Sched
module Time = Wd_sim.Time

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_net f =
  let s = Sched.create ~seed:8 () in
  let reg = Wd_env.Faultreg.create () in
  let net = Wd_env.Net.create ~reg ~rng:(Wd_sim.Rng.create ~seed:9) "n" in
  Wd_env.Net.register net "node";
  Wd_env.Net.register net "mon";
  f s reg net

(* --- heartbeat --- *)

let spawn_beater ?(stop_at = Time.never) s net =
  ignore
    (Sched.spawn ~name:"beater" ~daemon:true s (fun () ->
         while Sched.now s < stop_at do
           Wd_env.Net.send net ~src:"node" ~dst:"mon" (Wd_ir.Ast.VStr "hb:node");
           Sched.sleep (Time.ms 500)
         done))

let test_heartbeat_healthy () =
  with_net (fun s _reg net ->
      let hb =
        Wd_detectors.Heartbeat.create ~timeout:(Time.sec 2) ~sched:s ~net
          ~endpoint:"mon" ~match_prefix:"hb:node" ()
      in
      spawn_beater s net;
      ignore (Sched.run ~until:(Time.sec 10) s);
      check "no suspicion" false (Wd_detectors.Heartbeat.suspected hb);
      check "beats counted" true (Wd_detectors.Heartbeat.beats hb >= 15))

let test_heartbeat_detects_silence () =
  with_net (fun s _reg net ->
      let hb =
        Wd_detectors.Heartbeat.create ~timeout:(Time.sec 2) ~sched:s ~net
          ~endpoint:"mon" ~match_prefix:"hb:node" ()
      in
      spawn_beater ~stop_at:(Time.sec 5) s net;
      ignore (Sched.run ~until:(Time.sec 15) s);
      check "suspected" true (Wd_detectors.Heartbeat.suspected hb);
      match Wd_detectors.Heartbeat.suspected_at hb with
      | Some at ->
          (* silence from ~5s, timeout 2s: suspicion in the 6.5..9s range *)
          check "timely" true (at > Time.sec 6 && at < Time.sec 9)
      | None -> Alcotest.fail "no timestamp")

let test_heartbeat_ignores_other_prefixes () =
  with_net (fun s _reg net ->
      let hb =
        Wd_detectors.Heartbeat.create ~timeout:(Time.sec 2) ~sched:s ~net
          ~endpoint:"mon" ~match_prefix:"hb:other" ()
      in
      spawn_beater s net;
      ignore (Sched.run ~until:(Time.sec 10) s);
      (* beats from "node" do not match "other": the FD suspects *)
      check "suspected the absent node" true (Wd_detectors.Heartbeat.suspected hb))

(* --- probe --- *)

let run_checker_once s c =
  let result = ref Wd_watchdog.Checker.Pass in
  ignore
    (Sched.spawn s (fun () -> result := c.Wd_watchdog.Checker.run ~now:(Sched.now s)));
  ignore (Sched.run ~until:(Time.sec 30) s);
  !result

let test_probe_roundtrip_pass_and_fail () =
  let s = Sched.create ~seed:8 () in
  let store = Hashtbl.create 4 in
  let healthy = ref true in
  let c =
    Wd_detectors.Probe.roundtrip ~id:"probe:x"
      ~set:(fun () ->
        if !healthy then begin
          Hashtbl.replace store "k" "v";
          `Ok ()
        end
        else `Timeout)
      ~get:(fun () ->
        match Hashtbl.find_opt store "k" with
        | Some v -> `Ok v
        | None -> `Err "missing")
      ~expect:(fun v -> v = "v")
  in
  (match run_checker_once s c with
  | Wd_watchdog.Checker.Pass -> ()
  | _ -> Alcotest.fail "healthy probe must pass");
  healthy := false;
  let s2 = Sched.create ~seed:8 () in
  match run_checker_once s2 c with
  | Wd_watchdog.Checker.Fail r ->
      check "probe kind" true (c.Wd_watchdog.Checker.kind = Wd_watchdog.Checker.Probe);
      check "no localisation" true (r.Wd_watchdog.Report.loc = None)
  | _ -> Alcotest.fail "unhealthy probe must fail"

(* --- signal --- *)

let test_signal_queue_depth () =
  let s = Sched.create ~seed:8 () in
  let reg = Wd_env.Faultreg.create () in
  let res = Wd_ir.Runtime.create ~reg ~rng:(Wd_sim.Rng.create ~seed:1) in
  let q = Wd_ir.Runtime.queue res "q" in
  let c =
    Wd_detectors.Signalmon.queue_depth ~id:"signal:q" ~res ~queue:"q" ~max_depth:3
  in
  (match run_checker_once s c with
  | Wd_watchdog.Checker.Pass -> ()
  | _ -> Alcotest.fail "empty queue is fine");
  for i = 1 to 10 do
    ignore (Wd_sim.Channel.try_send q (Wd_ir.Ast.VInt i))
  done;
  let s2 = Sched.create ~seed:8 () in
  match run_checker_once s2 c with
  | Wd_watchdog.Checker.Fail _ -> ()
  | _ -> Alcotest.fail "deep queue must alarm"

let test_signal_mem_utilisation () =
  let s = Sched.create ~seed:8 () in
  let reg = Wd_env.Faultreg.create () in
  let mem = Wd_env.Memory.create ~reg ~capacity:1000 "m" in
  let c =
    Wd_detectors.Signalmon.mem_utilisation ~id:"signal:m" ~mem ~max_util:0.5
  in
  (match run_checker_once s c with
  | Wd_watchdog.Checker.Pass -> ()
  | _ -> Alcotest.fail "empty pool is fine");
  ignore
    (Sched.spawn (Sched.create ()) (fun () -> ()));
  let s2 = Sched.create ~seed:8 () in
  ignore
    (Sched.spawn s2 (fun () -> Wd_env.Memory.alloc mem 700));
  ignore (Sched.run s2);
  let s3 = Sched.create ~seed:8 () in
  match run_checker_once s3 c with
  | Wd_watchdog.Checker.Fail _ -> ()
  | _ -> Alcotest.fail "high utilisation must alarm"

let test_signal_sleep_overshoot () =
  (* §3.3: the checker sleeps briefly; allocation pressure stretches the
     elapsed time, exposing GC-pause-like stalls *)
  let s = Sched.create ~seed:8 () in
  let reg = Wd_env.Faultreg.create () in
  let mem = Wd_env.Memory.create ~reg ~capacity:100_000 "m" in
  let c =
    Wd_detectors.Signalmon.sleep_overshoot ~id:"signal:pause" ~mem
      ~expected:(Time.ms 50) ~tolerance:(Time.ms 100)
  in
  (match run_checker_once s c with
  | Wd_watchdog.Checker.Pass -> ()
  | _ -> Alcotest.fail "no pressure, no alarm");
  (* fill the pool to 95%: an allocation stalls for 225 ms *)
  let s2 = Sched.create ~seed:8 () in
  ignore (Sched.spawn s2 (fun () -> Wd_env.Memory.alloc mem 95_000));
  ignore (Sched.run s2);
  let s3 = Sched.create ~seed:8 () in
  match run_checker_once s3 c with
  | Wd_watchdog.Checker.Fail r ->
      check "names the pause" true
        (match r.Wd_watchdog.Report.fkind with
        | Wd_watchdog.Report.Error_sig m -> String.length m > 0
        | _ -> false)
  | _ -> Alcotest.fail "pressure must alarm"

(* --- observer --- *)

(* The observer's constants: a 5 s window, suspicion at half bad, at
   least 3 samples. *)
let observer_window = Time.sec 5
let observer_threshold = 0.5
let observer_min_samples = 3

let test_observer_threshold () =
  let s = Sched.create ~seed:8 () in
  let o = Wd_detectors.Observer.create s in
  let observe = List.iter (Wd_detectors.Observer.observe o) in
  observe [ Wd_detectors.Observer.Failure "e"; Wd_detectors.Observer.Timeout ];
  check "all bad but under min samples" false (Wd_detectors.Observer.suspected o);
  let s = Sched.create ~seed:8 () in
  let o = Wd_detectors.Observer.create s in
  let observe = List.iter (Wd_detectors.Observer.observe o) in
  observe
    [ Wd_detectors.Observer.Success; Wd_detectors.Observer.Success;
      Wd_detectors.Observer.Timeout ];
  check "one bad in three is under half" false (Wd_detectors.Observer.suspected o);
  observe [ Wd_detectors.Observer.Failure "e" ];
  check "half bad over min samples" true (Wd_detectors.Observer.suspected o)

let test_observer_window_prunes () =
  let s = Sched.create ~seed:8 () in
  let o = Wd_detectors.Observer.create s in
  ignore
    (Sched.spawn s (fun () ->
         Wd_detectors.Observer.observe o (Wd_detectors.Observer.Failure "old");
         Sched.sleep (Int64.succ observer_window);
         (* the old failure fell out of the window *)
         Wd_detectors.Observer.observe o Wd_detectors.Observer.Success;
         check_int "only fresh evidence" 1 (Wd_detectors.Observer.observations o)));
  ignore (Sched.run s);
  check "never suspected" false (Wd_detectors.Observer.suspected o)

(* The list-based window [Observer.observe] used before it kept a FIFO:
   rebuild the log with a filter and count it, on every observation. Kept
   here as the oracle for the FIFO version. *)
module Observer_oracle = struct
  type t = {
    sched : Sched.t;
    window : int64;
    threshold : float;
    min_samples : int;
    mutable log : (int64 * Wd_detectors.Observer.evidence) list;
    mutable first_suspect_at : int64 option;
  }

  let create ~window ~threshold ~min_samples sched =
    { sched; window; threshold; min_samples; log = []; first_suspect_at = None }

  let observe t evidence =
    let now = Sched.now t.sched in
    t.log <- (now, evidence) :: t.log;
    t.log <- List.filter (fun (at, _) -> Int64.sub now at <= t.window) t.log;
    let total = List.length t.log in
    let bad =
      List.length
        (List.filter
           (fun (_, e) ->
             match e with
             | Wd_detectors.Observer.Success -> false
             | Failure _ | Timeout -> true)
           t.log)
    in
    if
      total >= t.min_samples
      && float_of_int bad /. float_of_int total >= t.threshold
      && t.first_suspect_at = None
    then t.first_suspect_at <- Some now

  let observations t = List.length t.log
end

(* Random evidence at random virtual-time gaps, most of them within one
   nanosecond of the window edge (measured from the previous observation),
   so entries sit exactly on, just inside and just outside the window. *)
let prop_observer_matches_list_oracle =
  let window = Int64.to_int observer_window in
  let gen =
    QCheck.Gen.(
      let gap =
        frequency
          [
            (3, oneofl [ window - 1; window; window + 1 ]);
            (2, int_range 0 (window / 4));
            (1, return 0);
            (1, int_range 0 (3 * window));
          ]
      in
      let evidence =
        oneofl
          [ Wd_detectors.Observer.Success; Failure "f"; Timeout ]
      in
      list_size (int_range 0 60) (pair gap evidence))
  in
  QCheck.Test.make ~name:"observer window matches the list oracle" ~count:300
    (QCheck.make gen) (fun steps ->
      let s = Sched.create ~seed:1 () in
      let o = Wd_detectors.Observer.create s in
      let r =
        Observer_oracle.create ~window:observer_window
          ~threshold:observer_threshold ~min_samples:observer_min_samples s
      in
      let ok = ref true in
      ignore
        (Sched.spawn s (fun () ->
             List.iter
               (fun (gap, e) ->
                 Sched.sleep (Int64.of_int gap);
                 Wd_detectors.Observer.observe o e;
                 Observer_oracle.observe r e;
                 if
                   Wd_detectors.Observer.suspected_at o
                   <> r.Observer_oracle.first_suspect_at
                   || Wd_detectors.Observer.observations o
                      <> Observer_oracle.observations r
                 then ok := false)
               steps));
      ignore (Sched.run s);
      !ok)

let test_observer_of_result () =
  check "ok" true (Wd_detectors.Observer.of_result (`Ok 1) = Wd_detectors.Observer.Success);
  check "timeout" true
    (Wd_detectors.Observer.of_result `Timeout = Wd_detectors.Observer.Timeout);
  check "err" true
    (Wd_detectors.Observer.of_result (`Err "x") = Wd_detectors.Observer.Failure "x")

let () =
  Alcotest.run "wd_detectors"
    [
      ( "heartbeat",
        [
          Alcotest.test_case "healthy" `Quick test_heartbeat_healthy;
          Alcotest.test_case "detects silence" `Quick test_heartbeat_detects_silence;
          Alcotest.test_case "prefix filter" `Quick test_heartbeat_ignores_other_prefixes;
        ] );
      ( "probe",
        [ Alcotest.test_case "roundtrip pass/fail" `Quick test_probe_roundtrip_pass_and_fail ]
      );
      ( "signal",
        [
          Alcotest.test_case "queue depth" `Quick test_signal_queue_depth;
          Alcotest.test_case "mem utilisation" `Quick test_signal_mem_utilisation;
          Alcotest.test_case "sleep overshoot (GC pause)" `Quick
            test_signal_sleep_overshoot;
        ] );
      ( "observer",
        [
          Alcotest.test_case "threshold" `Quick test_observer_threshold;
          Alcotest.test_case "window prunes" `Quick test_observer_window_prunes;
          Alcotest.test_case "of_result" `Quick test_observer_of_result;
          QCheck_alcotest.to_alcotest prop_observer_matches_list_oracle;
        ] );
    ]
