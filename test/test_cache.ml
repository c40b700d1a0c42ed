(* Tests for the AutoWatchdog analysis cache: physical reuse across
   repeated boots of one system, equality with the uncached path, config
   keying, and invalidation. *)

module Generate = Wd_autowatchdog.Generate
module Config = Wd_autowatchdog.Config
module Reduction = Wd_analysis.Reduction
module Campaign = Wd_harness.Campaign
module Systems = Wd_harness.Systems
module Sched = Wd_sim.Sched

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_physical_reuse () =
  Generate.clear_cache ();
  (* two structurally equal but physically distinct programs: the digest,
     not physical identity, must key the cache *)
  let g1 = Generate.analyze_cached (Wd_targets.Zkmini.program ()) in
  let g2 = Generate.analyze_cached (Wd_targets.Zkmini.program ()) in
  check "same generated value reused" true (g1 == g2);
  let hits, misses = Generate.cache_stats () in
  check_int "one miss" 1 misses;
  check_int "one hit" 1 hits

let test_bypass_equals_cached () =
  Generate.clear_cache ();
  let prog = Wd_targets.Kvs.program () in
  let gc = Generate.analyze_cached prog in
  let gu = Generate.analyze prog (* cache bypass *) in
  check "bypass allocates fresh" true (not (gc == gu));
  check "equal reduction stats" true
    (gc.Generate.red.Reduction.stats = gu.Generate.red.Reduction.stats);
  Alcotest.(check (list string))
    "equal unit ids"
    (List.map (fun u -> u.Reduction.unit_id) gc.Generate.units)
    (List.map (fun u -> u.Reduction.unit_id) gu.Generate.units);
  Alcotest.(check (list string))
    "equal rendered checker sources"
    (List.map Generate.render_checker_source gc.Generate.units)
    (List.map Generate.render_checker_source gu.Generate.units);
  check "equal instrumented program" true
    (gc.Generate.red.Reduction.instrumented
    = gu.Generate.red.Reduction.instrumented);
  let _, misses = Generate.cache_stats () in
  check_int "bypass did not touch the cache" 1 misses

let test_config_keys_cache () =
  Generate.clear_cache ();
  let prog = Wd_targets.Zkmini.program () in
  let g1 = Generate.analyze_cached prog in
  let g2 =
    Generate.analyze_cached
      ~config:{ Config.default with Config.enhance = false }
      prog
  in
  check "different config, different entry" true (not (g1 == g2));
  let g3 = Generate.analyze_cached prog in
  check "default config hits its own entry" true (g1 == g3);
  let hits, misses = Generate.cache_stats () in
  check_int "two misses" 2 misses;
  check_int "one hit" 1 hits

let test_clear_invalidates () =
  Generate.clear_cache ();
  let prog = Wd_targets.Kvs.program () in
  let g1 = Generate.analyze_cached prog in
  Generate.clear_cache ();
  let g2 = Generate.analyze_cached prog in
  check "fresh analysis after clear" true (not (g1 == g2));
  let hits, misses = Generate.cache_stats () in
  check_int "stats reset by clear" 1 misses;
  check_int "no hits after clear" 0 hits

let test_boot_shares_generated () =
  Generate.clear_cache ();
  let boot () =
    let sched = Sched.create ~seed:1 () in
    let reg = Wd_env.Faultreg.create () in
    Systems.boot ~sched ~reg ~mode:Systems.Wd_generated "kvs"
  in
  let b1 = boot () in
  let b2 = boot () in
  check "boots of one system share the analysis" true
    (b1.Systems.b_generated == b2.Systems.b_generated)

let test_repeated_runs_reuse () =
  Generate.clear_cache ();
  ignore (Campaign.run_scenario "kvs-flush-hang");
  let hits0, misses0 = Generate.cache_stats () in
  ignore (Campaign.run_scenario "kvs-flush-hang");
  let hits1, misses1 = Generate.cache_stats () in
  check_int "second run re-analyses nothing" misses0 misses1;
  check "second run hits the cache" true (hits1 > hits0)

let () =
  Alcotest.run "wd_cache"
    [
      ( "analysis cache",
        [
          Alcotest.test_case "physical reuse" `Quick test_physical_reuse;
          Alcotest.test_case "bypass equals cached" `Quick
            test_bypass_equals_cached;
          Alcotest.test_case "config keys cache" `Quick test_config_keys_cache;
          Alcotest.test_case "clear invalidates" `Quick test_clear_invalidates;
          Alcotest.test_case "boot shares generated" `Quick
            test_boot_shares_generated;
          Alcotest.test_case "repeated runs reuse" `Quick
            test_repeated_runs_reuse;
        ] );
    ]
