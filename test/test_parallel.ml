(* Tests for the domain pool (Wd_parallel.Pool) and the parallel campaign
   engine: order preservation, exception propagation, pool lifecycle, and
   the headline guarantee — a campaign batch is byte-identical at any
   [jobs] width. *)

module Pool = Wd_parallel.Pool
module Campaign = Wd_harness.Campaign
module Systems = Wd_harness.Systems
module Catalog = Wd_faults.Catalog
module Generate = Wd_autowatchdog.Generate

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Pool.map --- *)

let test_map_order () =
  let input = List.init 200 Fun.id in
  let expected = List.map (fun i -> i * i) input in
  Alcotest.(check (list int))
    "order preserved" expected
    (Pool.run_map ~jobs:4 (fun i -> i * i) input);
  (* deliberately uneven work so completion order differs from input order *)
  let lumpy i =
    if i mod 7 = 0 then
      ignore (Sys.opaque_identity (List.init 5000 Fun.id));
    i
  in
  Alcotest.(check (list int))
    "order preserved under uneven work" input
    (Pool.run_map ~jobs:4 lumpy input);
  Alcotest.(check (list int)) "empty input" [] (Pool.run_map ~jobs:4 lumpy []);
  Alcotest.(check (list int))
    "jobs=1 degenerates to List.map" expected
    (Pool.run_map ~jobs:1 (fun i -> i * i) input)

exception Boom of int

let test_exception_propagation () =
  (* several elements raise; the lowest input index must win *)
  let f i = if i mod 13 = 4 then raise (Boom i) else i in
  (match Pool.run_map ~jobs:4 f (List.init 64 Fun.id) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> check_int "lowest failing index re-raised" 4 i);
  (* a failing batch must not poison the pool for later batches *)
  Pool.with_pool ~jobs:3 (fun p ->
      (match Pool.map p f (List.init 64 Fun.id) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom _ -> ());
      Alcotest.(check (list int))
        "pool usable after a failing batch"
        [ 0; 1; 2; 3 ]
        (Pool.map p Fun.id [ 0; 1; 2; 3 ]))

let test_map_reduce () =
  let sum =
    Pool.with_pool ~jobs:3 (fun p ->
        Pool.map_reduce p
          ~map:(fun i -> i * i)
          ~reduce:(fun acc v -> acc + v)
          ~init:0 (List.init 100 Fun.id))
  in
  check_int "sum of squares" 328350 sum;
  (* reduction order is input order: string concat is order-sensitive *)
  let cat =
    Pool.run_map ~jobs:4 string_of_int (List.init 10 Fun.id)
    |> String.concat ""
  in
  Alcotest.(check string) "reduction in input order" "0123456789" cat

let test_lifecycle () =
  let p = Pool.create ~jobs:2 in
  check_int "width" 2 (Pool.jobs p);
  Alcotest.(check (list int)) "batch 1" [ 1; 2; 3 ] (Pool.map p succ [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "batch 2 reuses pool" [ 0; 1 ] (Pool.map p Fun.id [ 0; 1 ]);
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  (match Pool.map p Fun.id [ 1 ] with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ());
  check_int "jobs clamped to >= 1" 1 (Pool.jobs (Pool.create ~jobs:0))

(* [Pool.global] clamps its width to the host's core count; tests must not
   assume a particular host. *)
let effective n = max 1 (min n (Domain.recommended_domain_count ()))

let test_large_batch_exception () =
  (* one failing cell buried deep in a large batch: the batch must finish
     settling (no hang on the remaining counter) and re-raise precisely
     that cell's exception *)
  Pool.with_pool ~jobs:4 (fun p ->
      (match
         Pool.map p
           (fun i -> if i = 1717 then raise (Boom i) else i * 2)
           (List.init 5000 Fun.id)
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> check_int "the one failing cell" 1717 i);
      (* and when several cells fail, the lowest index wins even at size *)
      match
        Pool.map p
          (fun i -> if i mod 997 = 0 && i > 0 then raise (Boom i) else i)
          (List.init 5000 Fun.id)
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> check_int "lowest failing index at size" 997 i)

let test_persistent_reuse () =
  (* many consecutive batches through the same persistent pool: no worker
     leaks, no stale cursor state carried across batches *)
  let p = Pool.global ~jobs:2 () in
  check_int "global pool width clamped to host" (effective 2) (Pool.jobs p);
  for round = 1 to 50 do
    let n = 1 + ((round * 37) mod 200) in
    let got = Pool.map p (fun i -> i + round) (List.init n Fun.id) in
    Alcotest.(check (list int))
      (Printf.sprintf "round %d" round)
      (List.init n (fun i -> i + round))
      got
  done

let test_global_shutdown_revival () =
  let p = Pool.global ~jobs:2 () in
  Pool.shutdown p;
  (* a held reference to the shut-down pool refuses work... *)
  (match Pool.map p Fun.id [ 1; 2; 3 ] with
  | _ -> Alcotest.fail "expected Invalid_argument on shut-down global pool"
  | exception Invalid_argument _ -> ());
  (* ...but the entry points revive the process-wide pool transparently *)
  Alcotest.(check (list int))
    "run_map revives the global pool" [ 2; 3; 4 ]
    (Pool.run_map ~jobs:2 succ [ 1; 2; 3 ]);
  let q = Pool.global ~jobs:2 () in
  check "revived pool is a fresh one" true (q != p);
  Alcotest.(check (list int)) "revived pool works" [ 0; 1 ] (Pool.map q Fun.id [ 0; 1 ])

(* --- parallel campaign determinism ---

   The acceptance bar of the parallel engine: running the whole scenario
   catalog through [Campaign.run_batch] at jobs=4 yields structurally
   identical [run] records to jobs=1, for a mix of modes and seeds. *)

let test_campaign_batch_deterministic () =
  let base = List.map (fun s -> Campaign.cell s.Catalog.sid) Catalog.all in
  let variants =
    [
      Campaign.cell
        ~cfg:{ Campaign.default_config with Campaign.seed = 7 }
        "zk-2201";
      Campaign.cell
        ~cfg:
          {
            Campaign.default_config with
            Campaign.mode = Systems.Wd_no_context;
          }
        "kvs-flush-hang";
      Campaign.cell
        ~cfg:{ Campaign.default_config with Campaign.mode = Systems.Wd_none }
        "cs-compaction-stuck";
    ]
  in
  let cells = base @ variants in
  (* cold cache on both sides; the jobs=4 run also exercises concurrent
     [analyze_cached] calls racing to fill the cache *)
  Generate.clear_cache ();
  let seq = Campaign.run_batch ~jobs:1 cells in
  Generate.clear_cache ();
  let par = Campaign.run_batch ~jobs:4 cells in
  check_int "same number of runs" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Campaign.run) (b : Campaign.run) ->
      Alcotest.(check string) "same scenario order" a.Campaign.r_sid b.Campaign.r_sid;
      check (a.Campaign.r_sid ^ ": identical run record") true (a = b))
    seq par

(* --- WD_JOBS parsing --- *)

let test_parse_jobs () =
  let ok = Alcotest.(result (option int) string) in
  Alcotest.(check ok) "unset" (Ok None) (Pool.parse_jobs None);
  Alcotest.(check ok) "empty" (Ok None) (Pool.parse_jobs (Some ""));
  Alcotest.(check ok) "blank-padded" (Ok (Some 3)) (Pool.parse_jobs (Some " 3 "));
  List.iter
    (fun v ->
      match Pool.parse_jobs (Some v) with
      | Ok _ -> Alcotest.failf "WD_JOBS=%S accepted" v
      | Error msg ->
          check
            (Fmt.str "error for %S names WD_JOBS: %s" v msg)
            true
            (String.length msg >= 7 && String.sub msg 0 7 = "WD_JOBS"))
    [ "0"; "-2"; "x" ]

let () =
  Alcotest.run "wd_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_map_order;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "map_reduce" `Quick test_map_reduce;
          Alcotest.test_case "lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "large batch exception" `Quick
            test_large_batch_exception;
          Alcotest.test_case "persistent pool reuse" `Quick
            test_persistent_reuse;
          Alcotest.test_case "global shutdown + revival" `Quick
            test_global_shutdown_revival;
          Alcotest.test_case "WD_JOBS parse" `Quick test_parse_jobs;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs=1 vs jobs=4 identical over catalog" `Slow
            test_campaign_batch_deterministic;
        ] );
    ]
