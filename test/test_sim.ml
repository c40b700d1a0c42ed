(* Unit and property tests for the simulation kernel. *)

open Wd_sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- heap --- *)

(* Pop everything, in key order, through the allocation-free API. *)
let drain h =
  let rec loop acc =
    if Heap.is_empty h then List.rev acc
    else
      let time = Heap.min_time h in
      let p = Heap.pop_min h in
      loop ((time, p) :: acc)
  in
  loop []

let test_heap_order () =
  let h = Heap.create ~dummy_payload:(-1) in
  Heap.push h ~time:30L 3;
  Heap.push h ~time:10L 1;
  Heap.push h ~time:20L 2;
  let order = List.map snd (drain h) in
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] order

let test_heap_ties_fifo () =
  let h = Heap.create ~dummy_payload:(-1) in
  List.iter (fun i -> Heap.push h ~time:5L i) [ 1; 2; 3; 4; 5 ];
  let order = List.map snd (drain h) in
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4; 5 ] order

let test_heap_grow () =
  let h = Heap.create ~dummy_payload:0 in
  for i = 1 to 1000 do
    Heap.push h ~time:(Int64.of_int (1000 - i)) i
  done;
  check_int "size" 1000 (Heap.size h);
  let times = List.map fst (drain h) in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a <= b && sorted rest
    | [ _ ] | [] -> true
  in
  check "sorted" true (sorted times)

(* Keys at and above 2^62 do not fit a native int; they must still order
   exactly, [Time.never] included, with ties in insertion order. *)
let test_heap_huge_keys () =
  let big = Int64.shift_left 1L 62 in
  let keys =
    [ Time.never; Int64.add big 1L; big; Int64.sub Time.never 1L; big;
      Time.never; 0L; Int64.add big 1L; Time.never ]
  in
  let h = Heap.create ~dummy_payload:(-1) in
  List.iteri (fun i k -> Heap.push h ~time:k i) keys;
  let expected =
    List.stable_sort
      (fun (a, _) (b, _) -> Int64.compare a b)
      (List.mapi (fun i k -> (k, i)) keys)
  in
  Alcotest.(check (list (pair int64 int))) "exact int64 order" expected (drain h)

let test_heap_fifo_many_ties () =
  let h = Heap.create ~dummy_payload:(-1) in
  (* interleave two tied keys with a churn of pops, so ties meet in every
     position of the tree *)
  for i = 0 to 299 do
    Heap.push h ~time:(if i mod 2 = 0 then 7L else 3L) i
  done;
  let got = drain h in
  let expected =
    List.init 150 (fun k -> (3L, (2 * k) + 1))
    @ List.init 150 (fun k -> (7L, 2 * k))
  in
  Alcotest.(check (list (pair int64 int))) "fifo among equal keys" expected got

let test_heap_no_alloc () =
  let n = 10_000 in
  let keys = Array.init n (fun i -> Int64.of_int ((i * 7919) mod 1000)) in
  let h = Heap.create ~dummy_payload:0 in
  (* grow the arrays first, and keep a standing population like the
     scheduler's stale timers *)
  Array.iteri (fun i k -> Heap.push h ~time:k i) keys;
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    Heap.push h ~time:(Array.unsafe_get keys i) i;
    sink := !sink + Heap.pop_min h
  done;
  let words = Gc.minor_words () -. before in
  check_int "size unchanged" n (Heap.size h);
  Alcotest.(check (float 0.)) "push/pop_min allocate 0 words" 0. words;
  ignore (Sys.opaque_identity !sink)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let h = Heap.create ~dummy_payload:0 in
      List.iteri (fun i t -> Heap.push h ~time:(Int64.of_int t) i) times;
      let drained = drain h in
      List.length drained = List.length times
      && fst
           (List.fold_left
              (fun (ok, prev) (t, _) -> (ok && t >= prev, t))
              (true, Int64.min_int) drained))

(* Deadline lanes share the heap's order: a lane push costs O(1) but pops
   exactly where [push] would have put it. *)
let test_lane_no_alloc () =
  let n = 10_000 in
  let delays = [| 500L; 2_000L; 100L |] in
  (* per delay, deadlines at a rising clock: each lane sees sorted times *)
  let times =
    Array.init (2 * n) (fun i -> Int64.add (Int64.of_int i) delays.(i mod 3))
  in
  let h = Heap.create ~dummy_payload:0 in
  for i = 0 to n - 1 do
    Heap.push_lane h ~lane:delays.(i mod 3) ~time:times.(i) i
  done;
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for i = n to (2 * n) - 1 do
    Heap.push_lane h
      ~lane:(Array.unsafe_get delays (i mod 3))
      ~time:(Array.unsafe_get times i) i;
    sink := !sink + Heap.pop_min h
  done;
  let words = Gc.minor_words () -. before in
  check_int "size unchanged" n (Heap.size h);
  Alcotest.(check (float 0.)) "push_lane/pop_min allocate 0 words" 0. words;
  ignore (Sys.opaque_identity !sink)

(* The laned queue against a sorted-list model. Operations: heap pushes,
   lane pushes of a fixed delay at a rising clock (ten distinct delays,
   more than there are lanes), lane pushes at an arbitrary time (earlier
   than the lane's tail, so they must take the heap), clock ticks of 0-2
   (many equal times across lanes and the heap), and pops. Long runs of
   pushes grow the rings past their initial capacity. After every step
   [size], [is_empty] and [min_time] must match the model, and every pop
   must return the model's least (time, insertion order) entry. *)
type qop =
  | Q_push of int
  | Q_lane of int
  | Q_lane_at of int * int
  | Q_tick of int
  | Q_pop

let lane_delays = [| 0; 1; 3; 5; 8; 13; 21; 34; 55; 89 |]

let gen_qops =
  QCheck.Gen.(
    list_size (int_range 0 400)
      (frequency
         [
           (2, map (fun d -> Q_push d) (int_bound 100));
           (6, map (fun i -> Q_lane i) (int_bound 9));
           (1, map2 (fun i t -> Q_lane_at (i, t)) (int_bound 9) (int_bound 120));
           (2, map (fun d -> Q_tick d) (int_bound 2));
           (4, return Q_pop);
         ]))

let print_qop = function
  | Q_push d -> Fmt.str "push +%d" d
  | Q_lane i -> Fmt.str "lane %d" lane_delays.(i)
  | Q_lane_at (i, t) -> Fmt.str "lane %d @%d" lane_delays.(i) t
  | Q_tick d -> Fmt.str "tick %d" d
  | Q_pop -> "pop"

let lanes_match_model ops =
  let h = Heap.create ~dummy_payload:(-1) in
  (* the model: (time, payload) in (time, insertion) order *)
  let model = ref [] and clock = ref 0 in
  let insert time p =
    let rec go = function
      | (t, _) as e :: rest when t <= time -> e :: go rest
      | l -> (time, p) :: l
    in
    model := go !model
  in
  let agrees () =
    Heap.size h = List.length !model
    && Heap.is_empty h = (!model = [])
    &&
    match !model with
    | [] -> true
    | (t, _) :: _ -> Heap.min_time h = Int64.of_int t
  in
  let step i op =
    (match op with
    | Q_push d ->
        Heap.push h ~time:(Int64.of_int (!clock + d)) i;
        insert (!clock + d) i
    | Q_lane k ->
        let d = lane_delays.(k) in
        Heap.push_lane h ~lane:(Int64.of_int d)
          ~time:(Int64.of_int (!clock + d)) i;
        insert (!clock + d) i
    | Q_lane_at (k, t) ->
        Heap.push_lane h ~lane:(Int64.of_int lane_delays.(k))
          ~time:(Int64.of_int t) i;
        insert t i
    | Q_tick d -> clock := !clock + d
    | Q_pop -> (
        match !model with
        | [] -> ()
        | (t, p) :: rest ->
            model := rest;
            let t' = Heap.min_time h in
            let p' = Heap.pop_min h in
            if t' <> Int64.of_int t || p' <> p then
              QCheck.Test.fail_reportf "pop %d: got (%Ld, %d), want (%d, %d)" i
                t' p' t p));
    agrees ()
  in
  List.for_all Fun.id (List.mapi step ops)

let prop_lanes_match_model =
  QCheck.Test.make ~name:"laned queue matches a sorted-list model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_qop ops))
       gen_qops)
    lanes_match_model

(* --- rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let c = Rng.split a in
  let first_c = Rng.next_int64 c in
  let a2 = Rng.create ~seed:7 in
  let c2 = Rng.split a2 in
  ignore (Rng.next_int64 a2);
  Alcotest.(check int64) "child unaffected by parent advance" first_c
    (Rng.next_int64 c2)

let test_rng_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    check "in range" true (x >= 0 && x < 10)
  done;
  for _ = 1 to 1000 do
    let f = Rng.float r in
    check "float range" true (f >= 0.0 && f < 1.0)
  done

let prop_rng_exponential_positive =
  QCheck.Test.make ~name:"exponential durations are nonnegative" ~count:100
    QCheck.(pair small_int (float_bound_exclusive 1000.0))
    (fun (seed, mean) ->
      let r = Rng.create ~seed in
      Rng.exponential r ~mean:(mean +. 0.001) >= 0.0)

(* --- time --- *)

let test_time_units () =
  Alcotest.(check int64) "ms" 5_000_000L (Time.ms 5);
  Alcotest.(check int64) "sec" 2_000_000_000L (Time.sec 2);
  Alcotest.(check int64) "us" 3_000L (Time.us 3);
  check_str "pp seconds" "2.000s" (Time.to_string (Time.sec 2));
  check_str "pp millis" "5.000ms" (Time.to_string (Time.ms 5))

(* --- scheduler --- *)

let test_sched_runs_tasks_in_time_order () =
  let s = Sched.create () in
  let log = ref [] in
  let t name delay =
    ignore
      (Sched.spawn ~name s (fun () ->
           Sched.sleep delay;
           log := name :: !log))
  in
  t "c" (Time.ms 30);
  t "a" (Time.ms 10);
  t "b" (Time.ms 20);
  (match Sched.run s with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "expected quiescent");
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log)

let test_sched_virtual_time () =
  let s = Sched.create () in
  ignore (Sched.spawn s (fun () -> Sched.sleep (Time.sec 3600)));
  ignore (Sched.run s);
  Alcotest.(check int64) "one simulated hour" (Time.sec 3600) (Sched.now s)

let test_sched_yield_interleaves () =
  let s = Sched.create () in
  let log = ref [] in
  let t name =
    ignore
      (Sched.spawn ~name s (fun () ->
           for i = 1 to 2 do
             log := Fmt.str "%s%d" name i :: !log;
             Sched.yield ()
           done))
  in
  t "a";
  t "b";
  ignore (Sched.run s);
  Alcotest.(check (list string)) "interleaved" [ "a1"; "b1"; "a2"; "b2" ]
    (List.rev !log)

let test_sched_join () =
  let s = Sched.create () in
  let child_done = ref false in
  ignore
    (Sched.spawn s (fun () ->
         let child =
           Sched.spawn ~name:"child" s (fun () ->
               Sched.sleep (Time.ms 10);
               child_done := true)
         in
         match Sched.join child with
         | Sched.Exited -> Alcotest.(check bool) "done first" true !child_done
         | _ -> Alcotest.fail "child should exit"));
  ignore (Sched.run s)

let test_sched_kill () =
  let s = Sched.create () in
  let reached = ref false in
  let victim =
    Sched.spawn ~name:"victim" s (fun () ->
        Sched.sleep (Time.sec 100);
        reached := true)
  in
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep (Time.ms 1);
         Sched.kill s victim));
  ignore (Sched.run s);
  check "never resumed" false !reached;
  check "killed status" true (Sched.task_status victim = Some Sched.Killed)

(* A task that kills itself ends Killed at that point, and its exit hooks
   run with that status. *)
let test_sched_kill_self () =
  let s = Sched.create () in
  let reached = ref false and hook_status = ref None in
  let t =
    Sched.spawn ~name:"suicide" s (fun () ->
        Sched.kill s (Sched.self s);
        reached := true)
  in
  Sched.on_exit t (fun st -> hook_status := Some st);
  ignore (Sched.run s);
  check "stopped at the kill" false !reached;
  check "killed status" true (Sched.task_status t = Some Sched.Killed);
  check "exit hook saw Killed" true (!hook_status = Some Sched.Killed)

let test_sched_failure_status () =
  let s = Sched.create () in
  let t = Sched.spawn ~name:"fails" s (fun () -> failwith "boom") in
  ignore (Sched.run s);
  match Sched.task_status t with
  | Some (Sched.Failed (Failure m)) -> check_str "msg" "boom" m
  | _ -> Alcotest.fail "expected failure status"

let test_sched_timeout_join_completes () =
  let s = Sched.create () in
  ignore
    (Sched.spawn s (fun () ->
         match Sched.timeout_join s ~timeout:(Time.sec 1) (fun () -> 41 + 1) with
         | Ok v -> check_int "value" 42 v
         | Error _ -> Alcotest.fail "should complete"));
  ignore (Sched.run s)

let test_sched_timeout_join_times_out () =
  let s = Sched.create () in
  let returned_at = ref (-1L) in
  ignore
    (Sched.spawn s (fun () ->
         match
           Sched.timeout_join s ~timeout:(Time.ms 10) (fun () ->
               Sched.sleep (Time.sec 5))
         with
         | Error `Timeout -> returned_at := Sched.now s
         | _ -> Alcotest.fail "should time out"));
  (match Sched.run s with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "child must be killed, leaving the sim quiescent");
  (* the killed child's stale sleep timer may advance the final clock, but
     the caller observed the timeout exactly at the deadline *)
  Alcotest.(check int64) "timed out at the deadline" (Time.ms 10) !returned_at

(* --- persistent runner: a reusable timeout_join --- *)

let test_runner_ok_timeout_exn () =
  let s = Sched.create () in
  ignore
    (Sched.spawn s (fun () ->
         let r = Sched.runner ~name:"rt" s in
         (match Sched.runner_run r ~timeout:(Time.sec 1) (fun () -> 40 + 2) with
         | Ok v -> check_int "ok value" 42 v
         | Error _ -> Alcotest.fail "should complete");
         (match
            Sched.runner_run r ~timeout:(Time.ms 10) (fun () ->
                Sched.sleep (Time.sec 5))
          with
         | Error `Timeout -> ()
         | _ -> Alcotest.fail "should time out");
         (* the worker was killed by the timeout; the runner respawns it *)
         (match
            Sched.runner_run r ~timeout:(Time.sec 1) (fun () ->
                failwith "boom")
          with
         | Error (`Exn (Failure m)) -> check_str "exn payload" "boom" m
         | _ -> Alcotest.fail "should surface the exception");
         (match Sched.runner_run r ~timeout:(Time.sec 1) (fun () -> 7) with
         | Ok v -> check_int "usable after exn" 7 v
         | Error _ -> Alcotest.fail "runner must stay usable");
         Sched.runner_stop r;
         match Sched.runner_run r ~timeout:(Time.sec 1) (fun () -> 9) with
         | Ok v -> check_int "usable after stop" 9 v
         | Error _ -> Alcotest.fail "runner must respawn after stop"));
  match Sched.run s with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "daemon worker must not keep the sim alive"

(* The refactor's scheduling-equivalence claim, tested directly: a periodic
   caller issuing a mix of completing / timing-out / raising bodies must
   observe the same outcomes at the same virtual times, with the same
   context-switch and event counts, whether each call spawns a fresh child
   (timeout_join) or reuses the persistent worker (runner). *)
let runner_equiv_workload use_runner =
  let s = Sched.create ~seed:7 () in
  let outcomes = ref [] in
  ignore
    (Sched.spawn ~name:"drv" s (fun () ->
         let call =
           if use_runner then
             let r = Sched.runner ~name:"wk" s in
             fun f -> Sched.runner_run r ~timeout:(Time.ms 10) f
           else fun f -> Sched.timeout_join ~name:"wk" s ~timeout:(Time.ms 10) f
         in
         for i = 1 to 30 do
           let body () =
             if i mod 7 = 0 then failwith "x";
             Sched.sleep (Time.ms (if i mod 3 = 0 then 50 else 1));
             i
           in
           let tag =
             match call body with
             | Ok v -> Printf.sprintf "ok:%d" v
             | Error `Timeout -> "timeout"
             | Error (`Exn _) -> "exn"
             | Error `Killed -> "killed"
           in
           outcomes := (tag, Sched.now s) :: !outcomes;
           Sched.sleep (Time.ms 5)
         done));
  ignore (Sched.run s);
  let _, switches, events = Sched.stats s in
  (List.rev !outcomes, Sched.now s, switches, events)

let test_runner_matches_timeout_join () =
  let o1, now1, sw1, ev1 = runner_equiv_workload false in
  let o2, now2, sw2, ev2 = runner_equiv_workload true in
  Alcotest.(check (list (pair string int64))) "same outcomes, same times" o1 o2;
  Alcotest.(check int64) "same final clock" now1 now2;
  check_int "same context switches" sw1 sw2;
  check_int "same events fired" ev1 ev2

(* --- uncontended-sleep fast path vs the suspending path ---

   Random task programs run twice: as is, and with every sleep forced onto
   the suspending path by [Sched.Reference.within]. The fast path must be
   invisible: same stats, same clock, same trace entries, same outputs. *)

type act =
  | A_sleep of int64
  | A_yield
  | A_timer of int64 (* a bare timer callback, armed from the task *)
  | A_cond_wait of int * int64 (* cond index, timeout *)
  | A_signal of int
  | A_broadcast of int
  | A_send of int (* channel index; blocks while full *)
  | A_recv of int * int64
  | A_timeout_join of int64 * act list
  | A_runner_run of int64 * act list
  | A_kill of int (* top-level task index *)

let gen_delay =
  QCheck.Gen.(
    frequency
      [
        (3, return 0L);
        (4, map Int64.of_int (int_range 1 10));
        (4, map Int64.of_int (int_range 100 100_000));
        (1, return (Time.sec 1));
        (1, return (Int64.div Int64.max_int 2L));
        (1, return Int64.max_int);
      ])

let gen_timeout = QCheck.Gen.(map Int64.of_int (int_range 0 50_000))

let rec gen_act depth =
  let open QCheck.Gen in
  let base =
    [
      (8, map (fun d -> A_sleep d) gen_delay);
      (2, return A_yield);
      (1, map (fun d -> A_timer d) gen_delay);
      (1, map2 (fun c t -> A_cond_wait (c, t)) (int_bound 1) gen_timeout);
      (1, map (fun c -> A_signal c) (int_bound 1));
      (1, map (fun c -> A_broadcast c) (int_bound 1));
      (1, map (fun c -> A_send c) (int_bound 1));
      (1, map2 (fun c t -> A_recv (c, t)) (int_bound 1) gen_timeout);
      (1, map (fun j -> A_kill j) (int_bound 3));
    ]
  in
  if depth = 0 then frequency base
  else
    let body = list_size (int_range 0 4) (gen_act (depth - 1)) in
    frequency
      (base
      @ [
          (1, map2 (fun t b -> A_timeout_join (t, b)) gen_timeout body);
          (1, map2 (fun t b -> A_runner_run (t, b)) gen_timeout body);
        ])

let gen_program =
  QCheck.Gen.(
    pair
      (list_size (int_range 1 4)
         (pair (frequencyl [ (4, false); (1, true) ])
            (list_size (int_range 0 10) (gen_act 1))))
      (* [run ~until] cut points before the final unbounded run *)
      (map (List.sort compare)
         (list_size (int_range 0 3)
            (map Int64.of_int (int_range 0 200_000)))))

let string_of_result = function
  | Ok () -> "ok"
  | Error `Timeout -> "timeout"
  | Error `Killed -> "killed"
  | Error (`Exn e) -> "exn " ^ Printexc.to_string e

let run_program (tasks, cuts) =
  let s = Sched.create ~seed:3 () in
  let tr = Sched.trace s in
  let out = Buffer.create 1024 in
  let note fmt = Printf.bprintf out (fmt ^^ "\n") in
  let conds = Array.init 2 (fun i -> Cond.create (string_of_int i)) in
  let signals = Array.make 2 0 in
  let chans = Array.init 2 (fun i -> Channel.create ~capacity:1 (string_of_int i)) in
  let handles = Array.make 4 None in
  let rec exec who runner acts = List.iteri (step who runner) acts
  and step who runner k a =
    (match a with
    | A_sleep d -> Sched.sleep d
    | A_yield -> Sched.yield ()
    | A_timer d ->
        Sched.after s d (fun () -> note "timer %s.%d @%Ld" who k (Sched.now s))
    | A_cond_wait (c, timeout) ->
        let seen = signals.(c) in
        let ok =
          Cond.await_timeout conds.(c) (fun () -> signals.(c) <> seen) ~timeout
        in
        note "%s.%d cond %b" who k ok
    | A_signal c ->
        signals.(c) <- signals.(c) + 1;
        Cond.signal conds.(c)
    | A_broadcast c ->
        signals.(c) <- signals.(c) + 1;
        Cond.broadcast conds.(c)
    | A_send c -> Channel.send chans.(c) k
    | A_recv (c, timeout) ->
        note "%s.%d recv %s" who k
          (match Channel.recv_timeout chans.(c) ~timeout with
          | Some v -> string_of_int v
          | None -> "-")
    | A_timeout_join (timeout, body) ->
        let who' = Printf.sprintf "%s.%d/j" who k in
        note "%s.%d join %s" who k
          (string_of_result
             (Sched.timeout_join ~name:who' s ~timeout (fun () ->
                  exec who' runner body)))
    | A_runner_run (timeout, body) ->
        let who' = Printf.sprintf "%s.%d/r" who k in
        note "%s.%d runner %s" who k
          (string_of_result
             (Sched.runner_run runner ~timeout (fun () -> exec who' runner body)))
    | A_kill j -> (
        match handles.(j) with Some t -> Sched.kill s t | None -> ()));
    note "%s.%d @%Ld" who k (Sched.now s)
  in
  List.iteri
    (fun i (daemon, acts) ->
      let who = "t" ^ string_of_int i in
      let runner = Sched.runner ~name:(who ^ "r") s in
      handles.(i) <-
        Some (Sched.spawn ~name:who ~daemon s (fun () -> exec who runner acts)))
    tasks;
  let run_once ?until () =
    let r =
      match Sched.run ?until s with
      | Sched.Quiescent -> "quiescent"
      | Time_limit -> "time-limit"
      | Deadlock ts ->
          "deadlock " ^ String.concat "," (List.map Sched.task_name ts)
    in
    let spawned, switches, events = Sched.stats s in
    note "run %s @%Ld spawned=%d switches=%d events=%d" r (Sched.now s)
      spawned switches events
  in
  List.iter (fun until -> run_once ~until ()) cuts;
  run_once ();
  Array.iter
    (function
      | Some t ->
          note "%s %s" (Sched.task_name t)
            (Fmt.str "%a" Sched.pp_task t)
      | None -> ())
    handles;
  (Buffer.contents out, Sched.stats s, Sched.now s, Trace.recent tr (Trace.total tr))

let prop_sleep_fast_path_invisible =
  QCheck.Test.make ~name:"sleep fast path matches the suspending path"
    ~count:400 (QCheck.make gen_program) (fun prog ->
      let out, stats, now, events = run_program prog in
      let out', stats', now', events' =
        Sched.Reference.within (fun () -> run_program prog)
      in
      String.equal out out' && stats = stats' && Int64.equal now now'
      && events = events')

(* The differential above is vacuous if the fast path never fires. An
   uncontended sleep loop on the fast path captures no continuation and
   arms no timer, so it allocates a fraction of the suspending path. *)
let test_sleep_fast_path_taken () =
  let loop () =
    let s = Sched.create () in
    ignore
      (Sched.spawn s (fun () ->
           for _ = 1 to 10_000 do
             Sched.sleep 20L
           done));
    let before = Gc.minor_words () in
    ignore (Sched.run s);
    (Gc.minor_words () -. before, Sched.stats s, Sched.now s)
  in
  let fast, stats, now = loop () in
  let slow, stats', now' = Sched.Reference.within loop in
  check "same stats" true (stats = stats');
  Alcotest.(check int64) "same clock" now now';
  check_int "start job plus two events per sleep" 20_001
    (let _, _, events = stats in
     events);
  check
    (Printf.sprintf "fast path allocates far less (%.0f vs %.0f words)" fast
       slow)
    true
    (fast *. 4. < slow)

(* --- Site intern table --- *)

let prop_site_intern_functional =
  QCheck.Test.make
    ~name:"site: equal strings get equal ids, distinct strings distinct ids"
    ~count:200
    QCheck.(pair small_string small_string)
    (fun (a, b) ->
      let ia = Wd_sim.Site.intern a and ib = Wd_sim.Site.intern b in
      String.equal a b = (ia = ib))

let prop_site_roundtrip =
  QCheck.Test.make ~name:"site: str is a left inverse of intern" ~count:200
    QCheck.(small_list string)
    (fun ss ->
      List.for_all
        (fun x ->
          let id = Wd_sim.Site.intern x in
          id = Wd_sim.Site.intern x
          && String.equal (Wd_sim.Site.str id) x)
        ss)

let test_site_concurrent_interning () =
  let strs = List.init 200 (fun i -> "site/conc/" ^ string_of_int i) in
  let doms =
    List.init 3 (fun _ ->
        Domain.spawn (fun () -> List.map Wd_sim.Site.intern strs))
  in
  let per_domain = List.map Domain.join doms in
  (match per_domain with
  | first :: rest ->
      List.iter
        (fun ids ->
          Alcotest.(check (list int)) "all domains agree on ids" first ids)
        rest;
      List.iter2
        (fun s id -> check_str "round-trip" s (Wd_sim.Site.str id))
        strs first
  | [] -> Alcotest.fail "no domains");
  check "count is monotone and covers these"
    (Wd_sim.Site.count () >= List.length strs)
    true

let test_sched_deadlock_detection () =
  let s = Sched.create () in
  let c = Cond.create "never" in
  ignore (Sched.spawn ~name:"waiter" s (fun () -> Cond.wait c));
  match Sched.run s with
  | Sched.Deadlock [ t ] -> check_str "who" "waiter" (Sched.task_name t)
  | _ -> Alcotest.fail "expected deadlock"

(* Several tasks wedge, in an order unlike their ids, among tasks that
   finish and a blocked daemon: the report lists exactly the blocked
   non-daemon tasks, newest first (descending id). *)
let test_sched_deadlock_order () =
  let s = Sched.create () in
  let c = Cond.create "never" in
  let wait_after d () =
    Sched.sleep d;
    Cond.wait c
  in
  ignore (Sched.spawn ~name:"w0" s (wait_after (Time.ms 9)));
  ignore (Sched.spawn ~name:"done1" s (fun () -> Sched.sleep (Time.ms 1)));
  ignore (Sched.spawn ~name:"w2" s (wait_after (Time.ms 1)));
  ignore (Sched.spawn ~name:"d3" ~daemon:true s (fun () -> Cond.wait c));
  ignore
    (Sched.spawn ~name:"w4" s (fun () ->
         ignore (Sched.spawn ~name:"w6" s (wait_after (Time.ms 3)));
         wait_after (Time.ms 5) ()));
  ignore (Sched.spawn ~name:"done5" s (fun () -> ()));
  match Sched.run s with
  | Sched.Deadlock ts ->
      Alcotest.(check (list string))
        "newest first" [ "w6"; "w4"; "w2"; "w0" ]
        (List.map Sched.task_name ts);
      Alcotest.(check (list int))
        "descending ids" [ 6; 4; 2; 0 ] (List.map Sched.task_id ts)
  | _ -> Alcotest.fail "expected deadlock"

(* Spawn [n] short tasks, remembering them only weakly. *)
let[@inline never] spawn_weakly s n =
  let w = Weak.create n in
  for i = 0 to n - 1 do
    Weak.set w i
      (Some (Sched.spawn s (fun () -> Sched.sleep (Time.us (i + 1)))))
  done;
  w

let test_sched_finished_tasks_collectable () =
  let s = Sched.create () in
  let w = spawn_weakly s 100 in
  (match Sched.run s with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "expected quiescence");
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to Weak.length w - 1 do
    if Weak.check w i then incr alive
  done;
  check_int "finished tasks retained" 0 !alive;
  let spawned, _, _ = Sched.stats (Sys.opaque_identity s) in
  check_int "all ran" 100 spawned

let test_sched_daemon_does_not_block_exit () =
  let s = Sched.create () in
  ignore
    (Sched.spawn ~name:"daemon" ~daemon:true s (fun () ->
         while true do
           Sched.sleep (Time.sec 1)
         done));
  ignore (Sched.spawn s (fun () -> Sched.sleep (Time.ms 5)));
  match Sched.run ~until:(Time.sec 10) s with
  | Sched.Time_limit | Sched.Quiescent -> ()
  | Sched.Deadlock _ -> Alcotest.fail "daemons must not deadlock the sim"

let test_sched_run_until_resumable () =
  let s = Sched.create () in
  let hits = ref 0 in
  ignore
    (Sched.spawn ~daemon:true s (fun () ->
         while true do
           Sched.sleep (Time.sec 1);
           incr hits
         done));
  ignore (Sched.run ~until:(Time.sec 5) s);
  let five = !hits in
  ignore (Sched.run ~until:(Time.sec 10) s);
  check_int "first window" 5 five;
  check_int "second window" 10 !hits

let prop_sched_deterministic =
  QCheck.Test.make ~name:"same seed, same trace" ~count:20
    QCheck.(small_list (int_bound 50))
    (fun delays ->
      let trace seed =
        let s = Sched.create ~seed () in
        let log = ref [] in
        List.iteri
          (fun i d ->
            ignore
              (Sched.spawn ~name:(string_of_int i) s (fun () ->
                   Sched.sleep (Time.ms d);
                   log := (i, Sched.now s) :: !log)))
          delays;
        ignore (Sched.run s);
        !log
      in
      trace 5 = trace 5)

let test_sched_stats () =
  let s = Sched.create () in
  for _ = 1 to 5 do
    ignore (Sched.spawn s (fun () -> Sched.sleep (Time.ms 1)))
  done;
  ignore (Sched.run s);
  let spawned, switches, events = Sched.stats s in
  check_int "spawned" 5 spawned;
  check "switched at least once per task" true (switches >= 5);
  check "events fired" true (events >= 10)

let test_sched_kill_ready_task () =
  let s = Sched.create () in
  let ran = ref false in
  let victim = Sched.spawn ~name:"v" s (fun () -> ran := true) in
  (* killed before it ever runs: the queued start job must not execute *)
  Sched.kill s victim;
  ignore (Sched.run s);
  check "never ran" false !ran;
  check "killed" true (Sched.task_status victim = Some Sched.Killed)

let test_sched_self_identity () =
  let s = Sched.create () in
  ignore
    (Sched.spawn ~name:"me" s (fun () ->
         check_str "self name" "me" (Sched.task_name (Sched.self s))));
  ignore (Sched.run s)

let test_time_arithmetic () =
  Alcotest.(check int64) "add" (Time.ms 3) Time.(ms 1 + ms 2);
  Alcotest.(check int64) "sub" (Time.ms 1) Time.(ms 3 - ms 2);
  check "never dominates" true (Time.never > Time.sec 1_000_000);
  Alcotest.(check int64) "of_float roundtrip" (Time.sec 2)
    (Time.of_float_sec (Time.to_float_sec (Time.sec 2)))

let test_rng_choice_and_shuffle () =
  let r = Rng.create ~seed:9 in
  let arr = [| 1; 2; 3; 4; 5 |] in
  for _ = 1 to 50 do
    check "choice member" true (Array.exists (( = ) (Rng.choice r arr)) arr)
  done;
  let a = Array.init 20 Fun.id in
  Rng.shuffle r a;
  Array.sort compare a;
  check "shuffle is a permutation" true (a = Array.init 20 Fun.id);
  for _ = 1 to 100 do
    let x = Rng.int64_range r 5L 9L in
    check "range inclusive" true (x >= 5L && x <= 9L)
  done

(* --- cond --- *)

let test_cond_signal_wakes_one () =
  let s = Sched.create () in
  let c = Cond.create "c" in
  let woken = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Sched.spawn ~daemon:true s (fun () ->
           Cond.wait c;
           incr woken))
  done;
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep (Time.ms 1);
         Cond.signal c));
  ignore (Sched.run ~until:(Time.ms 100) s);
  check_int "one woken" 1 !woken

let test_cond_broadcast_wakes_all () =
  let s = Sched.create () in
  let c = Cond.create "c" in
  let woken = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Sched.spawn ~daemon:true s (fun () ->
           Cond.wait c;
           incr woken))
  done;
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep (Time.ms 1);
         Cond.broadcast c));
  ignore (Sched.run ~until:(Time.ms 100) s);
  check_int "all woken" 3 !woken

let test_cond_await_timeout () =
  let s = Sched.create () in
  let c = Cond.create "c" in
  let result = ref None in
  ignore
    (Sched.spawn s (fun () ->
         result :=
           Some (Cond.await_timeout c (fun () -> false) ~timeout:(Time.ms 20))));
  ignore (Sched.run s);
  check "timed out" true (!result = Some false);
  Alcotest.(check int64) "waited the timeout" (Time.ms 20) (Sched.now s)

(* --- mutex --- *)

let test_mutex_mutual_exclusion () =
  let s = Sched.create () in
  let m = Smutex.create "m" in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 4 do
    ignore
      (Sched.spawn s (fun () ->
           Smutex.with_lock m (fun () ->
               incr inside;
               if !inside > !max_inside then max_inside := !inside;
               Sched.sleep (Time.ms 5);
               decr inside)))
  done;
  ignore (Sched.run s);
  check_int "never concurrent" 1 !max_inside;
  check_int "all acquired" 4 (Smutex.acquisitions m)

let test_mutex_released_on_exception () =
  let s = Sched.create () in
  let m = Smutex.create "m" in
  ignore
    (Sched.spawn s (fun () ->
         (try Smutex.with_lock m (fun () -> failwith "inner")
          with Failure _ -> ());
         check "released" false (Smutex.locked m)));
  ignore (Sched.run s)

let test_mutex_try_lock () =
  let s = Sched.create () in
  let m = Smutex.create "m" in
  ignore
    (Sched.spawn s (fun () ->
         check "first try" true (Smutex.try_lock m);
         check "second try fails" false (Smutex.try_lock m);
         Smutex.unlock m));
  ignore (Sched.run s)

let test_mutex_deadlock_cycle () =
  let s = Sched.create () in
  let a = Smutex.create "a" and b = Smutex.create "b" in
  ignore
    (Sched.spawn ~name:"t1" s (fun () ->
         Smutex.lock a;
         Sched.sleep (Time.ms 5);
         Smutex.lock b));
  ignore
    (Sched.spawn ~name:"t2" s (fun () ->
         Smutex.lock b;
         Sched.sleep (Time.ms 5);
         Smutex.lock a));
  match Sched.run s with
  | Sched.Deadlock tasks -> check_int "both stuck" 2 (List.length tasks)
  | _ -> Alcotest.fail "expected a lock cycle deadlock"

(* --- channel --- *)

let test_channel_fifo () =
  let s = Sched.create () in
  let ch = Channel.create "ch" in
  let got = ref [] in
  ignore
    (Sched.spawn s (fun () ->
         for i = 1 to 5 do
           Channel.send ch i
         done));
  ignore
    (Sched.spawn s (fun () ->
         for _ = 1 to 5 do
           got := Channel.recv ch :: !got
         done));
  ignore (Sched.run s);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !got)

let test_channel_capacity_blocks_sender () =
  let s = Sched.create () in
  let ch = Channel.create ~capacity:2 "ch" in
  let sent = ref 0 in
  ignore
    (Sched.spawn ~daemon:true s (fun () ->
         for i = 1 to 5 do
           Channel.send ch i;
           sent := i
         done));
  ignore (Sched.run ~until:(Time.ms 10) s);
  check_int "sender blocked at capacity" 2 !sent;
  ignore
    (Sched.spawn ~daemon:true s (fun () ->
         for _ = 1 to 5 do
           ignore (Channel.recv ch)
         done));
  ignore (Sched.run ~until:(Time.ms 20) s);
  check_int "drained" 5 !sent

let test_channel_recv_timeout () =
  let s = Sched.create () in
  let ch : int Channel.t = Channel.create "ch" in
  let got = ref (Some 0) in
  ignore
    (Sched.spawn s (fun () ->
         got := Channel.recv_timeout ch ~timeout:(Time.ms 15)));
  ignore (Sched.run s);
  check "timed out empty" true (!got = None)

let test_channel_try_ops_and_stats () =
  let s = Sched.create () in
  let ch = Channel.create ~capacity:1 "ch" in
  ignore
    (Sched.spawn s (fun () ->
         check "try_send ok" true (Channel.try_send ch 1);
         check "try_send full" false (Channel.try_send ch 2);
         check_int "length" 1 (Channel.length ch);
         check "try_recv" true (Channel.try_recv ch = Some 1);
         check "try_recv empty" true (Channel.try_recv ch = None);
         let sent, received = Channel.stats ch in
         check_int "sent" 1 sent;
         check_int "received" 1 received));
  ignore (Sched.run s)

(* The suspend reasons of channel and cond waits: built on first wait, with
   the same bytes they always had. *)
let test_channel_wait_reasons () =
  let s = Sched.create () in
  let ch : int Channel.t = Channel.create "ch" in
  let full = Channel.create ~capacity:1 "full" in
  let c = Cond.create "c" in
  let recv = Sched.spawn ~name:"recv" s (fun () -> ignore (Channel.recv ch)) in
  let timed =
    Sched.spawn ~name:"timed" s (fun () ->
        ignore (Channel.recv_timeout ch ~timeout:(Time.sec 1)))
  in
  let send =
    Sched.spawn ~name:"send" s (fun () ->
        Channel.send full 1;
        Channel.send full 2)
  in
  let wait = Sched.spawn ~name:"wait" s (fun () -> Cond.wait c) in
  ignore (Sched.run ~until:(Time.ms 1) s);
  Alcotest.(check (list string)) "blocked on"
    [
      "cond chan ch not_empty";
      "cond chan ch not_empty (timed)";
      "cond chan full not_full";
      "cond c";
    ]
    (List.map Sched.task_blocked_on [ recv; timed; send; wait ]);
  Alcotest.(check string) "cond name" "c" (Cond.name c)

let test_cond_waiter_count () =
  let s = Sched.create () in
  let c = Cond.create "c" in
  for _ = 1 to 3 do
    ignore (Sched.spawn ~daemon:true s (fun () -> Cond.wait c))
  done;
  ignore (Sched.run ~until:(Time.ms 5) s);
  check_int "three waiting" 3 (Cond.waiter_count c)

let test_channel_close () =
  let s = Sched.create () in
  let ch : int Channel.t = Channel.create "ch" in
  let outcome = ref "" in
  ignore
    (Sched.spawn s (fun () ->
         match Channel.recv ch with
         | _ -> outcome := "value"
         | exception Channel.Closed _ -> outcome := "closed"));
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep (Time.ms 1);
         Channel.close ch));
  ignore (Sched.run s);
  check_str "closed" "closed" !outcome

(* --- trace --- *)

let test_trace_records_lifecycle () =
  let s = Sched.create () in
  let tr = Sched.trace s in
  ignore
    (Sched.spawn ~name:"traced" s (fun () ->
         Sched.sleep (Time.ms 5);
         Sched.sleep (Time.ms 5)));
  ignore (Sched.run s);
  let events = Trace.recent tr 100 in
  let kinds =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.Trace.task_name = "traced" then Some e.Trace.kind else None)
      events
  in
  (match kinds with
  | Trace.Spawned
    :: Trace.Blocked _ :: Trace.Resumed
    :: Trace.Blocked _ :: Trace.Resumed
    :: [ Trace.Finished "exited" ] ->
      ()
  | _ -> Alcotest.failf "unexpected lifecycle (%d events)" (List.length kinds));
  check "chronological" true
    (let rec mono = function
       | (a : Trace.event) :: (b :: _ as rest) ->
           a.Trace.at <= b.Trace.at && mono rest
       | [ _ ] | [] -> true
     in
     mono events)

(* A small ring driven by pushes (op or scheduler events), cursor reads
   and cursor registrations (at most 3). Every cursor must see every op
   event pushed after it registered exactly once, in order, whether it
   drained itself or the ring drained it before an overwrite; and the ring
   must keep exactly the newest [capacity] events for [recent]. Event [n]
   is stamped [at = n]. *)
type ring_step = Push_op of int | Push_sched | Read of int | Register

let ring_loses_nothing (capacity, steps) =
  let tr = Trace.create ~capacity in
  let n = ref 0 and pushed = ref [] (* newest first *) in
  let cursors = ref [] (* (cursor, seen, owed), oldest first, lists newest first *) in
  let ok = ref true in
  let read (c, seen, owed) =
    Trace.drain c;
    if !seen <> !owed then ok := false
  in
  let push kind =
    incr n;
    Trace.record tr ~at:(Int64.of_int !n) ~task_id:!n
      ~task_name:(Fmt.str "t%d" !n) kind;
    pushed := !n :: !pushed
  in
  List.iter
    (function
      | Push_op k ->
          let op = "disk_write:d:x" and node = "n" and func = "f" in
          push
            (match k with
            | 0 -> Trace.Op_start { op; node; func }
            | 1 -> Trace.Op_end { op; node; func; dur = 1L }
            | _ -> Trace.Op_fail { op; node; func; err = "e" });
          List.iter (fun (_, _, owed) -> owed := !n :: !owed) !cursors
      | Push_sched -> push Trace.Spawned
      | Read i -> (
          match !cursors with
          | [] -> ()
          | cs -> read (List.nth cs (i mod List.length cs)))
      | Register ->
          if List.length !cursors < 3 then begin
            let seen = ref [] in
            let c =
              Trace.cursor tr
                (fun _ ~at ~task_id:_ ~op:_ ~node:_ ~func:_ ~dur:_ ~note:_ ->
                  seen := at :: !seen)
            in
            cursors := !cursors @ [ (c, seen, ref []) ]
          end)
    steps;
  List.iter read !cursors;
  let kept = List.filteri (fun i _ -> i < capacity) !pushed in
  !ok
  && Trace.total tr = !n
  && List.map (fun (e : Trace.event) -> Int64.to_int e.Trace.at)
       (Trace.recent tr max_int)
     = List.rev kept

(* An 8-slot ring with no cursor after 40 scheduler events (20 spawns and
   exits) keeps the newest 8. *)
let test_trace_ring_bounds () =
  check "newest 8 of 40 kept" true
    (ring_loses_nothing (8, List.init 40 (fun _ -> Push_sched)))

let prop_ring_loses_nothing =
  let gen =
    QCheck.Gen.(
      pair (int_range 1 8)
        (list_size (int_range 0 60)
           (frequency
              [
                (6, map (fun k -> Push_op k) (int_bound 2));
                (2, return Push_sched);
                (2, map (fun i -> Read i) (int_bound 2));
                (1, return Register);
              ])))
  in
  let print (capacity, steps) =
    Fmt.str "capacity %d: %s" capacity
      (String.concat " "
         (List.map
            (function
              | Push_op k -> Fmt.str "op%d" k
              | Push_sched -> "s"
              | Read i -> Fmt.str "r%d" i
              | Register -> "C")
            steps))
  in
  QCheck.Test.make ~name:"cursors lose nothing" ~count:1000
    (QCheck.make ~print gen) ring_loses_nothing

let () =
  Alcotest.run "wd_sim"
    [
      ( "heap",
        [
          Alcotest.test_case "time order" `Quick test_heap_order;
          Alcotest.test_case "fifo ties" `Quick test_heap_ties_fifo;
          Alcotest.test_case "growth" `Quick test_heap_grow;
          Alcotest.test_case "keys at and above 2^62" `Quick test_heap_huge_keys;
          Alcotest.test_case "fifo among many ties" `Quick
            test_heap_fifo_many_ties;
          Alcotest.test_case "push/pop_min allocate nothing" `Quick
            test_heap_no_alloc;
          QCheck_alcotest.to_alcotest prop_heap_sorted;
          Alcotest.test_case "push_lane/pop_min allocate nothing" `Quick
            test_lane_no_alloc;
          QCheck_alcotest.to_alcotest prop_lanes_match_model;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "choice/shuffle/range" `Quick test_rng_choice_and_shuffle;
          QCheck_alcotest.to_alcotest prop_rng_exponential_positive;
        ] );
      ( "time",
        [
          Alcotest.test_case "units and pp" `Quick test_time_units;
          Alcotest.test_case "arithmetic" `Quick test_time_arithmetic;
        ] );
      ( "sched",
        [
          Alcotest.test_case "time order" `Quick test_sched_runs_tasks_in_time_order;
          Alcotest.test_case "virtual time" `Quick test_sched_virtual_time;
          Alcotest.test_case "yield interleaves" `Quick test_sched_yield_interleaves;
          Alcotest.test_case "join" `Quick test_sched_join;
          Alcotest.test_case "kill" `Quick test_sched_kill;
          Alcotest.test_case "kill self" `Quick test_sched_kill_self;
          Alcotest.test_case "failure status" `Quick test_sched_failure_status;
          Alcotest.test_case "timeout_join ok" `Quick test_sched_timeout_join_completes;
          Alcotest.test_case "timeout_join timeout" `Quick
            test_sched_timeout_join_times_out;
          Alcotest.test_case "deadlock detection" `Quick test_sched_deadlock_detection;
          Alcotest.test_case "daemon exit" `Quick test_sched_daemon_does_not_block_exit;
          Alcotest.test_case "resumable run" `Quick test_sched_run_until_resumable;
          Alcotest.test_case "stats" `Quick test_sched_stats;
          Alcotest.test_case "kill ready task" `Quick test_sched_kill_ready_task;
          Alcotest.test_case "self identity" `Quick test_sched_self_identity;
          Alcotest.test_case "runner ok/timeout/exn/reuse" `Quick
            test_runner_ok_timeout_exn;
          Alcotest.test_case "runner matches timeout_join" `Quick
            test_runner_matches_timeout_join;
          QCheck_alcotest.to_alcotest prop_sched_deterministic;
          Alcotest.test_case "deadlock list order" `Quick test_sched_deadlock_order;
          Alcotest.test_case "finished tasks collectable" `Quick
            test_sched_finished_tasks_collectable;
        ] );
      ( "sleep",
        [
          Alcotest.test_case "fast path taken on an uncontended loop" `Quick
            test_sleep_fast_path_taken;
          QCheck_alcotest.to_alcotest prop_sleep_fast_path_invisible;
        ] );
      ( "site",
        [
          Alcotest.test_case "concurrent interning" `Quick
            test_site_concurrent_interning;
          QCheck_alcotest.to_alcotest prop_site_intern_functional;
          QCheck_alcotest.to_alcotest prop_site_roundtrip;
        ] );
      ( "cond",
        [
          Alcotest.test_case "signal one" `Quick test_cond_signal_wakes_one;
          Alcotest.test_case "broadcast all" `Quick test_cond_broadcast_wakes_all;
          Alcotest.test_case "await timeout" `Quick test_cond_await_timeout;
          Alcotest.test_case "waiter count" `Quick test_cond_waiter_count;
        ] );
      ( "mutex",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_mutex_mutual_exclusion;
          Alcotest.test_case "release on exception" `Quick
            test_mutex_released_on_exception;
          Alcotest.test_case "try_lock" `Quick test_mutex_try_lock;
          Alcotest.test_case "deadlock cycle" `Quick test_mutex_deadlock_cycle;
        ] );
      ( "trace",
        [
          Alcotest.test_case "lifecycle" `Quick test_trace_records_lifecycle;
          Alcotest.test_case "ring bounds" `Quick test_trace_ring_bounds;
          QCheck_alcotest.to_alcotest prop_ring_loses_nothing;
        ] );
      ( "channel",
        [
          Alcotest.test_case "fifo" `Quick test_channel_fifo;
          Alcotest.test_case "capacity blocks" `Quick
            test_channel_capacity_blocks_sender;
          Alcotest.test_case "recv timeout" `Quick test_channel_recv_timeout;
          Alcotest.test_case "try ops and stats" `Quick test_channel_try_ops_and_stats;
          Alcotest.test_case "close" `Quick test_channel_close;
          Alcotest.test_case "wait reasons" `Quick test_channel_wait_reasons;
        ] );
    ]
