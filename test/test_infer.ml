(* Trace-inferred checkers: miner determinism, synthesizer behaviour on
   crafted observations, monitor/checker evaluation, and the end-to-end
   race — an inferred-only world detecting a catalog fault with zero
   fault-free false positives, including the E20 long-tail kvs-deadlock
   world the mimic generation honestly misses. *)

module Trace = Wd_sim.Trace
module Mine = Wd_infer.Mine
module Synth = Wd_infer.Synth
module Monitor = Wd_infer.Monitor
module Checkers = Wd_infer.Checkers
module Campaign = Wd_harness.Campaign
module Inference = Wd_harness.Inference
module Systems = Wd_harness.Systems

let ms = Wd_sim.Time.ms
let sec = Wd_sim.Time.sec

(* --- Trace cursors ------------------------------------------------------ *)

(* A cursor on a 4-slot ring reads only what was pushed after it
   registered, skips scheduler events, and loses nothing when more than
   the ring's capacity arrives between two of its reads. A fold that
   pushes trips an assertion. *)
let test_trace_since () =
  let t = Trace.create ~capacity:4 in
  let ev i = Trace.record t ~at:(Int64.of_int i) ~task_id:i ~task_name:"t"
      (Trace.Op_start { op = "disk_read:d:x"; node = "n"; func = "f" }) in
  ev 0;
  let seen = ref [] in
  let c =
    Trace.cursor t (fun _ ~at ~task_id:_ ~op:_ ~node:_ ~func:_ ~dur:_ ~note:_ ->
        seen := at :: !seen)
  in
  let read () =
    Trace.drain c;
    let got = List.rev !seen in
    seen := [];
    got
  in
  ev 1; ev 2;
  Alcotest.(check (list int)) "two events" [ 1; 2 ] (read ());
  Alcotest.(check (list int)) "nothing new" [] (read ());
  for i = 3 to 11 do ev i done;
  Alcotest.(check (list int)) "drained before each overwrite"
    (List.init 9 (fun i -> i + 3)) (read ());
  Trace.record t ~at:12L ~task_id:12 ~task_name:"t" Trace.Resumed;
  Alcotest.(check (list int)) "scheduler events skipped" [] (read ());
  Alcotest.(check (list int64)) "ring keeps the newest 4" [ 9L; 10L; 11L; 12L ]
    (List.map (fun (e : Trace.event) -> e.Trace.at) (Trace.recent t 10));
  let pushing =
    Trace.cursor t (fun _ ~at:_ ~task_id:_ ~op:_ ~node:_ ~func:_ ~dur:_ ~note:_ ->
        Trace.record t ~at:13L ~task_id:13 ~task_name:"t" Trace.Resumed)
  in
  ev 13;
  match Trace.drain pushing with
  | exception Assert_failure _ -> ()
  | () -> Alcotest.fail "a fold that pushes must be caught"

(* --- interpreter emission ---------------------------------------------- *)

(* A mining run on a real system must observe disk/net/sync keys, and the
   engine must emit the same event stream as the reference tree-walker. *)
let events_of_run () =
  let ro =
    Inference.mine_run ~warmup:(sec 2) ~observe:(sec 4) ~seed:7 "zkmini"
  in
  let acc = ref [] in
  Mine.iter_ops ro.Mine.ro_ops
    (fun tag ~at ~task_id ~op ~node ~func ~dur ~note ->
      let op = Wd_sim.Site.str op
      and node = Wd_sim.Site.str node
      and func = Wd_sim.Site.str func in
      let kind =
        match tag with
        | Trace.Start -> Trace.Op_start { op; node; func }
        | Trace.End -> Trace.Op_end { op; node; func; dur = Int64.of_int dur }
        | Trace.Fail -> Trace.Op_fail { op; node; func; err = note }
      in
      acc := (Int64.of_int at, task_id, Trace.kind_name kind, func) :: !acc);
  List.rev !acc

let test_emission () =
  let compiled = events_of_run () in
  Alcotest.(check bool) "events observed" true (List.length compiled > 100);
  let kinds = List.map (fun (_, _, k, _) -> k) compiled in
  let has prefix =
    List.exists
      (fun k ->
        String.length k >= String.length prefix
        && String.sub k 0 (String.length prefix) = prefix)
      kinds
  in
  Alcotest.(check bool) "disk ops traced" true (has "op-end disk_write:");
  Alcotest.(check bool) "sync traced" true (has "op-end sync:");
  let walked = Wd_ir.Interp.Reference.within events_of_run in
  Alcotest.(check bool) "engine emits as the reference" true (compiled = walked)

let test_mining_deterministic () =
  let one () =
    let ro =
      Inference.mine_run ~warmup:(sec 2) ~observe:(sec 4) ~seed:11 "cstore"
    in
    let obs = Mine.aggregate [ ro ] in
    let m =
      Synth.synthesize ~system:"cstore"
        ~locate:(Inference.locate_in (Wd_targets.Target.program "cstore"))
        obs
    in
    Synth.digest m
  in
  Alcotest.(check string) "same seed, same model" (one ()) (one ())

(* --- synthesizer thresholds on crafted observations -------------------- *)

let obs_event at task kind = { Trace.at; task_id = task; task_name = "w"; kind }

let start_ at task op = obs_event at task (Trace.Op_start { op; node = "n"; func = "f" })
let end_ at task op dur = obs_event at task (Trace.Op_end { op; node = "n"; func = "f"; dur })

let steady_run ~n ~period ~dur op seed =
  let events = ref [] in
  for i = 0 to n - 1 do
    let t = Int64.mul (Int64.of_int i) period in
    events := end_ (Int64.add t dur) 1 op dur :: start_ t 1 op :: !events
  done;
  { Mine.ro_id = Fmt.str "run%d" seed; ro_seed = seed; ro_span = Int64.mul (Int64.of_int n) period;
    ro_ops = Mine.ops_of_events (List.rev !events) }

let test_synth_thresholds () =
  let op = "disk_write:d:seg/" in
  let runs =
    List.map (steady_run ~n:40 ~period:(ms 200) ~dur:(ms 2) op) [ 1; 2; 3 ]
  in
  let m = Synth.synthesize ~system:"t" (Mine.aggregate runs) in
  let fams = Synth.family_counts m in
  Alcotest.(check (option int)) "envelope" (Some 1) (List.assoc_opt "envelope" fams);
  Alcotest.(check (option int)) "gap" (Some 1) (List.assoc_opt "gap" fams);
  Alcotest.(check (option int)) "never_fail" (Some 1) (List.assoc_opt "never_fail" fams);
  (* under-supported: 2 runs < min_runs *)
  let m2 =
    Synth.synthesize ~system:"t"
      (Mine.aggregate
         (List.map (steady_run ~n:40 ~period:(ms 200) ~dur:(ms 2) op) [ 1; 2 ]))
  in
  Alcotest.(check int) "2 runs synthesize nothing" 0 (List.length m2.Synth.m_invariants);
  (* rare key: no gap/envelope *)
  let m3 =
    Synth.synthesize ~system:"t"
      (Mine.aggregate (List.map (steady_run ~n:5 ~period:(sec 2) ~dur:(ms 2) op) [ 1; 2; 3 ]))
  in
  Alcotest.(check int) "5 samples is coincidence" 0 (List.length m3.Synth.m_invariants);
  (* an envelope deadline respects the safety factor *)
  List.iter
    (fun (i : Synth.invariant) ->
      match i.Synth.ibody with
      | Synth.Envelope { deadline; _ } ->
          Alcotest.(check bool) "deadline floor" true (deadline >= sec 2)
      | _ -> ())
    m.Synth.m_invariants

let test_synth_ordering () =
  let a = "disk_read:d:boot/" and b = "disk_write:d:log/" in
  let run seed =
    let events =
      [
        start_ 0L 1 a; end_ (ms 1) 1 a (ms 1);
        start_ (ms 10) 1 b; end_ (ms 11) 1 b (ms 1);
      ]
      @ List.concat
          (List.init 40 (fun i ->
               let t = Int64.add (ms 20) (Int64.mul (Int64.of_int i) (ms 100)) in
               [ start_ t 1 b; end_ (Int64.add t (ms 1)) 1 b (ms 1) ]))
      @ List.concat
          (List.init 30 (fun i ->
               let t = Int64.add (ms 25) (Int64.mul (Int64.of_int i) (ms 130)) in
               [ start_ t 2 a; end_ (Int64.add t (ms 1)) 2 a (ms 1) ]))
    in
    { Mine.ro_id = Fmt.str "r%d" seed; ro_seed = seed; ro_span = sec 5;
      ro_ops = Mine.ops_of_events events }
  in
  let m = Synth.synthesize ~system:"t" (Mine.aggregate [ run 1; run 2; run 3 ]) in
  let precedes =
    List.filter_map
      (fun (i : Synth.invariant) ->
        match i.Synth.ibody with
        | Synth.Precedes { first } -> Some (first, i.Synth.ikey)
        | _ -> None)
      m.Synth.m_invariants
  in
  Alcotest.(check (list (pair string string))) "a precedes b" [ (a, b) ] precedes

(* --- monitor + checker evaluation -------------------------------------- *)

let test_monitor_checkers () =
  let sched = Wd_sim.Sched.create ~seed:1 () in
  let monitor = Monitor.create sched in
  let trace = Wd_sim.Sched.trace sched in
  let op = "disk_write:d:seg/" in
  (* a completed op then one that hangs in flight *)
  Trace.record trace ~at:(ms 100) ~task_id:1 ~task_name:"w"
    (Trace.Op_start { op; node = "n"; func = "writer" });
  Trace.record trace ~at:(ms 102) ~task_id:1 ~task_name:"w"
    (Trace.Op_end { op; node = "n"; func = "writer"; dur = ms 2 });
  Trace.record trace ~at:(ms 200) ~task_id:1 ~task_name:"w"
    (Trace.Op_start { op; node = "n"; func = "writer" });
  Monitor.drain monitor;
  let inv deadline =
    {
      Synth.ikey = op;
      ibody = Synth.Envelope { p99 = ms 2; deadline };
      isupport = 100;
      iruns = 3;
      iloc = None;
    }
  in
  (* not yet overdue at t=1s with a 2s deadline *)
  Alcotest.(check bool) "within deadline" true
    (Checkers.eval monitor ~now:(sec 1) ~id:"inferred:envelope:t" (inv (sec 2))
     = None);
  (* overdue at t=3s *)
  (match Checkers.eval monitor ~now:(sec 3) ~id:"inferred:envelope:t" (inv (sec 2)) with
  | Some r ->
      Alcotest.(check bool) "hang fkind" true
        (r.Wd_watchdog.Report.fkind = Wd_watchdog.Report.Hang)
  | None -> Alcotest.fail "expected an overdue-hang report");
  (* gap: silence beyond budget *)
  let gap =
    { Synth.ikey = op; ibody = Synth.Gap { max_gap = ms 100; budget = sec 5 };
      isupport = 100; iruns = 3; iloc = None }
  in
  Alcotest.(check bool) "silent but within budget" true
    (Checkers.eval monitor ~now:(sec 5) ~id:"inferred:gap:t" gap = None);
  Alcotest.(check bool) "silence violation" true
    (Checkers.eval monitor ~now:(sec 6) ~id:"inferred:gap:t" gap <> None);
  (* never_fail *)
  Trace.record trace ~at:(sec 7) ~task_id:1 ~task_name:"w"
    (Trace.Op_fail { op; node = "n"; func = "writer"; err = "io_error" });
  Monitor.drain monitor;
  let nf =
    { Synth.ikey = op; ibody = Synth.Never_fail; isupport = 100; iruns = 3;
      iloc = None }
  in
  (match Checkers.eval monitor ~now:(sec 8) ~id:"inferred:never_fail:t" nf with
  | Some r ->
      Alcotest.(check bool) "error fkind" true
        (match r.Wd_watchdog.Report.fkind with
        | Wd_watchdog.Report.Error_sig _ -> true
        | _ -> false)
  | None -> Alcotest.fail "expected a never-fail report")

(* --- differentials against the boxed-list consumers ------------------- *)

(* The string-keyed monitor fold over boxed events, kept as the oracle for
   [Monitor.drain]. *)
module Old_monitor = struct
  type t = {
    trace : Trace.t;
    mutable cursor : int;
    keys : (string, Monitor.key_state) Hashtbl.t;
    overlaps : (string * string, int64) Hashtbl.t;
  }

  let create trace =
    { trace; cursor = Trace.total trace; keys = Hashtbl.create 64;
      overlaps = Hashtbl.create 16 }

  let state t key =
    match Hashtbl.find_opt t.keys key with
    | Some st -> st
    | None ->
        let st =
          { Monitor.st_started = 0; st_completed = 0; st_failed = 0;
            st_first_err = ""; st_last_start = -1L; st_worst = 0L;
            st_worst_at = 0L; st_first_seen = -1L; st_inflight = [] }
        in
        Hashtbl.add t.keys key st;
        st

  (* Every event since the last drain; the stream never outruns the
     scheduler's 2^16-slot ring. *)
  let drain t =
    let total = Trace.total t.trace in
    let events = Trace.recent t.trace (total - t.cursor) in
    t.cursor <- total;
    List.iter
      (fun (e : Trace.event) ->
        let open Monitor in
        match e.Trace.kind with
        | Trace.Op_start { op; func; _ } ->
            let st = state t op in
            st.st_started <- st.st_started + 1;
            st.st_last_start <- e.Trace.at;
            if st.st_first_seen < 0L then st.st_first_seen <- e.Trace.at;
            let tgt = Mine.target_of_key op in
            Hashtbl.iter
              (fun other st' ->
                if
                  (not (String.equal other op))
                  && String.equal (Mine.target_of_key other) tgt
                  && List.exists (fun (task, _, _) -> task <> e.Trace.task_id)
                       st'.st_inflight
                then
                  let pair = if other < op then (other, op) else (op, other) in
                  if not (Hashtbl.mem t.overlaps pair) then
                    Hashtbl.add t.overlaps pair e.Trace.at)
              t.keys;
            st.st_inflight <-
              (e.Trace.task_id, e.Trace.at, func) :: st.st_inflight
        | Trace.Op_end { op; dur; _ } ->
            let st = state t op in
            st.st_completed <- st.st_completed + 1;
            st.st_inflight <-
              List.filter (fun (task, _, _) -> task <> e.Trace.task_id)
                st.st_inflight;
            if dur > st.st_worst then begin
              st.st_worst <- dur;
              st.st_worst_at <- e.Trace.at
            end
        | Trace.Op_fail { op; err; _ } ->
            let st = state t op in
            st.st_failed <- st.st_failed + 1;
            if st.st_first_err = "" then st.st_first_err <- err;
            st.st_inflight <-
              List.filter (fun (task, _, _) -> task <> e.Trace.task_id)
                st.st_inflight
        | _ -> ())
      events
end

(* The string-keyed [Mine.aggregate] over boxed events, kept as its
   oracle. *)
let old_aggregate (runs : Trace.event list list) : Mine.observations =
  let target_of_key = Mine.target_of_key in
  let is_sync_key key = String.length key >= 5 && String.sub key 0 5 = "sync:" in
  let inter a b = List.filter (fun x -> List.mem x b) a in
  let keys = Hashtbl.create 64 and overlaps = Hashtbl.create 16 in
  let acc_of key func =
    match Hashtbl.find_opt keys key with
    | Some a -> a
    | None ->
        (* runs, count, fails, durs, max_gap, func, last_run, locks *)
        let a = (ref 0, ref 0, ref 0, ref [], ref 0L, ref func, ref (-1), ref None) in
        Hashtbl.add keys key a;
        a
  in
  let orders = ref [] and events = ref 0 in
  List.iteri
    (fun run_idx evs ->
      events := !events + List.length evs;
      let first_order = ref [] in
      let seen_first = Hashtbl.create 64 and last_start = Hashtbl.create 64 in
      let inflight : (int, string list) Hashtbl.t = Hashtbl.create 8 in
      let stack_of task =
        Option.value ~default:[] (Hashtbl.find_opt inflight task)
      in
      let pop task op =
        let rec drop = function
          | [] -> []
          | x :: rest -> if String.equal x op then rest else x :: drop rest
        in
        Hashtbl.replace inflight task (drop (stack_of task))
      in
      let run_end =
        match List.rev evs with [] -> 0L | last :: _ -> last.Trace.at
      in
      let bump_gap key gap =
        let _, _, _, _, max_gap, _, _, _ = acc_of key "" in
        if gap > !max_gap then max_gap := gap
      in
      List.iter
        (fun (e : Trace.event) ->
          match e.Trace.kind with
          | Trace.Op_start { op; func; _ } ->
              let (_, _, _, _, _, a_func, _, a_locks) = acc_of op func in
              if !a_func = "" then a_func := func;
              if not (Hashtbl.mem seen_first op) then begin
                Hashtbl.add seen_first op ();
                first_order := op :: !first_order
              end;
              (match Hashtbl.find_opt last_start op with
              | Some prev -> bump_gap op (Int64.sub e.Trace.at prev)
              | None -> ());
              Hashtbl.replace last_start op e.Trace.at;
              let stack = stack_of e.Trace.task_id in
              let held = List.sort compare (List.filter is_sync_key stack) in
              a_locks :=
                Some (match !a_locks with None -> held | Some l -> inter l held);
              let tgt = target_of_key op in
              Hashtbl.iter
                (fun task others ->
                  if task <> e.Trace.task_id then
                    List.iter
                      (fun other ->
                        if other <> op && String.equal (target_of_key other) tgt
                        then
                          Hashtbl.replace overlaps
                            (if other < op then (other, op) else (op, other))
                            ())
                      others)
                inflight;
              Hashtbl.replace inflight e.Trace.task_id (op :: stack)
          | Trace.Op_end { op; dur; _ } ->
              let (runs, count, _, durs, _, _, last_run, _) = acc_of op "" in
              incr count;
              durs := dur :: !durs;
              if !last_run <> run_idx then begin
                last_run := run_idx;
                incr runs
              end;
              pop e.Trace.task_id op
          | Trace.Op_fail { op; _ } ->
              let (_, _, fails, _, _, _, _, _) = acc_of op "" in
              incr fails;
              pop e.Trace.task_id op
          | _ -> ())
        evs;
      Hashtbl.iter (fun key last -> bump_gap key (Int64.sub run_end last)) last_start;
      orders := List.rev !first_order :: !orders)
    runs;
  let obs_keys =
    Hashtbl.fold
      (fun key (runs, count, fails, durs, max_gap, func, _, locks) l ->
        { Mine.ks_key = key; ks_target = target_of_key key; ks_runs = !runs;
          ks_count = !count; ks_fails = !fails;
          ks_durs =
            (let arr = Array.of_list !durs in
             Array.sort Int64.compare arr;
             arr);
          ks_max_gap = !max_gap; ks_func = !func;
          ks_locks = Option.value ~default:[] !locks }
        :: l)
      keys []
    |> List.sort (fun a b -> compare a.Mine.ks_key b.Mine.ks_key)
  in
  { Mine.obs_runs = List.length runs; obs_keys; obs_orders = List.rev !orders;
    obs_overlaps = Hashtbl.fold (fun p () l -> p :: l) overlaps [] |> List.sort compare;
    obs_events = !events }

(* Random op streams: a few tasks over keys on two disk targets, one net
   target and two locks, with nested sync sections, ends and fails of ops
   that may not be in flight, scheduler noise and ops on keys never seen
   before. [`Drain] marks a cut point. *)
let diff_keys =
  [| "disk_write:d:seg/"; "disk_read:d:seg/"; "disk_list:d:sst/";
     "disk_write:e:log/"; "net_send:n:peer"; "sync:d:lock-a"; "sync:d:lock-b";
     "sync:e:lock-c"; "weird-key" |]

let gen_stream =
  let open QCheck.Gen in
  let step =
    frequency
      [
        (1, return `Drain);
        (1, return `Noise);
        ( 12,
          map
            (fun (kind, task, key, (dt, dur)) -> `Op (kind, task, key, dt, dur))
            (quad (int_bound 9) (int_range 1 4)
               (int_bound (Array.length diff_keys - 1))
               (pair (int_bound 3) (int_bound 50))) );
      ]
  in
  list_size (int_range 0 120) step

let print_stream s =
  String.concat " "
    (List.map
       (function
         | `Drain -> "|"
         | `Noise -> "~"
         | `Op (k, task, key, dt, dur) ->
             Printf.sprintf "%d/%d/%d/+%d/%d" k task key dt dur)
       s)

(* Turn a stream into boxed events with nondecreasing times: kinds 0-4
   start, 5-7 end, 8 fail. *)
let events_of_stream stream =
  let now = ref 0 in
  List.filter_map
    (function
      | `Drain -> None
      | `Noise ->
          Some { Trace.at = Int64.of_int !now; task_id = 9; task_name = "bg";
                 kind = Trace.Resumed }
      | `Op (kind, task, key, dt, dur) ->
          now := !now + dt;
          let op = diff_keys.(key) and func = "f" ^ string_of_int task in
          let kind =
            if kind <= 4 then Trace.Op_start { op; node = "n"; func }
            else if kind <= 7 then
              Trace.Op_end { op; node = "n"; func; dur = Int64.of_int dur }
            else Trace.Op_fail { op; node = "n"; func; err = Printf.sprintf "e%d" dur }
          in
          Some { Trace.at = Int64.of_int !now; task_id = task; task_name = "w";
                 kind })
    stream

let prop_monitor_matches_boxed =
  QCheck.Test.make ~name:"drain equals the boxed oracle"
    ~count:300
    (QCheck.make ~print:print_stream gen_stream)
    (fun stream ->
      let sched = Wd_sim.Sched.create ~seed:1 () in
      let monitor = Monitor.create sched in
      let trace = Wd_sim.Sched.trace sched in
      let old = Old_monitor.create trace in
      let agree () =
        Monitor.drain monitor;
        Old_monitor.drain old;
        let keys = Array.to_list diff_keys in
        Monitor.keys_tracked monitor = Hashtbl.length old.Old_monitor.keys
        && List.for_all
             (fun k ->
               Monitor.view monitor k = Hashtbl.find_opt old.Old_monitor.keys k)
             keys
        && List.for_all
             (fun a ->
               List.for_all
                 (fun b ->
                   let pair = if a < b then (a, b) else (b, a) in
                   Monitor.overlapped_at monitor a b
                   = Hashtbl.find_opt old.Old_monitor.overlaps pair)
                 keys)
             keys
      in
      let ok = ref true in
      let events = ref (events_of_stream stream) in
      List.iter
        (function
          | `Drain -> if not (agree ()) then ok := false
          | `Noise | `Op _ -> (
              match !events with
              | (e : Trace.event) :: rest ->
                  events := rest;
                  Trace.record trace ~at:e.Trace.at ~task_id:e.Trace.task_id
                    ~task_name:e.Trace.task_name e.Trace.kind
              | [] -> assert false))
        stream;
      !ok && agree ())

let prop_aggregate_matches_boxed =
  QCheck.Test.make ~name:"aggregate equals the boxed oracle"
    ~count:300
    (QCheck.make
       ~print:(fun runs -> String.concat " || " (List.map print_stream runs))
       QCheck.Gen.(list_size (int_range 0 4) gen_stream))
    (fun streams ->
      let runs =
        List.mapi
          (fun i stream ->
            let events = events_of_stream stream in
            ( { Mine.ro_id = Fmt.str "r%d" i; ro_seed = i; ro_span = 0L;
                ro_ops = Mine.ops_of_events events },
              List.filter
                (fun (e : Trace.event) ->
                  match e.Trace.kind with
                  | Trace.Op_start _ | Trace.Op_end _ | Trace.Op_fail _ -> true
                  | _ -> false)
                events ))
          streams
      in
      Mine.aggregate (List.map fst runs) = old_aggregate (List.map snd runs))

let default_mined = lazy (Inference.mine_and_synth ())

(* The default mining pass, pinned: the model digest and op-event count
   E21 reports. *)
let test_default_mining_pinned () =
  let m = Lazy.force default_mined in
  Alcotest.(check string) "model digest" "c74a7ff8ad4501311f18b83e37b74d4d"
    m.Inference.md_digest;
  Alcotest.(check int) "op events" 527_494 m.Inference.md_events

(* --- two consumers on one ring under load ------------------------------ *)

(* cstore's client reads when i mod 3 = 2 and writes otherwise, on key
   i mod 128: nine reads, then one write. *)
let cs_request j =
  (3 * (j * 37 mod 128)) + if j mod 10 = 9 then j / 10 mod 2 else 2

(* cstore with its mimic and mined inferred checkers (the default model),
   open loop at 8,000 req/s, [cs-compaction-stuck] injected at 2 s. A
   counting cursor shares the scheduler's ring with the monitor. The load
   pushes far more events than the ring holds between checker ticks, so the
   ring drains both consumers before it overwrites anything: they must
   agree on every key's count, and the monitor, with its in-flight table
   intact, reports the stuck compaction's envelope first. *)
let test_two_consumers_under_load () =
  let model =
    Option.get (Inference.model_for (Lazy.force default_mined) "cstore")
  in
  let sched = Wd_sim.Sched.create ~seed:78 () in
  let reg = Wd_env.Faultreg.create () in
  let counts = Hashtbl.create 64 and seen = ref 0 in
  let counter =
    Trace.cursor (Wd_sim.Sched.trace sched)
      (fun _ ~at:_ ~task_id:_ ~op ~node:_ ~func:_ ~dur:_ ~note:_ ->
        incr seen;
        Hashtbl.replace counts op
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts op)))
  in
  let monitor = Monitor.create sched in
  let b = Systems.boot ~sched ~reg ~mode:Systems.Wd_generated "cstore" in
  let driver = b.Systems.b_driver in
  List.iter (Wd_watchdog.Driver.add_checker driver)
    (Checkers.compile ~model ~monitor ());
  let g =
    Wd_harness.Loadgen.spawn_open ~label:"cstore" ~sched ~rate_rps:8000
      ~max_inflight:512 ~requests:1_000_000_000
      ~op:(fun j -> b.Systems.b_client (cs_request j))
      ()
  in
  Wd_watchdog.Schedule.set_load_probe
    (Wd_watchdog.Driver.schedule driver)
    (fun () -> Wd_harness.Loadgen.inflight g);
  let run_to t = ignore (Wd_sim.Sched.run ~until:t sched) in
  run_to (sec 2);
  let inject_at = Wd_sim.Sched.now sched in
  ignore
    (Wd_faults.Catalog.inject reg
       (Wd_faults.Catalog.find "cs-compaction-stuck")
       ~at:inject_at);
  let first () =
    List.find_opt
      (fun (r : Wd_watchdog.Report.t) -> r.Wd_watchdog.Report.at >= inject_at)
      (Wd_watchdog.Driver.reports driver)
  in
  let deadline = Int64.add inject_at (sec 4) in
  let rec wait () =
    match first () with
    | Some r -> Some r
    | None when Wd_sim.Sched.now sched >= deadline -> None
    | None ->
        run_to (Int64.add (Wd_sim.Sched.now sched) (ms 100));
        wait ()
  in
  let found = wait () in
  Monitor.drain monitor;
  Trace.drain counter;
  Alcotest.(check bool) "the ring wrapped" true (!seen > 1 lsl 16);
  Alcotest.(check int) "same keys" (Hashtbl.length counts)
    (Monitor.keys_tracked monitor);
  let folded = ref 0 in
  Hashtbl.iter
    (fun op n ->
      match Monitor.view monitor (Wd_sim.Site.str op) with
      | Some st ->
          let m = st.Monitor.st_started + st.st_completed + st.st_failed in
          folded := !folded + m;
          if m <> n then
            Alcotest.failf "%s: monitor folded %d, counter saw %d"
              (Wd_sim.Site.str op) m n
      | None -> Alcotest.failf "%s: not tracked" (Wd_sim.Site.str op))
    counts;
  Alcotest.(check int) "monitor folded what the counter saw" !seen !folded;
  match found with
  | Some r ->
      Alcotest.(check string) "first report" "inferred:envelope:cstore"
        r.Wd_watchdog.Report.checker_id
  | None -> Alcotest.fail "no report within 4 s of the injection"

(* --- end-to-end: inferred-only race ------------------------------------ *)

let quick_mine system =
  let runs =
    List.map
      (fun seed ->
        ( system,
          Inference.mine_run ~warmup:(sec 4) ~observe:(sec 10) ~seed system ))
      [ 42; 1013; 2027 ]
  in
  let obs = Mine.aggregate (List.map snd runs) in
  Synth.synthesize ~system
    ~locate:(Inference.locate_in (Wd_targets.Target.program system))
    obs

let test_inferred_only_detects () =
  let model = quick_mine "zkmini" in
  Alcotest.(check bool) "invariants mined" true
    (List.length model.Synth.m_invariants > 0);
  let cfg =
    { Campaign.default_config with
      Campaign.mode = Wd_harness.Systems.Wd_none;
      observe = sec 20;
      infer = Some model }
  in
  let r = Campaign.run_scenario ~cfg "zk-2201" in
  let inferred = List.assoc "inferred" r.Campaign.r_outcomes in
  Alcotest.(check bool) "inferred-only detects zk-2201" true
    inferred.Campaign.o_detected;
  let mimic = List.assoc "mimic" r.Campaign.r_outcomes in
  Alcotest.(check bool) "no mimic family in Wd_none" false
    mimic.Campaign.o_detected

let test_inferred_fault_free_clean () =
  let model = quick_mine "zkmini" in
  (* a seed the miner never saw *)
  let cfg =
    { Campaign.default_config with
      Campaign.seed = 4242;
      observe = sec 20;
      infer = Some model }
  in
  let ff = Campaign.run_fault_free ~cfg "zkmini" in
  Alcotest.(check int) "0 inferred FPs on an unseen seed" 0
    (List.assoc "inferred" ff.Campaign.ff_fp)

(* The 1000-world E20 sweep's single honest miss, pinned: the kvs-deadlock
   world at seed 15233 under 8s/15s windows. Diagnosis: the AB/BA collision
   only wedges ~18s after the injection instant in that interleaving — 3s
   past the observe window — so no checker family can see it; the miss is a
   window long-tail, not a detector gap. Pinned as such: if a change makes
   the mimic generation detect within 15s, the diagnosis changed — re-run
   the sweep and update this pin. Widening the window to 30s flips the
   mimic outcome, and the inferred generation detects the same deadlock
   class on this world in an inferred-only (Wd_none) deployment. *)
let missed_world_cfg =
  { Campaign.default_config with
    Campaign.seed = 15233;
    warmup = sec 8;
    observe = sec 15 }

let test_e20_missed_world_inferred () =
  let r = Campaign.run_scenario ~cfg:missed_world_cfg "kvs-deadlock" in
  let mimic = List.assoc "mimic" r.Campaign.r_outcomes in
  Alcotest.(check bool) "mimic still misses the pinned world" false
    mimic.Campaign.o_detected;
  (* same world, 30s window: the wedge lands inside and the mimic catches
     it — evidence the pinned miss is a window artifact *)
  let wide = { missed_world_cfg with Campaign.observe = sec 30 } in
  let r = Campaign.run_scenario ~cfg:wide "kvs-deadlock" in
  let mimic = List.assoc "mimic" r.Campaign.r_outcomes in
  Alcotest.(check bool) "mimic catches it with a 30s window" true
    mimic.Campaign.o_detected;
  (* inferred-only deployment on the pinned seed: the liveness invariants
     (sync envelope / op gap) catch the wedge with no mimic help *)
  let model = quick_mine "kvs" in
  let cfg =
    { wide with
      Campaign.mode = Wd_harness.Systems.Wd_none;
      infer = Some model }
  in
  let r = Campaign.run_scenario ~cfg "kvs-deadlock" in
  let inferred = List.assoc "inferred" r.Campaign.r_outcomes in
  Alcotest.(check bool) "inferred-only catches the deadlock class" true
    inferred.Campaign.o_detected

let () =
  Alcotest.run "infer"
    [
      ( "trace",
        [
          Alcotest.test_case "since cursor" `Quick test_trace_since;
          Alcotest.test_case "interp emission" `Quick test_emission;
        ] );
      ( "mine+synth",
        [
          Alcotest.test_case "deterministic" `Quick test_mining_deterministic;
          Alcotest.test_case "support thresholds" `Quick test_synth_thresholds;
          Alcotest.test_case "ordering" `Quick test_synth_ordering;
          Alcotest.test_case "default mining pinned" `Quick
            test_default_mining_pinned;
          QCheck_alcotest.to_alcotest prop_aggregate_matches_boxed;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "checker eval" `Quick test_monitor_checkers;
          QCheck_alcotest.to_alcotest prop_monitor_matches_boxed;
          Alcotest.test_case "two consumers under load" `Quick
            test_two_consumers_under_load;
        ] );
      ( "race",
        [
          Alcotest.test_case "inferred-only detects" `Quick
            test_inferred_only_detects;
          Alcotest.test_case "fault-free clean" `Quick
            test_inferred_fault_free_clean;
          Alcotest.test_case "e20 pinned miss raced" `Quick
            test_e20_missed_world_inferred;
        ] );
    ]
