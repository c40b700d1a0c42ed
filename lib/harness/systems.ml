(* Per-target adapters: boot a system with its generated watchdog, baseline
   detectors (probe / signal / heartbeat / observer) and a client workload,
   exposing the uniform surface the campaign runner drives. *)

module Generate = Wd_autowatchdog.Generate
module Checker = Wd_watchdog.Checker
module Driver = Wd_watchdog.Driver

type watchdog_mode =
  | Wd_generated       (* full AutoWatchdog: mimic checkers + context sync *)
  | Wd_no_context      (* ablation: naive mimic checkers, no state sync *)
  | Wd_none            (* no intrinsic watchdog *)

type booted = {
  b_system : string;
  b_sched : Wd_sim.Sched.t;
  b_reg : Wd_env.Faultreg.t;
  b_generated : Generate.generated option;
  b_driver : Driver.t;
  b_heartbeat : Wd_detectors.Heartbeat.t;
  b_observer : Wd_detectors.Observer.t;
  b_workload : Wd_targets.Workload.stats;
  b_tasks : Wd_sim.Sched.task list;
  b_crash : unit -> unit;
  b_mem : Wd_env.Memory.t;
  b_res : Wd_ir.Runtime.resources;
  b_client : int -> [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ];
      (* one client request by index, for load generators; wider keyspace
         than the periodic background workload and no per-call formatting
         on the request path *)
}

(* Ablation checkers for the no-context mode: mimic the reduced unit but
   with pre-supplied synthetic arguments instead of synchronised state —
   exactly the naive construction §3.1 warns about. A disk unit whose
   operand is unknown verifies a guessed path, which is spurious when the
   main program never wrote it (in-memory mode, cold start). *)
let naive_checker_of_unit ~res (u : Wd_analysis.Reduction.unit_) =
  let disk_target =
    List.find_map
      (fun key ->
        match String.split_on_char ':' key with
        | ("disk_write" | "disk_append") :: target :: _ -> Some target
        | _ -> None)
      u.Wd_analysis.Reduction.keys
  in
  match disk_target with
  | None -> None
  | Some target ->
      let guessed_path =
        (* use a constant operand if the reduction kept one, else guess *)
        let rec const_path = function
          | Wd_ir.Ast.Const (Wd_ir.Ast.VStr s) :: _ -> Some s
          | _ :: rest -> const_path rest
          | [] -> None
        in
        let op_args =
          List.concat_map
            (fun st ->
              match st.Wd_ir.Ast.node with
              | Wd_ir.Ast.Op { args; _ } -> args
              | Wd_ir.Ast.Sync (_, body) ->
                  List.concat_map
                    (fun s ->
                      match s.Wd_ir.Ast.node with
                      | Wd_ir.Ast.Op { args; _ } -> args
                      | _ -> [])
                    body
              | _ -> [])
            u.Wd_analysis.Reduction.ufunc.Wd_ir.Ast.body
        in
        match const_path op_args with Some p -> p | None -> "seg/0"
      in
      let id = "naive:" ^ u.Wd_analysis.Reduction.unit_id in
      Some
        (Checker.make ~kind:Checker.Mimic ~period:(Wd_sim.Time.sec 1)
           ~timeout:(Wd_sim.Time.sec 6) ~id (fun ~now ->
             let disk = Wd_ir.Runtime.disk res target in
             match Wd_env.Disk.read disk ~path:guessed_path with
             | _ -> Checker.Pass
             | exception Wd_env.Disk.Io_error m ->
                 Checker.Fail
                   (Wd_watchdog.Report.make ~at:now ~checker_id:id
                      ~fkind:(Wd_watchdog.Report.Error_sig m)
                      ~loc:u.Wd_analysis.Reduction.anchor_loc ())))

let attach_watchdog ~mode ~sched ~driver ~res ~main g =
  match mode with
  | Wd_none -> ()
  | Wd_generated ->
      ignore
        (Generate.attach ~progress:(Wd_sim.Time.sec 20) g ~sched ~main
           ~driver)
  | Wd_no_context ->
      List.iter
        (fun u ->
          match naive_checker_of_unit ~res u with
          | Some c -> Driver.add_checker driver c
          | None -> ())
        g.Generate.units

let expect_str ~prefix = function
  | Wd_ir.Ast.VStr s -> String.starts_with ~prefix s
  | _ -> false

type result = [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ]

(* What one booted target contributes to the shared skeleton in [boot];
   the watchdog, observer, workload stats, driver start and crash closure
   are common to every target. Each target below maps a boot variant
   ([special]) to its program and to the function that boots it on the
   (maybe instrumented) program. *)
type parts = {
  res : Wd_ir.Runtime.resources;
  mem : Wd_env.Memory.t;
  main : Wd_ir.Interp.t;  (* the interpreter the watchdog attaches to *)
  checkers : Checker.t list;  (* baseline detectors, in registration order *)
  heartbeat : Wd_ir.Ast.value Wd_env.Net.t * string * string;
      (* net, monitored endpoint, heartbeat message prefix *)
  workload : string * int64 * (int -> result);  (* task name, period, op *)
  extra : (string * (unit -> unit)) option;
      (* a daemon spawned after the workload (the kvs burst) *)
  start : unit -> Wd_sim.Sched.task list;
  client : int -> result;
}

(* --- kvs --- *)

(* overload special: open-loop fire-and-forget bursts pile up the request
   queue without any fault — the paper's signal-accuracy counterexample *)
let kvs_burst (t : Wd_targets.Kvs.t) () =
  let inq = Wd_ir.Runtime.queue t.Wd_targets.Kvs.res Wd_targets.Kvs.request_queue in
  let i = ref 0 in
  while true do
    Wd_sim.Sched.sleep (Wd_sim.Time.sec 2);
    for _ = 1 to 2000 do
      incr i;
      ignore
        (Wd_sim.Channel.try_send inq
           (Wd_ir.Ast.VMap
              [
                ("op", Wd_ir.Ast.VStr "set");
                ("key", Wd_ir.Ast.VStr (Fmt.str "burst%04d" (!i mod 500)));
                ("value", Wd_ir.Ast.VStr (String.make 64 'x'));
                ("reply", Wd_ir.Ast.VStr "");
              ]))
    done
  done

let kvs special =
  let module K = Wd_targets.Kvs in
  ( K.program ~leak_bug:(special = Some "leak_bug")
      ~deadlock_bug:(special = Some "deadlock_bug") (),
    fun ~sched ~reg prog ->
      (* Smaller memory pool for the leak scenario so pressure builds
         within the observation window. *)
      let mem_capacity =
        if special = Some "leak_bug" then 48 * 1024 else 64 * 1024 * 1024
      in
      let t =
        K.boot ~in_memory:(special = Some "in_memory") ~mem_capacity ~sched
          ~reg ~prog ()
      in
      (* Bounded key space: build the 256 key strings once, not per
         request (payload strings stay per-request — they must be
         unique). *)
      let keys = Array.init 256 (fun k -> "lk" ^ string_of_int k) in
      {
        res = t.K.res;
        mem = t.K.mem;
        main = t.K.leader;
        checkers =
          [
            Wd_detectors.Probe.roundtrip ~id:"probe:kvs-rw"
              ~set:(fun () -> K.set t ~key:"__probe" ~value:"p1")
              ~get:(fun () -> K.get t ~key:"__probe")
              ~expect:(expect_str ~prefix:"val:p1");
            Wd_detectors.Signalmon.queue_depth ~id:"signal:kvs-queue"
              ~res:t.K.res ~queue:K.request_queue ~max_depth:64;
            Wd_detectors.Signalmon.mem_utilisation ~id:"signal:kvs-mem"
              ~mem:t.K.mem ~max_util:0.9;
            Wd_detectors.Signalmon.sleep_overshoot ~id:"signal:kvs-pause"
              ~mem:t.K.mem ~expected:(Wd_sim.Time.ms 50)
              ~tolerance:(Wd_sim.Time.ms 150);
          ];
        heartbeat = (t.K.net, K.monitor_node, "hb:kvs1");
        workload =
          ( "kvs-client",
            Wd_sim.Time.ms 40,
            fun i ->
              let key = Fmt.str "k%03d" (i mod 50) in
              match i mod 3 with
              | 0 -> K.set t ~key ~value:(Fmt.str "v%d" i)
              | 1 -> K.get t ~key
              | _ -> K.append t ~key ~value:"+" );
        extra =
          (if special = Some "burst" then Some ("kvs-burst", kvs_burst t)
           else None);
        start = (fun () -> K.start t);
        client =
          (fun i ->
            let key = keys.(i mod 256) in
            match i mod 3 with
            | 0 -> K.set t ~key ~value:("lv" ^ string_of_int i)
            | 1 -> K.get t ~key
            | _ -> K.append t ~key ~value:"+");
      } )

(* --- zkmini --- *)

let zk _ =
  let module Z = Wd_targets.Zkmini in
  ( Z.program (),
    fun ~sched ~reg prog ->
      let t = Z.boot ~sched ~reg ~prog () in
      let paths = Array.init 64 (fun k -> "/l" ^ string_of_int k) in
      {
        res = t.Z.res;
        mem = t.Z.mem;
        main = t.Z.leader;
        (* the paper's two blind baselines: admin `ruok` probe +
           heartbeats *)
        checkers =
          [
            Wd_detectors.Probe.make ~id:"probe:zk-ruok" (fun () ->
                match Z.ruok t with
                | `Ok v when expect_str ~prefix:"imok" v -> `Ok
                | `Ok _ -> `Fail "ruok: unexpected reply"
                | `Timeout -> `Fail "ruok timed out"
                | `Err m -> `Fail m);
            Wd_detectors.Probe.roundtrip ~id:"probe:zk-rw"
              ~set:(fun () -> Z.create t ~path:"/__probe" ~data:"p1")
              ~get:(fun () -> Z.get t ~path:"/__probe")
              ~expect:(expect_str ~prefix:"val:p1");
            Wd_detectors.Signalmon.queue_depth ~id:"signal:zk-syncq"
              ~res:t.Z.res ~queue:"zk.sync_q" ~max_depth:64;
            Wd_detectors.Signalmon.mem_utilisation ~id:"signal:zk-mem"
              ~mem:t.Z.mem ~max_util:0.9;
          ];
        heartbeat = (t.Z.net, Z.monitor_node, "ping:zkL");
        workload =
          ( "zk-client",
            Wd_sim.Time.ms 60,
            fun i ->
              let path = Fmt.str "/node%02d" (i mod 20) in
              if i mod 3 = 0 then Z.get t ~path
              else Z.create t ~path ~data:(Fmt.str "d%d" i) );
        extra = None;
        start = (fun () -> Z.start t);
        client =
          (fun i ->
            let path = paths.(i mod 64) in
            if i mod 3 = 0 then Z.get t ~path
            else Z.create t ~path ~data:("ld" ^ string_of_int i));
      } )

(* --- dfsmini --- *)

let dfs _ =
  let module D = Wd_targets.Dfsmini in
  ( D.program (),
    fun ~sched ~reg prog ->
      let t = D.boot ~sched ~reg ~prog () in
      let blkids = Array.init 128 (fun k -> "lb" ^ string_of_int k) in
      {
        res = t.D.res;
        mem = t.D.mem;
        main = t.D.dn;
        checkers =
          [
            Wd_detectors.Probe.make ~id:"probe:dfs-rw" (fun () ->
                match D.put_block t ~blkid:"__probe" ~data:"pdata" with
                | `Err m -> `Fail ("probe put failed: " ^ m)
                | `Timeout -> `Fail "probe put timed out"
                | `Ok _ -> (
                    match D.read_block_req t ~blkid:"__probe" with
                    | `Ok v when expect_str ~prefix:"pdata" v -> `Ok
                    | `Ok _ -> `Fail "probe read back wrong data"
                    | `Timeout -> `Fail "probe read timed out"
                    | `Err m -> `Fail m));
            Wd_detectors.Signalmon.queue_depth ~id:"signal:dfs-queue"
              ~res:t.D.res ~queue:D.request_queue ~max_depth:64;
            Wd_detectors.Signalmon.mem_utilisation ~id:"signal:dfs-mem"
              ~mem:t.D.mem ~max_util:0.9;
          ];
        heartbeat = (t.D.net, D.namenode, "hb:dn1");
        workload =
          ( "dfs-client",
            Wd_sim.Time.ms 80,
            fun i ->
              let blkid = Fmt.str "b%04d" i in
              if i mod 4 = 3 then
                D.read_block_req t ~blkid:(Fmt.str "b%04d" (max 0 (i - 3)))
              else D.put_block t ~blkid ~data:(Fmt.str "payload-%d" i) );
        extra = None;
        start = (fun () -> D.start t);
        client =
          (fun i ->
            let blkid = blkids.(i mod 128) in
            if i mod 4 = 3 then D.read_block_req t ~blkid
            else D.put_block t ~blkid ~data:("lp" ^ string_of_int i));
      } )

(* --- cstore --- *)

let cs special =
  let module C = Wd_targets.Cstore in
  ( C.program ~spin_bug:(special = Some "spin_bug") (),
    fun ~sched ~reg prog ->
      let t = C.boot ~sched ~reg ~prog () in
      let keys = Array.init 128 (fun k -> "lrow" ^ string_of_int k) in
      {
        res = t.C.res;
        mem = t.C.mem;
        main = t.C.main;
        checkers =
          [
            Wd_detectors.Probe.roundtrip ~id:"probe:cs-rw"
              ~set:(fun () -> C.write t ~key:"__probe" ~value:"p1")
              ~get:(fun () -> C.read t ~key:"__probe")
              ~expect:(expect_str ~prefix:"val:p1");
            Wd_detectors.Signalmon.queue_depth ~id:"signal:cs-queue"
              ~res:t.C.res ~queue:C.request_queue ~max_depth:64;
            Wd_detectors.Signalmon.mem_utilisation ~id:"signal:cs-mem"
              ~mem:t.C.mem ~max_util:0.9;
          ];
        heartbeat = (t.C.net, C.seed_node, "gossip:cs1");
        workload =
          ( "cs-client",
            Wd_sim.Time.ms 50,
            fun i ->
              let key = Fmt.str "row%03d" (i mod 40) in
              if i mod 3 = 2 then C.read t ~key
              else C.write t ~key ~value:(Fmt.str "cell%d" i) );
        extra = None;
        start = (fun () -> C.start t);
        client =
          (fun i ->
            let key = keys.(i mod 128) in
            if i mod 3 = 2 then C.read t ~key
            else C.write t ~key ~value:("lc" ^ string_of_int i));
      } )

(* --- mqbroker --- *)

let mq _ =
  let module M = Wd_targets.Mqbroker in
  ( M.program (),
    fun ~sched ~reg prog ->
      let t = M.boot ~sched ~reg ~prog () in
      {
        res = t.M.res;
        mem = t.M.mem;
        main = t.M.broker;
        checkers =
          [
            Wd_detectors.Probe.make ~id:"probe:mq-produce" (fun () ->
                match M.produce t ~data:"__probe" with
                | `Ok _ -> `Ok
                | `Timeout -> `Fail "produce timed out"
                | `Err m -> `Fail m);
            Wd_detectors.Signalmon.queue_depth ~id:"signal:mq-queue"
              ~res:t.M.res ~queue:M.request_queue ~max_depth:64;
            Wd_detectors.Signalmon.mem_utilisation ~id:"signal:mq-mem"
              ~mem:t.M.mem ~max_util:0.9;
          ];
        heartbeat = (t.M.net, M.monitor_node, "mqstats:mq1");
        workload =
          ( "mq-producer",
            Wd_sim.Time.ms 30,
            fun i -> M.produce t ~data:(Fmt.str "event-%d" i) );
        extra = None;
        start = (fun () -> M.start t);
        client = (fun i -> M.produce t ~data:("le" ^ string_of_int i));
      } )

(* the one system -> target table *)
let target = function
  | "kvs" -> kvs
  | "zkmini" -> zk
  | "dfsmini" -> dfs
  | "cstore" -> cs
  | "mqbroker" -> mq
  | s -> invalid_arg ("Systems: unknown system " ^ s)

let program system = fst (target system None)

(* The one boot skeleton: validate and analyse the program, boot the
   target on the (maybe instrumented) program, then driver, watchdog,
   baseline checkers, heartbeat, observer, workload, extra spawn, start —
   in that order, which every pinned schedule depends on. *)
let boot ?schedule ~sched ~reg ~mode ?special system =
  let prog, boot_target = target system special in
  Wd_ir.Validate.check_exn prog;
  let g = Generate.analyze_cached prog in
  let run_prog =
    match mode with
    | Wd_generated -> g.Generate.red.Wd_analysis.Reduction.instrumented
    | Wd_no_context | Wd_none -> prog
  in
  let p = boot_target ~sched ~reg run_prog in
  let driver = Driver.create ?schedule sched in
  attach_watchdog ~mode ~sched ~driver ~res:p.res ~main:p.main g;
  List.iter (Driver.add_checker driver) p.checkers;
  let heartbeat =
    let net, endpoint, match_prefix = p.heartbeat in
    Wd_detectors.Heartbeat.create ~sched ~net ~endpoint ~match_prefix ()
  in
  let observer = Wd_detectors.Observer.create sched in
  let wstats = Wd_targets.Workload.create_stats () in
  let wl_task =
    let name, period, op = p.workload in
    Wd_targets.Workload.spawn ~name ~sched ~period ~op
      ~on_result:(fun r ->
        Wd_detectors.Observer.observe observer (Wd_detectors.Observer.of_result r))
      wstats
  in
  Option.iter
    (fun (name, body) -> ignore (Wd_sim.Sched.spawn ~name ~daemon:true sched body))
    p.extra;
  let tasks = p.start () in
  Driver.start driver;
  let crash () =
    List.iter (Wd_sim.Sched.kill sched) tasks;
    Driver.stop driver
  in
  {
    b_system = system;
    b_sched = sched;
    b_reg = reg;
    b_generated = Some g;
    b_driver = driver;
    b_heartbeat = heartbeat;
    b_observer = observer;
    b_workload = wstats;
    b_tasks = wl_task :: tasks;
    b_crash = crash;
    b_mem = p.mem;
    b_res = p.res;
    b_client = p.client;
  }

let all_systems = [ "kvs"; "zkmini"; "dfsmini"; "cstore"; "mqbroker" ]
