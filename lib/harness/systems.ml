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

let expect_str ~prefix v =
  match v with
  | Wd_ir.Ast.VStr s -> String.length s >= String.length prefix
                        && String.sub s 0 (String.length prefix) = prefix
  | _ -> false

(* --- kvs --- *)

let boot_kvs ?schedule ~sched ~reg ~mode ~special () =
  let leak_bug = special = Some "leak_bug" in
  let in_memory = special = Some "in_memory" in
  let burst = special = Some "burst" in
  let deadlock_bug = special = Some "deadlock_bug" in
  let prog = Wd_targets.Kvs.program ~leak_bug ~deadlock_bug () in
  Wd_ir.Validate.check_exn prog;
  let g = Generate.analyze_cached prog in
  let run_prog =
    match mode with
    | Wd_generated -> g.Generate.red.Wd_analysis.Reduction.instrumented
    | Wd_no_context | Wd_none -> prog
  in
  (* Smaller memory pool for the leak scenario so pressure builds within the
     observation window. *)
  let mem_capacity = if leak_bug then 48 * 1024 else 64 * 1024 * 1024 in
  let t =
    Wd_targets.Kvs.boot ~in_memory ~mem_capacity ~sched ~reg
      ~prog:run_prog ()
  in
  let driver = Driver.create ?schedule sched in
  attach_watchdog ~mode ~sched ~driver ~res:t.Wd_targets.Kvs.res
    ~main:t.Wd_targets.Kvs.leader g;
  (* baseline detectors *)
  Driver.add_checker driver
    (Wd_detectors.Probe.roundtrip ~id:"probe:kvs-rw"
       ~set:(fun () -> Wd_targets.Kvs.set t ~key:"__probe" ~value:"p1")
       ~get:(fun () -> Wd_targets.Kvs.get t ~key:"__probe")
       ~expect:(expect_str ~prefix:"val:p1"));
  Driver.add_checker driver
    (Wd_detectors.Signalmon.queue_depth ~id:"signal:kvs-queue"
       ~res:t.Wd_targets.Kvs.res ~queue:Wd_targets.Kvs.request_queue ~max_depth:64);
  Driver.add_checker driver
    (Wd_detectors.Signalmon.mem_utilisation ~id:"signal:kvs-mem"
       ~mem:t.Wd_targets.Kvs.mem ~max_util:0.9);
  Driver.add_checker driver
    (Wd_detectors.Signalmon.sleep_overshoot ~id:"signal:kvs-pause"
       ~mem:t.Wd_targets.Kvs.mem ~expected:(Wd_sim.Time.ms 50)
       ~tolerance:(Wd_sim.Time.ms 150));
  let heartbeat =
    Wd_detectors.Heartbeat.create ~sched ~net:t.Wd_targets.Kvs.net
      ~endpoint:Wd_targets.Kvs.monitor_node ~match_prefix:"hb:kvs1" ()
  in
  let observer = Wd_detectors.Observer.create sched in
  let wstats = Wd_targets.Workload.create_stats () in
  let wl_task =
    Wd_targets.Workload.spawn ~name:"kvs-client" ~sched ~period:(Wd_sim.Time.ms 40)
      ~op:(fun i ->
        let key = Fmt.str "k%03d" (i mod 50) in
        match i mod 3 with
        | 0 -> Wd_targets.Kvs.set t ~key ~value:(Fmt.str "v%d" i)
        | 1 -> Wd_targets.Kvs.get t ~key
        | _ -> Wd_targets.Kvs.append t ~key ~value:"+")
      ~on_result:(fun r ->
        Wd_detectors.Observer.observe observer (Wd_detectors.Observer.of_result r))
      wstats
  in
  (* overload special: open-loop fire-and-forget bursts pile up the request
     queue without any fault — the paper's signal-accuracy counterexample *)
  if burst then
    ignore
      (Wd_sim.Sched.spawn ~name:"kvs-burst" ~daemon:true sched (fun () ->
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
           done));
  let tasks = Wd_targets.Kvs.start t in
  Driver.start driver;
  let crash () =
    List.iter (Wd_sim.Sched.kill sched) tasks;
    Driver.stop driver
  in
  (* Bounded key space: build the 256 key strings once, not per request
     (payload strings stay per-request — they must be unique). *)
  let keys = Array.init 256 (fun k -> "lk" ^ string_of_int k) in
  let client i =
    let key = keys.(i mod 256) in
    match i mod 3 with
    | 0 -> Wd_targets.Kvs.set t ~key ~value:("lv" ^ string_of_int i)
    | 1 -> Wd_targets.Kvs.get t ~key
    | _ -> Wd_targets.Kvs.append t ~key ~value:"+"
  in
  {
    b_system = "kvs";
    b_sched = sched;
    b_reg = reg;
    b_generated = Some g;
    b_driver = driver;
    b_heartbeat = heartbeat;
    b_observer = observer;
    b_workload = wstats;
    b_tasks = (wl_task :: tasks);
    b_crash = crash;
    b_mem = t.Wd_targets.Kvs.mem;
    b_res = t.Wd_targets.Kvs.res;
    b_client = client;
  }

(* --- zkmini --- *)

let boot_zk ?schedule ~sched ~reg ~mode ~special:_ () =
  let prog = Wd_targets.Zkmini.program () in
  Wd_ir.Validate.check_exn prog;
  let g = Generate.analyze_cached prog in
  let run_prog =
    match mode with
    | Wd_generated -> g.Generate.red.Wd_analysis.Reduction.instrumented
    | Wd_no_context | Wd_none -> prog
  in
  let t = Wd_targets.Zkmini.boot ~sched ~reg ~prog:run_prog () in
  let driver = Driver.create ?schedule sched in
  attach_watchdog ~mode ~sched ~driver ~res:t.Wd_targets.Zkmini.res
    ~main:t.Wd_targets.Zkmini.leader g;
  (* the paper's two blind baselines: admin `ruok` probe + heartbeats *)
  Driver.add_checker driver
    (Wd_detectors.Probe.make ~id:"probe:zk-ruok" (fun () ->
         match Wd_targets.Zkmini.ruok t with
         | `Ok v when expect_str ~prefix:"imok" v -> `Ok
         | `Ok _ -> `Fail "ruok: unexpected reply"
         | `Timeout -> `Fail "ruok timed out"
         | `Err m -> `Fail m));
  Driver.add_checker driver
    (Wd_detectors.Probe.roundtrip ~id:"probe:zk-rw"
       ~set:(fun () -> Wd_targets.Zkmini.create t ~path:"/__probe" ~data:"p1")
       ~get:(fun () -> Wd_targets.Zkmini.get t ~path:"/__probe")
       ~expect:(expect_str ~prefix:"val:p1"));
  Driver.add_checker driver
    (Wd_detectors.Signalmon.queue_depth ~id:"signal:zk-syncq"
       ~res:t.Wd_targets.Zkmini.res ~queue:"zk.sync_q" ~max_depth:64);
  Driver.add_checker driver
    (Wd_detectors.Signalmon.mem_utilisation ~id:"signal:zk-mem"
       ~mem:t.Wd_targets.Zkmini.mem ~max_util:0.9);
  let heartbeat =
    Wd_detectors.Heartbeat.create ~sched ~net:t.Wd_targets.Zkmini.net
      ~endpoint:Wd_targets.Zkmini.monitor_node ~match_prefix:"ping:zkL" ()
  in
  let observer = Wd_detectors.Observer.create sched in
  let wstats = Wd_targets.Workload.create_stats () in
  let wl_task =
    Wd_targets.Workload.spawn ~name:"zk-client" ~sched ~period:(Wd_sim.Time.ms 60)
      ~op:(fun i ->
        let path = Fmt.str "/node%02d" (i mod 20) in
        if i mod 3 = 0 then Wd_targets.Zkmini.get t ~path
        else Wd_targets.Zkmini.create t ~path ~data:(Fmt.str "d%d" i))
      ~on_result:(fun r ->
        Wd_detectors.Observer.observe observer (Wd_detectors.Observer.of_result r))
      wstats
  in
  let tasks = Wd_targets.Zkmini.start t in
  Driver.start driver;
  let crash () =
    List.iter (Wd_sim.Sched.kill sched) tasks;
    Driver.stop driver
  in
  let paths = Array.init 64 (fun k -> "/l" ^ string_of_int k) in
  let client i =
    let path = paths.(i mod 64) in
    if i mod 3 = 0 then Wd_targets.Zkmini.get t ~path
    else Wd_targets.Zkmini.create t ~path ~data:("ld" ^ string_of_int i)
  in
  {
    b_system = "zkmini";
    b_sched = sched;
    b_reg = reg;
    b_generated = Some g;
    b_driver = driver;
    b_heartbeat = heartbeat;
    b_observer = observer;
    b_workload = wstats;
    b_tasks = (wl_task :: tasks);
    b_crash = crash;
    b_mem = t.Wd_targets.Zkmini.mem;
    b_res = t.Wd_targets.Zkmini.res;
    b_client = client;
  }

(* --- dfsmini --- *)

let boot_dfs ?schedule ~sched ~reg ~mode ~special:_ () =
  let prog = Wd_targets.Dfsmini.program () in
  Wd_ir.Validate.check_exn prog;
  let g = Generate.analyze_cached prog in
  let run_prog =
    match mode with
    | Wd_generated -> g.Generate.red.Wd_analysis.Reduction.instrumented
    | Wd_no_context | Wd_none -> prog
  in
  let t = Wd_targets.Dfsmini.boot ~sched ~reg ~prog:run_prog () in
  let driver = Driver.create ?schedule sched in
  attach_watchdog ~mode ~sched ~driver ~res:t.Wd_targets.Dfsmini.res
    ~main:t.Wd_targets.Dfsmini.dn g;
  Driver.add_checker driver
    (Wd_detectors.Probe.make ~id:"probe:dfs-rw" (fun () ->
         match Wd_targets.Dfsmini.put_block t ~blkid:"__probe" ~data:"pdata" with
         | `Err m -> `Fail ("probe put failed: " ^ m)
         | `Timeout -> `Fail "probe put timed out"
         | `Ok _ -> (
             match Wd_targets.Dfsmini.read_block_req t ~blkid:"__probe" with
             | `Ok v when expect_str ~prefix:"pdata" v -> `Ok
             | `Ok _ -> `Fail "probe read back wrong data"
             | `Timeout -> `Fail "probe read timed out"
             | `Err m -> `Fail m)));
  Driver.add_checker driver
    (Wd_detectors.Signalmon.queue_depth ~id:"signal:dfs-queue"
       ~res:t.Wd_targets.Dfsmini.res ~queue:Wd_targets.Dfsmini.request_queue
       ~max_depth:64);
  Driver.add_checker driver
    (Wd_detectors.Signalmon.mem_utilisation ~id:"signal:dfs-mem"
       ~mem:t.Wd_targets.Dfsmini.mem ~max_util:0.9);
  let heartbeat =
    Wd_detectors.Heartbeat.create ~sched ~net:t.Wd_targets.Dfsmini.net
      ~endpoint:Wd_targets.Dfsmini.namenode ~match_prefix:"hb:dn1" ()
  in
  let observer = Wd_detectors.Observer.create sched in
  let wstats = Wd_targets.Workload.create_stats () in
  let wl_task =
    Wd_targets.Workload.spawn ~name:"dfs-client" ~sched
      ~period:(Wd_sim.Time.ms 80)
      ~op:(fun i ->
        let blkid = Fmt.str "b%04d" i in
        if i mod 4 = 3 then
          Wd_targets.Dfsmini.read_block_req t ~blkid:(Fmt.str "b%04d" (max 0 (i - 3)))
        else Wd_targets.Dfsmini.put_block t ~blkid ~data:(Fmt.str "payload-%d" i))
      ~on_result:(fun r ->
        Wd_detectors.Observer.observe observer (Wd_detectors.Observer.of_result r))
      wstats
  in
  let tasks = Wd_targets.Dfsmini.start t in
  Driver.start driver;
  let crash () =
    List.iter (Wd_sim.Sched.kill sched) tasks;
    Driver.stop driver
  in
  let blkids = Array.init 128 (fun k -> "lb" ^ string_of_int k) in
  let client i =
    let blkid = blkids.(i mod 128) in
    if i mod 4 = 3 then Wd_targets.Dfsmini.read_block_req t ~blkid
    else Wd_targets.Dfsmini.put_block t ~blkid ~data:("lp" ^ string_of_int i)
  in
  {
    b_system = "dfsmini";
    b_sched = sched;
    b_reg = reg;
    b_generated = Some g;
    b_driver = driver;
    b_heartbeat = heartbeat;
    b_observer = observer;
    b_workload = wstats;
    b_tasks = (wl_task :: tasks);
    b_crash = crash;
    b_mem = t.Wd_targets.Dfsmini.mem;
    b_res = t.Wd_targets.Dfsmini.res;
    b_client = client;
  }

(* --- cstore --- *)

let boot_cs ?schedule ~sched ~reg ~mode ~special () =
  let spin_bug = special = Some "spin_bug" in
  let prog = Wd_targets.Cstore.program ~spin_bug () in
  Wd_ir.Validate.check_exn prog;
  let g = Generate.analyze_cached prog in
  let run_prog =
    match mode with
    | Wd_generated -> g.Generate.red.Wd_analysis.Reduction.instrumented
    | Wd_no_context | Wd_none -> prog
  in
  let t = Wd_targets.Cstore.boot ~sched ~reg ~prog:run_prog () in
  let driver = Driver.create ?schedule sched in
  attach_watchdog ~mode ~sched ~driver ~res:t.Wd_targets.Cstore.res
    ~main:t.Wd_targets.Cstore.main g;
  Driver.add_checker driver
    (Wd_detectors.Probe.roundtrip ~id:"probe:cs-rw"
       ~set:(fun () -> Wd_targets.Cstore.write t ~key:"__probe" ~value:"p1")
       ~get:(fun () -> Wd_targets.Cstore.read t ~key:"__probe")
       ~expect:(expect_str ~prefix:"val:p1"));
  Driver.add_checker driver
    (Wd_detectors.Signalmon.queue_depth ~id:"signal:cs-queue"
       ~res:t.Wd_targets.Cstore.res ~queue:Wd_targets.Cstore.request_queue
       ~max_depth:64);
  Driver.add_checker driver
    (Wd_detectors.Signalmon.mem_utilisation ~id:"signal:cs-mem"
       ~mem:t.Wd_targets.Cstore.mem ~max_util:0.9);
  let heartbeat =
    Wd_detectors.Heartbeat.create ~sched ~net:t.Wd_targets.Cstore.net
      ~endpoint:Wd_targets.Cstore.seed_node ~match_prefix:"gossip:cs1" ()
  in
  let observer = Wd_detectors.Observer.create sched in
  let wstats = Wd_targets.Workload.create_stats () in
  let wl_task =
    Wd_targets.Workload.spawn ~name:"cs-client" ~sched ~period:(Wd_sim.Time.ms 50)
      ~op:(fun i ->
        let key = Fmt.str "row%03d" (i mod 40) in
        if i mod 3 = 2 then Wd_targets.Cstore.read t ~key
        else Wd_targets.Cstore.write t ~key ~value:(Fmt.str "cell%d" i))
      ~on_result:(fun r ->
        Wd_detectors.Observer.observe observer (Wd_detectors.Observer.of_result r))
      wstats
  in
  let tasks = Wd_targets.Cstore.start t in
  Driver.start driver;
  let crash () =
    List.iter (Wd_sim.Sched.kill sched) tasks;
    Driver.stop driver
  in
  let keys = Array.init 128 (fun k -> "lrow" ^ string_of_int k) in
  let client i =
    let key = keys.(i mod 128) in
    if i mod 3 = 2 then Wd_targets.Cstore.read t ~key
    else Wd_targets.Cstore.write t ~key ~value:("lc" ^ string_of_int i)
  in
  {
    b_system = "cstore";
    b_sched = sched;
    b_reg = reg;
    b_generated = Some g;
    b_driver = driver;
    b_heartbeat = heartbeat;
    b_observer = observer;
    b_workload = wstats;
    b_tasks = (wl_task :: tasks);
    b_crash = crash;
    b_mem = t.Wd_targets.Cstore.mem;
    b_res = t.Wd_targets.Cstore.res;
    b_client = client;
  }

(* --- mqbroker --- *)

let boot_mq ?schedule ~sched ~reg ~mode ~special:_ () =
  let prog = Wd_targets.Mqbroker.program () in
  Wd_ir.Validate.check_exn prog;
  let g = Generate.analyze_cached prog in
  let run_prog =
    match mode with
    | Wd_generated -> g.Generate.red.Wd_analysis.Reduction.instrumented
    | Wd_no_context | Wd_none -> prog
  in
  let t = Wd_targets.Mqbroker.boot ~sched ~reg ~prog:run_prog () in
  let driver = Driver.create ?schedule sched in
  attach_watchdog ~mode ~sched ~driver ~res:t.Wd_targets.Mqbroker.res
    ~main:t.Wd_targets.Mqbroker.broker g;
  Driver.add_checker driver
    (Wd_detectors.Probe.make ~id:"probe:mq-produce" (fun () ->
         match Wd_targets.Mqbroker.produce t ~data:"__probe" with
         | `Ok _ -> `Ok
         | `Timeout -> `Fail "produce timed out"
         | `Err m -> `Fail m));
  Driver.add_checker driver
    (Wd_detectors.Signalmon.queue_depth ~id:"signal:mq-queue"
       ~res:t.Wd_targets.Mqbroker.res ~queue:Wd_targets.Mqbroker.request_queue
       ~max_depth:64);
  Driver.add_checker driver
    (Wd_detectors.Signalmon.mem_utilisation ~id:"signal:mq-mem"
       ~mem:t.Wd_targets.Mqbroker.mem ~max_util:0.9);
  let heartbeat =
    Wd_detectors.Heartbeat.create ~sched ~net:t.Wd_targets.Mqbroker.net
      ~endpoint:Wd_targets.Mqbroker.monitor_node ~match_prefix:"mqstats:mq1" ()
  in
  let observer = Wd_detectors.Observer.create sched in
  let wstats = Wd_targets.Workload.create_stats () in
  let wl_task =
    Wd_targets.Workload.spawn ~name:"mq-producer" ~sched
      ~period:(Wd_sim.Time.ms 30)
      ~op:(fun i -> Wd_targets.Mqbroker.produce t ~data:(Fmt.str "event-%d" i))
      ~on_result:(fun r ->
        Wd_detectors.Observer.observe observer (Wd_detectors.Observer.of_result r))
      wstats
  in
  let tasks = Wd_targets.Mqbroker.start t in
  Driver.start driver;
  let crash () =
    List.iter (Wd_sim.Sched.kill sched) tasks;
    Driver.stop driver
  in
  let client i = Wd_targets.Mqbroker.produce t ~data:("le" ^ string_of_int i) in
  {
    b_system = "mqbroker";
    b_sched = sched;
    b_reg = reg;
    b_generated = Some g;
    b_driver = driver;
    b_heartbeat = heartbeat;
    b_observer = observer;
    b_workload = wstats;
    b_tasks = (wl_task :: tasks);
    b_crash = crash;
    b_mem = t.Wd_targets.Mqbroker.mem;
    b_res = t.Wd_targets.Mqbroker.res;
    b_client = client;
  }

let boot ?schedule ~sched ~reg ~mode ?special system =
  match system with
  | "kvs" -> boot_kvs ?schedule ~sched ~reg ~mode ~special ()
  | "zkmini" -> boot_zk ?schedule ~sched ~reg ~mode ~special ()
  | "dfsmini" -> boot_dfs ?schedule ~sched ~reg ~mode ~special ()
  | "cstore" -> boot_cs ?schedule ~sched ~reg ~mode ~special ()
  | "mqbroker" -> boot_mq ?schedule ~sched ~reg ~mode ~special ()
  | s -> invalid_arg ("Systems.boot: unknown system " ^ s)

let all_systems = [ "kvs"; "zkmini"; "dfsmini"; "cstore"; "mqbroker" ]
