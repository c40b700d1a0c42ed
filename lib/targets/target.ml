(* One description per target system, read by both boot skeletons: the
   single-node one in [Wd_harness.Systems] and the fleet node one in
   [Wd_cluster.Node]. Every per-system fact — programs by boot variant,
   baseline detectors, heartbeat endpoint, clients, queues, burst request,
   fleet write — is written here and nowhere else. *)

module Probe = Wd_detectors.Probe
module Signalmon = Wd_detectors.Signalmon

type result = [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ]

type fleet = { entries : string list; write : timeout:int64 -> result }

type instance = {
  res : Wd_ir.Runtime.resources;
  mem : Wd_env.Memory.t;
  main : Wd_ir.Interp.t;
  checkers : Wd_watchdog.Checker.t list;
  heartbeat : Wd_ir.Ast.value Wd_env.Net.t * string * string;
  workload : string * int64 * (int -> result);
  client : int -> result;
  queue : string;
  burst : (int -> Wd_ir.Ast.value) option;
  fleet : fleet option;
  start : unit -> Wd_sim.Sched.task list;
}

type t =
  string option ->
  Wd_ir.Ast.program
  * (sched:Wd_sim.Sched.t -> reg:Wd_env.Faultreg.t -> Wd_ir.Ast.program ->
     instance)

let expect_str ~prefix = function
  | Wd_ir.Ast.VStr s -> String.starts_with ~prefix s
  | _ -> false

(* Request keys are formatted once per process, not per request: the
   workload and burst builders index these tables and append a decimal
   with [string_of_int], giving the bytes [Printf] would. The tables are
   immutable, so every world and domain shares them. *)
let kvs_keys = Array.init 50 (Printf.sprintf "k%03d")
let kvs_burst_keys = Array.init 500 (Printf.sprintf "burst%04d")
let kvs_load_keys = Array.init 256 (fun k -> "lk" ^ string_of_int k)
let zk_paths = Array.init 20 (Printf.sprintf "/node%02d")
let zk_burst_paths = Array.init 8 (Printf.sprintf "/burst%d")
let zk_load_paths = Array.init 64 (fun k -> "/l" ^ string_of_int k)
let dfs_load_blkids = Array.init 128 (fun k -> "lb" ^ string_of_int k)
let cs_keys = Array.init 40 (Printf.sprintf "row%03d")
let cs_burst_keys = Array.init 8 (Printf.sprintf "burst%d")
let cs_load_keys = Array.init 128 (fun k -> "lrow" ^ string_of_int k)

(* [Printf.sprintf "%04d" i], without the format interpreter for the
   workloads' non-negative counters *)
let zero_pad4 i =
  if i < 0 then Printf.sprintf "%04d" i
  else
    let d = string_of_int i in
    match String.length d with
    | 1 -> "000" ^ d
    | 2 -> "00" ^ d
    | 3 -> "0" ^ d
    | _ -> d

(* A burst request carries an empty reply id: nobody waits for it. *)
let burst_request fields =
  Wd_ir.Ast.VMap (List.map (fun (k, v) -> (k, Wd_ir.Ast.VStr v)) fields)

(* --- kvs --- *)

let kvs special =
  let module K = Kvs in
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
      {
        res = t.K.res;
        mem = t.K.mem;
        main = t.K.leader;
        checkers =
          [
            Probe.roundtrip ~id:"probe:kvs-rw"
              ~set:(fun () -> K.set t ~key:"__probe" ~value:"p1")
              ~get:(fun () -> K.get t ~key:"__probe")
              ~expect:(expect_str ~prefix:"val:p1");
            Signalmon.queue_depth ~id:"signal:kvs-queue" ~res:t.K.res
              ~queue:K.request_queue ~max_depth:64;
            Signalmon.mem_utilisation ~id:"signal:kvs-mem" ~mem:t.K.mem
              ~max_util:0.9;
            Signalmon.sleep_overshoot ~id:"signal:kvs-pause" ~mem:t.K.mem
              ~expected:(Wd_sim.Time.ms 50) ~tolerance:(Wd_sim.Time.ms 150);
          ];
        heartbeat = (t.K.net, K.monitor_node, "hb:kvs1");
        workload =
          ( "kvs-client",
            Wd_sim.Time.ms 40,
            fun i ->
              let key = kvs_keys.(i mod 50) in
              match i mod 3 with
              | 0 -> K.set t ~key ~value:("v" ^ string_of_int i)
              | 1 -> K.get t ~key
              | _ -> K.append t ~key ~value:"+" );
        client =
          (fun i ->
            let key = kvs_load_keys.(i mod 256) in
            match i mod 3 with
            | 0 -> K.set t ~key ~value:("lv" ^ string_of_int i)
            | 1 -> K.get t ~key
            | _ -> K.append t ~key ~value:"+");
        queue = K.request_queue;
        burst =
          Some
            (fun i ->
              burst_request
                [ ("op", "set"); ("key", kvs_burst_keys.(i mod 500));
                  ("value", String.make 64 'x'); ("reply", "") ]);
        fleet = None;
        start = (fun () -> K.start t);
      } )

(* --- zkmini --- *)

let zkmini _ =
  let module Z = Zkmini in
  ( Z.program (),
    fun ~sched ~reg prog ->
      let t = Z.boot ~sched ~reg ~prog () in
      {
        res = t.Z.res;
        mem = t.Z.mem;
        main = t.Z.leader;
        (* the paper's two blind baselines: admin `ruok` probe +
           heartbeats *)
        checkers =
          [
            Probe.make ~id:"probe:zk-ruok" (fun () ->
                match Z.ruok t with
                | `Ok v when expect_str ~prefix:"imok" v -> `Ok
                | `Ok _ -> `Fail "ruok: unexpected reply"
                | `Timeout -> `Fail "ruok timed out"
                | `Err m -> `Fail m);
            Probe.roundtrip ~id:"probe:zk-rw"
              ~set:(fun () -> Z.create t ~path:"/__probe" ~data:"p1")
              ~get:(fun () -> Z.get t ~path:"/__probe")
              ~expect:(expect_str ~prefix:"val:p1");
            Signalmon.queue_depth ~id:"signal:zk-syncq" ~res:t.Z.res
              ~queue:"zk.sync_q" ~max_depth:64;
            Signalmon.mem_utilisation ~id:"signal:zk-mem" ~mem:t.Z.mem
              ~max_util:0.9;
          ];
        heartbeat = (t.Z.net, Z.monitor_node, "ping:zkL");
        workload =
          ( "zk-client",
            Wd_sim.Time.ms 60,
            fun i ->
              let path = zk_paths.(i mod 20) in
              if i mod 3 = 0 then Z.get t ~path
              else Z.create t ~path ~data:("d" ^ string_of_int i) );
        client =
          (fun i ->
            let path = zk_load_paths.(i mod 64) in
            if i mod 3 = 0 then Z.get t ~path
            else Z.create t ~path ~data:("ld" ^ string_of_int i));
        queue = Z.request_queue;
        burst =
          Some
            (fun i ->
              burst_request
                [ ("reply", ""); ("op", "create");
                  ("path", zk_burst_paths.(i mod 8)); ("data", "x") ]);
        fleet =
          Some
            { entries = Z.leader_entries;
              write =
                (fun ~timeout ->
                  Z.create ~timeout t ~path:"/__fleet" ~data:"p") };
        start = (fun () -> Z.start t);
      } )

(* --- dfsmini --- *)

let dfsmini _ =
  let module D = Dfsmini in
  ( D.program (),
    fun ~sched ~reg prog ->
      let t = D.boot ~sched ~reg ~prog () in
      {
        res = t.D.res;
        mem = t.D.mem;
        main = t.D.dn;
        checkers =
          [
            Probe.make ~id:"probe:dfs-rw" (fun () ->
                match D.put_block t ~blkid:"__probe" ~data:"pdata" with
                | `Err m -> `Fail ("probe put failed: " ^ m)
                | `Timeout -> `Fail "probe put timed out"
                | `Ok _ -> (
                    match D.read_block_req t ~blkid:"__probe" with
                    | `Ok v when expect_str ~prefix:"pdata" v -> `Ok
                    | `Ok _ -> `Fail "probe read back wrong data"
                    | `Timeout -> `Fail "probe read timed out"
                    | `Err m -> `Fail m));
            Signalmon.queue_depth ~id:"signal:dfs-queue" ~res:t.D.res
              ~queue:D.request_queue ~max_depth:64;
            Signalmon.mem_utilisation ~id:"signal:dfs-mem" ~mem:t.D.mem
              ~max_util:0.9;
          ];
        heartbeat = (t.D.net, D.namenode, "hb:dn1");
        workload =
          ( "dfs-client",
            Wd_sim.Time.ms 80,
            fun i ->
              if i mod 4 = 3 then
                D.read_block_req t ~blkid:("b" ^ zero_pad4 (max 0 (i - 3)))
              else
                D.put_block t ~blkid:("b" ^ zero_pad4 i)
                  ~data:("payload-" ^ string_of_int i) );
        client =
          (fun i ->
            let blkid = dfs_load_blkids.(i mod 128) in
            if i mod 4 = 3 then D.read_block_req t ~blkid
            else D.put_block t ~blkid ~data:("lp" ^ string_of_int i));
        queue = D.request_queue;
        burst = None;
        fleet = None;
        start = (fun () -> D.start t);
      } )

(* --- cstore --- *)

let cstore special =
  let module C = Cstore in
  ( C.program ~spin_bug:(special = Some "spin_bug") (),
    fun ~sched ~reg prog ->
      let t = C.boot ~sched ~reg ~prog () in
      {
        res = t.C.res;
        mem = t.C.mem;
        main = t.C.main;
        checkers =
          [
            Probe.roundtrip ~id:"probe:cs-rw"
              ~set:(fun () -> C.write t ~key:"__probe" ~value:"p1")
              ~get:(fun () -> C.read t ~key:"__probe")
              ~expect:(expect_str ~prefix:"val:p1");
            Signalmon.queue_depth ~id:"signal:cs-queue" ~res:t.C.res
              ~queue:C.request_queue ~max_depth:64;
            Signalmon.mem_utilisation ~id:"signal:cs-mem" ~mem:t.C.mem
              ~max_util:0.9;
          ];
        heartbeat = (t.C.net, C.seed_node, "gossip:cs1");
        workload =
          ( "cs-client",
            Wd_sim.Time.ms 50,
            fun i ->
              let key = cs_keys.(i mod 40) in
              if i mod 3 = 2 then C.read t ~key
              else C.write t ~key ~value:("cell" ^ string_of_int i) );
        client =
          (fun i ->
            let key = cs_load_keys.(i mod 128) in
            if i mod 3 = 2 then C.read t ~key
            else C.write t ~key ~value:("lc" ^ string_of_int i));
        queue = C.request_queue;
        burst =
          Some
            (fun i ->
              burst_request
                [ ("reply", ""); ("op", "write");
                  ("key", cs_burst_keys.(i mod 8)); ("value", "x") ]);
        fleet =
          Some
            { entries = C.entries;
              write =
                (fun ~timeout -> C.write ~timeout t ~key:"__fleet" ~value:"p")
            };
        start = (fun () -> C.start t);
      } )

(* --- mqbroker --- *)

let mqbroker _ =
  let module M = Mqbroker in
  ( M.program (),
    fun ~sched ~reg prog ->
      let t = M.boot ~sched ~reg ~prog () in
      {
        res = t.M.res;
        mem = t.M.mem;
        main = t.M.broker;
        checkers =
          [
            Probe.make ~id:"probe:mq-produce" (fun () ->
                match M.produce t ~data:"__probe" with
                | `Ok _ -> `Ok
                | `Timeout -> `Fail "produce timed out"
                | `Err m -> `Fail m);
            Signalmon.queue_depth ~id:"signal:mq-queue" ~res:t.M.res
              ~queue:M.request_queue ~max_depth:64;
            Signalmon.mem_utilisation ~id:"signal:mq-mem" ~mem:t.M.mem
              ~max_util:0.9;
          ];
        heartbeat = (t.M.net, M.monitor_node, "mqstats:mq1");
        workload =
          ( "mq-producer",
            Wd_sim.Time.ms 30,
            fun i -> M.produce t ~data:("event-" ^ string_of_int i) );
        client = (fun i -> M.produce t ~data:("le" ^ string_of_int i));
        queue = M.request_queue;
        burst = None;
        fleet = None;
        start = (fun () -> M.start t);
      } )

(* the one system -> description table *)
let all =
  [ ("kvs", kvs); ("zkmini", zkmini); ("dfsmini", dfsmini);
    ("cstore", cstore); ("mqbroker", mqbroker) ]

let names = List.map fst all

let find system =
  match List.assoc_opt system all with
  | Some d -> d
  | None -> invalid_arg ("Target: unknown system " ^ system)

let program system = fst (find system None)

(* The one burst loop: the kvs "burst" variant and the fleet-overload
   scenario both flood the request queue through it. *)
let spawn_burst ~sched ~name ~every p =
  Option.iter
    (fun request ->
      ignore
        (Wd_sim.Sched.spawn ~name ~daemon:true sched (fun () ->
             let inq = Wd_ir.Runtime.queue p.res p.queue in
             let i = ref 0 in
             while true do
               Wd_sim.Sched.sleep every;
               for _ = 1 to 2000 do
                 incr i;
                 ignore (Wd_sim.Channel.try_send inq (request !i))
               done
             done)))
    p.burst
