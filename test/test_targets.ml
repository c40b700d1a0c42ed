(* Integration tests: each target system boots on the simulator and serves
   its workload correctly, with the internal behaviours (flush, compaction,
   replication, snapshots, scanning) observable in its state. *)

module Sched = Wd_sim.Sched
module Time = Wd_sim.Time
open Wd_ir.Ast

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let vstr = function VStr s -> s | v -> Alcotest.failf "not a string: %a" pp_value v

(* --- kvs --- *)

let boot_kvs ?(in_memory = false) ?(leak_bug = false) () =
  let sched = Sched.create ~seed:21 () in
  let reg = Wd_env.Faultreg.create () in
  let prog = Wd_targets.Kvs.program ~leak_bug () in
  Wd_ir.Validate.check_exn prog;
  let t = Wd_targets.Kvs.boot ~in_memory ~sched ~reg ~prog () in
  ignore (Wd_targets.Kvs.start t);
  (sched, reg, t)

let client sched f =
  let failed = ref None in
  ignore
    (Sched.spawn ~name:"client" ~daemon:true sched (fun () ->
         try f () with e -> failed := Some e));
  ignore (Sched.run ~until:(Time.sec 30) sched);
  match !failed with Some e -> raise e | None -> ()

let test_kvs_set_get () =
  let sched, _reg, t = boot_kvs () in
  client sched (fun () ->
      (match Wd_targets.Kvs.set t ~key:"alpha" ~value:"1" with
      | `Ok (VStr "ok") -> ()
      | _ -> Alcotest.fail "set");
      match Wd_targets.Kvs.get t ~key:"alpha" with
      | `Ok v -> check_str "get" "val:1" (vstr v)
      | _ -> Alcotest.fail "get")

let test_kvs_append_del () =
  let sched, _reg, t = boot_kvs () in
  client sched (fun () ->
      ignore (Wd_targets.Kvs.set t ~key:"k" ~value:"a");
      ignore (Wd_targets.Kvs.append t ~key:"k" ~value:"b");
      (match Wd_targets.Kvs.get t ~key:"k" with
      | `Ok v -> check_str "appended" "val:ab" (vstr v)
      | _ -> Alcotest.fail "get");
      ignore (Wd_targets.Kvs.del t ~key:"k");
      match Wd_targets.Kvs.get t ~key:"k" with
      | `Ok v -> check_str "deleted reads empty" "val:" (vstr v)
      | _ -> Alcotest.fail "get after del")

let test_kvs_missing_key_empty () =
  let sched, _reg, t = boot_kvs () in
  client sched (fun () ->
      match Wd_targets.Kvs.get t ~key:"never-set" with
      | `Ok v -> check_str "empty" "val:" (vstr v)
      | _ -> Alcotest.fail "get")

(* A request leaves no queue behind in the resource table (replies land
   in pooled mailboxes): 100 sets leave its queue count where it was. *)
let test_kvs_requests_leak_no_queue () =
  let sched, _reg, t = boot_kvs () in
  let queues () = Hashtbl.length t.Wd_targets.Kvs.res.Wd_ir.Runtime.queues in
  let before = ref 0 and after = ref 0 in
  client sched (fun () ->
      ignore (Wd_targets.Kvs.set t ~key:"warm" ~value:"v");
      before := queues ();
      for i = 1 to 100 do
        match Wd_targets.Kvs.set t ~key:(Fmt.str "k%d" i) ~value:"v" with
        | `Ok _ -> ()
        | _ -> Alcotest.fail "set"
      done;
      after := queues ());
  check_int "no reply queue left behind" !before !after

let test_kvs_persistence_pipeline () =
  let sched, _reg, t = boot_kvs () in
  client sched (fun () ->
      for i = 1 to 30 do
        ignore (Wd_targets.Kvs.set t ~key:(Fmt.str "k%02d" i) ~value:"v");
        Sched.sleep (Time.ms 50)
      done;
      Sched.sleep (Time.sec 5));
  let paths = Wd_env.Disk.paths t.Wd_targets.Kvs.disk in
  let has_prefix p pre =
    String.length p >= String.length pre && String.sub p 0 (String.length pre) = pre
  in
  check "wal written" true (List.exists (fun p -> has_prefix p "wal/") paths);
  check "segments or compacted data" true
    (List.exists (fun p -> has_prefix p "seg/" || has_prefix p "compact/") paths);
  check "snapshot written" true
    (List.exists (fun p -> has_prefix p "snapshot/") paths);
  (* replication reached the follower's disk *)
  check "replica wal" true
    (List.exists
       (fun p -> has_prefix p "replica/")
       (Wd_env.Disk.paths t.Wd_targets.Kvs.replica_disk))

let test_kvs_in_memory_no_disk () =
  let sched, _reg, t = boot_kvs ~in_memory:true () in
  client sched (fun () ->
      for i = 1 to 10 do
        ignore (Wd_targets.Kvs.set t ~key:(Fmt.str "k%d" i) ~value:"v");
        Sched.sleep (Time.ms 100)
      done;
      (* reads still work from the in-memory index *)
      match Wd_targets.Kvs.get t ~key:"k3" with
      | `Ok v -> check_str "served from memory" "val:v" (vstr v)
      | _ -> Alcotest.fail "get");
  check_int "no files written" 0 (List.length (Wd_env.Disk.paths t.Wd_targets.Kvs.disk))

let test_kvs_leak_bug_grows_memory () =
  let used_after variant =
    let sched, _reg, t = boot_kvs ~leak_bug:variant () in
    client sched (fun () ->
        for i = 1 to 100 do
          ignore (Wd_targets.Kvs.set t ~key:(Fmt.str "k%d" (i mod 10)) ~value:"v");
          Sched.sleep (Time.ms 20)
        done);
    Wd_env.Memory.used t.Wd_targets.Kvs.mem
  in
  check "leaky variant retains more" true (used_after true > used_after false)

(* --- zkmini --- *)

let boot_zk () =
  let sched = Sched.create ~seed:22 () in
  let reg = Wd_env.Faultreg.create () in
  let prog = Wd_targets.Zkmini.program () in
  Wd_ir.Validate.check_exn prog;
  let t = Wd_targets.Zkmini.boot ~sched ~reg ~prog () in
  ignore (Wd_targets.Zkmini.start t);
  (sched, reg, t)

let test_zk_create_get () =
  let sched, _reg, t = boot_zk () in
  client sched (fun () ->
      (match Wd_targets.Zkmini.create t ~path:"/cfg" ~data:"blue" with
      | `Ok (VStr "ok") -> ()
      | _ -> Alcotest.fail "create");
      match Wd_targets.Zkmini.get t ~path:"/cfg" with
      | `Ok v -> check_str "get" "val:blue" (vstr v)
      | _ -> Alcotest.fail "get")

let test_zk_zxid_monotonic () =
  let sched, _reg, t = boot_zk () in
  client sched (fun () ->
      for i = 1 to 10 do
        ignore (Wd_targets.Zkmini.create t ~path:(Fmt.str "/n%d" i) ~data:"d")
      done);
  check_int "ten txns" 10 (Wd_targets.Zkmini.zxid t);
  check_int "all committed" 10 (Wd_targets.Zkmini.txncount t)

let test_zk_ruok () =
  let sched, _reg, t = boot_zk () in
  client sched (fun () ->
      match Wd_targets.Zkmini.ruok t with
      | `Ok v -> check_str "imok" "imok" (vstr v)
      | _ -> Alcotest.fail "ruok")

(* A reply that lands after its request timed out (the commit path's txn
   log append is delayed past the client's deadline) is discarded: it
   must not leave a queue in the resource table. *)
let test_zk_late_reply_no_queue () =
  let sched, reg, t = boot_zk () in
  let queues () = Hashtbl.length t.Wd_targets.Zkmini.res.Wd_ir.Runtime.queues in
  let before = ref 0 and timed_out = ref false in
  client sched (fun () ->
      ignore (Wd_targets.Zkmini.create t ~path:"/warm" ~data:"d");
      before := queues ();
      Wd_env.Faultreg.inject reg
        {
          Wd_env.Faultreg.id = "slow-commit";
          site_pattern = "disk:zk.disk:*";
          behaviour = Wd_env.Faultreg.Delay (Time.ms 300);
          start_at = Sched.now sched;
          stop_at = Time.never;
          once = true;
        };
      timed_out :=
        Wd_targets.Zkmini.create ~timeout:(Time.ms 50) t ~path:"/late"
          ~data:"d"
        = `Timeout;
      Sched.sleep (Time.sec 2));
  check "request timed out" true !timed_out;
  check_int "txn committed after the deadline" 2 (Wd_targets.Zkmini.txncount t);
  check_int "no reply queue left behind" !before (queues ())

let test_zk_snapshot_after_snapcount () =
  let sched, _reg, t = boot_zk () in
  client sched (fun () ->
      for i = 1 to 25 do
        ignore (Wd_targets.Zkmini.create t ~path:(Fmt.str "/n%d" i) ~data:"d")
      done;
      Sched.sleep (Time.sec 2));
  let snaps =
    List.filter
      (fun p -> String.length p >= 9 && String.sub p 0 9 = "snapshot/")
      (Wd_env.Disk.paths t.Wd_targets.Zkmini.disk)
  in
  check "snapshot taken after snapCount txns" true (snaps <> [])

let test_zk_followers_replicate () =
  let sched, _reg, t = boot_zk () in
  client sched (fun () ->
      for i = 1 to 5 do
        ignore (Wd_targets.Zkmini.create t ~path:(Fmt.str "/n%d" i) ~data:"d")
      done;
      Sched.sleep (Time.sec 2));
  let fpaths = Wd_env.Disk.paths t.Wd_targets.Zkmini.fdisk in
  check "follower 1 log" true (List.mem "txnlog/f1" fpaths);
  check "follower 2 log" true (List.mem "txnlog/f2" fpaths)

(* --- dfsmini --- *)

let boot_dfs () =
  let sched = Sched.create ~seed:23 () in
  let reg = Wd_env.Faultreg.create () in
  let prog = Wd_targets.Dfsmini.program () in
  Wd_ir.Validate.check_exn prog;
  let t = Wd_targets.Dfsmini.boot ~sched ~reg ~prog () in
  ignore (Wd_targets.Dfsmini.start t);
  (sched, reg, t)

let test_dfs_put_read () =
  let sched, _reg, t = boot_dfs () in
  client sched (fun () ->
      (match Wd_targets.Dfsmini.put_block t ~blkid:"b1" ~data:"block-data" with
      | `Ok (VStr "ok") -> ()
      | _ -> Alcotest.fail "put");
      match Wd_targets.Dfsmini.read_block_req t ~blkid:"b1" with
      | `Ok v -> check_str "read back" "block-data" (vstr v)
      | _ -> Alcotest.fail "read")

let test_dfs_read_missing_is_error_reply () =
  let sched, _reg, t = boot_dfs () in
  client sched (fun () ->
      match Wd_targets.Dfsmini.read_block_req t ~blkid:"ghost" with
      | `Ok v ->
          let s = vstr v in
          check "error reply" true (String.length s >= 4 && String.sub s 0 4 = "err:")
      | _ -> Alcotest.fail "expected an error reply, not a timeout")

let test_dfs_scanner_counts_corruption () =
  let sched, reg, t = boot_dfs () in
  client sched (fun () ->
      ignore (Wd_targets.Dfsmini.put_block t ~blkid:"clean" ~data:"okdata");
      (* corrupt a stored block behind the system's back *)
      Wd_env.Disk.poke t.Wd_targets.Dfsmini.disk ~path:"blk/clean"
        (Bytes.of_string "rotten");
      Sched.sleep (Time.sec 6));
  ignore reg;
  check "scanner found it" true (Wd_targets.Dfsmini.corrupt_found t >= 1)

let test_dfs_scanner_error_handler () =
  let sched, reg, t = boot_dfs () in
  client sched (fun () ->
      ignore (Wd_targets.Dfsmini.put_block t ~blkid:"b" ~data:"x");
      Wd_env.Faultreg.inject reg
        {
          Wd_env.Faultreg.id = "scan-eio";
          site_pattern = "disk:dfs.disk:read:blk/*";
          behaviour = Wd_env.Faultreg.Error "EIO";
          start_at = Sched.now sched;
          stop_at = Int64.add (Sched.now sched) (Time.sec 5);
          once = false;
        };
      Sched.sleep (Time.sec 8));
  check "handler absorbed the errors" true (Wd_targets.Dfsmini.scan_errors t >= 1)

(* --- cstore --- *)

let boot_cs () =
  let sched = Sched.create ~seed:24 () in
  let reg = Wd_env.Faultreg.create () in
  let prog = Wd_targets.Cstore.program () in
  Wd_ir.Validate.check_exn prog;
  let t = Wd_targets.Cstore.boot ~sched ~reg ~prog () in
  ignore (Wd_targets.Cstore.start t);
  (sched, reg, t)

let test_cs_write_read () =
  let sched, _reg, t = boot_cs () in
  client sched (fun () ->
      (match Wd_targets.Cstore.write t ~key:"row1" ~value:"cell" with
      | `Ok (VStr "ok") -> ()
      | _ -> Alcotest.fail "write");
      match Wd_targets.Cstore.read t ~key:"row1" with
      | `Ok v -> check_str "read" "val:cell" (vstr v)
      | _ -> Alcotest.fail "read")

let test_cs_flush_and_read_from_sstable () =
  let sched, _reg, t = boot_cs () in
  client sched (fun () ->
      for i = 1 to 20 do
        ignore (Wd_targets.Cstore.write t ~key:(Fmt.str "r%02d" i) ~value:"v");
        Sched.sleep (Time.ms 50)
      done;
      Sched.sleep (Time.sec 2);
      (* by now the memtable flushed; early keys are only in sstables *)
      match Wd_targets.Cstore.read t ~key:"r01" with
      | `Ok v -> check_str "served after flush" "val:v" (vstr v)
      | _ -> Alcotest.fail "read");
  check "sstables exist" true (Wd_targets.Cstore.sstable_count t >= 1);
  (* commit log always appended *)
  check "commitlog" true
    (List.mem "commitlog/log" (Wd_env.Disk.paths t.Wd_targets.Cstore.disk))

let test_cs_compaction_runs () =
  let sched, _reg, t = boot_cs () in
  client sched (fun () ->
      for i = 1 to 120 do
        ignore (Wd_targets.Cstore.write t ~key:(Fmt.str "r%03d" i) ~value:"v");
        Sched.sleep (Time.ms 30)
      done;
      Sched.sleep (Time.sec 5));
  check "compactions happened" true (Wd_targets.Cstore.compactions t >= 1);
  check "fan-in bounded sstable count" true (Wd_targets.Cstore.sstable_count t < 12)

(* --- mqbroker --- *)

let boot_mq () =
  let sched = Sched.create ~seed:25 () in
  let reg = Wd_env.Faultreg.create () in
  let prog = Wd_targets.Mqbroker.program () in
  Wd_ir.Validate.check_exn prog;
  let t = Wd_targets.Mqbroker.boot ~sched ~reg ~prog () in
  ignore (Wd_targets.Mqbroker.start t);
  (sched, reg, t)

let test_mq_produce_deliver () =
  let sched, _reg, t = boot_mq () in
  client sched (fun () ->
      for i = 1 to 120 do
        (match Wd_targets.Mqbroker.produce t ~data:(Fmt.str "m%d" i) with
        | `Ok (VStr "ok") -> ()
        | _ -> Alcotest.fail "produce");
        Sched.sleep (Time.ms 20)
      done;
      Sched.sleep (Time.sec 3));
  check_int "all records accepted" 120 (Wd_targets.Mqbroker.next_offset t);
  check "delivery caught up" true (Wd_targets.Mqbroker.delivered_offset t >= 100);
  check "consumer received batches" true (Wd_targets.Mqbroker.batches_received t >= 2)

let test_mq_retention_bounds_segments () =
  let sched, _reg, t = boot_mq () in
  client sched (fun () ->
      for i = 1 to 500 do
        ignore (Wd_targets.Mqbroker.produce t ~data:(Fmt.str "m%d" i));
        Sched.sleep (Time.ms 10)
      done;
      Sched.sleep (Time.sec 5));
  check "retention ran" true (Wd_targets.Mqbroker.retention_runs t >= 1);
  check "segments bounded" true (Wd_targets.Mqbroker.segment_count t <= 8)

let test_mq_cleaner_stuck_is_silent () =
  let sched, reg, t = boot_mq () in
  client sched (fun () ->
      Wd_env.Faultreg.inject reg
        {
          Wd_env.Faultreg.id = "cleaner-hang";
          site_pattern = "disk:mq.disk:delete:part0/*";
          behaviour = Wd_env.Faultreg.Hang;
          start_at = 0L;
          stop_at = Time.never;
          once = false;
        };
      for i = 1 to 700 do
        (match Wd_targets.Mqbroker.produce t ~data:(Fmt.str "m%d" i) with
        | `Ok _ -> ()
        | _ -> Alcotest.fail "producers must stay healthy")
        ;
        Sched.sleep (Time.ms 10)
      done);
  (* the gray failure: service healthy, partition growing unbounded *)
  check "segments grew past retention" true
    (Wd_targets.Mqbroker.segment_count t
     > Wd_targets.Mqbroker.retention_segments + 2)

(* --- rpcq ---

   A hand-written server on "rq": it answers each request with
   "re:<op>", after 100 ms for op "slow" and never for op "mute". *)

module Rpcq = Wd_targets.Rpcq

let rpc_world () =
  let sched = Sched.create ~seed:3 () in
  let reg = Wd_env.Faultreg.create () in
  let res = Wd_ir.Runtime.create ~reg ~rng:(Wd_sim.Rng.create ~seed:4) in
  let rpc =
    Rpcq.create ~sched ~res ~request_queue:"rq" ~replies_queue:"rq.replies"
  in
  ignore (Rpcq.spawn_dispatcher rpc);
  ignore
    (Sched.spawn ~name:"server" ~daemon:true sched (fun () ->
         let inq = Wd_ir.Runtime.queue res "rq" in
         let out = Wd_ir.Runtime.queue res "rq.replies" in
         while true do
           match Wd_sim.Channel.recv inq with
           | VMap kvs ->
               let op = vstr (List.assoc "op" kvs) in
               if op = "slow" then Sched.sleep (Time.ms 100);
               if op <> "mute" then
                 Wd_sim.Channel.send out
                   (VMap
                      [ ("id", List.assoc "reply" kvs); ("data", VStr ("re:" ^ op)) ])
           | _ -> ()
         done));
  (sched, rpc)

let ask ?timeout rpc op = Rpcq.request ?timeout rpc [ ("op", VStr op) ]

(* The reply's text and the virtual time the request took. *)
let timed sched f =
  let t0 = Sched.now sched in
  let r = f () in
  let took = Int64.sub (Sched.now sched) t0 in
  match r with
  | `Ok v -> (vstr v, took)
  | `Timeout -> ("timeout", took)
  | `Err m -> ("err:" ^ m, took)

let prompt took = Int64.compare took (Time.ms 10) < 0

(* ruok (admin handle, id r1) and create (client handle, id r2) wait on
   zk.replies together; each gets its own reply. *)
let test_rpc_shared_replies () =
  let sched, _reg, t = boot_zk () in
  let ruok = ref "" and created = ref "" in
  client sched (fun () ->
      ignore (Wd_targets.Zkmini.create t ~path:"/a" ~data:"d");
      ignore
        (Sched.spawn ~name:"admin" ~daemon:true sched (fun () ->
             match Wd_targets.Zkmini.ruok t with
             | `Ok v -> ruok := vstr v
             | _ -> ruok := "no reply"));
      (match Wd_targets.Zkmini.create t ~path:"/b" ~data:"d" with
      | `Ok v -> created := vstr v
      | _ -> created := "no reply");
      Sched.sleep (Time.sec 1));
  check_str "ruok" "imok" !ruok;
  check_str "create" "ok" !created

(* Both handles count their ids from r1: two requests in flight on one id
   raise rather than share a mailbox. *)
let test_rpc_duplicate_id () =
  let sched, _reg, t = boot_zk () in
  let raised = ref false in
  client sched (fun () ->
      ignore
        (Sched.spawn ~name:"admin" ~daemon:true sched (fun () ->
             ignore (Wd_targets.Zkmini.ruok t)));
      Sched.yield ();
      match Wd_targets.Zkmini.create t ~path:"/a" ~data:"d" with
      | _ -> ()
      | exception Invalid_argument _ -> raised := true);
  check "second r1 in flight raises" true !raised

(* The slow reply lands after its request gave up: it is dropped, and the
   next request on the handle gets its own reply, promptly (the expired
   wait's stale waker is not in front of it). *)
let test_rpc_late_reply_dropped () =
  let sched, rpc = rpc_world () in
  let first = ref ("", 0L) and second = ref ("", 0L) in
  client sched (fun () ->
      first := timed sched (fun () -> ask ~timeout:(Time.ms 50) rpc "slow");
      Sched.sleep (Time.ms 200);
      second := timed sched (fun () -> ask rpc "fast"));
  check_str "first timed out" "timeout" (fst !first);
  check_str "second gets its own reply" "re:fast" (fst !second);
  check "second is prompt" true (prompt (snd !second))

(* A timed-out wait leaves its waker in the slot's cond. Asked at once,
   while the slow reply is still due, the next request must not wait
   behind that waker until its own deadline. *)
let test_rpc_expired_slot_not_reused () =
  let sched, rpc = rpc_world () in
  let replies = ref [] in
  client sched (fun () ->
      ignore (timed sched (fun () -> ask ~timeout:(Time.ms 50) rpc "slow"));
      for _ = 1 to 3 do
        replies := timed sched (fun () -> ask rpc "fast") :: !replies
      done);
  List.iter
    (fun (r, took) ->
      check_str "reply" "re:fast" r;
      check "answered before its deadline" true
        (Int64.compare took (Time.sec 1) < 0))
    !replies

(* A client killed while it waits gives its id up, and its slot (whose
   cond still holds the dead task's waker) is never handed out again. *)
let test_rpc_killed_client () =
  let sched, rpc = rpc_world () in
  let victim =
    Sched.spawn ~name:"victim" ~daemon:true sched (fun () ->
        ignore (ask rpc "mute"))
  in
  let replies = ref [] in
  client sched (fun () ->
      Sched.sleep (Time.ms 10);
      Sched.kill sched victim;
      Sched.sleep (Time.ms 10);
      for _ = 1 to 3 do
        replies := timed sched (fun () -> ask rpc "fast") :: !replies
      done);
  check "victim killed" true (Sched.task_status victim = Some Sched.Killed);
  List.iter
    (fun (r, took) ->
      check_str "reply" "re:fast" r;
      check "prompt" true (prompt took))
    !replies

(* Round trip through the dispatcher with the server's own work. *)
let test_rpc_budget () =
  let words =
    Wd_testgen.Budget.words_per_iter (fun s mark ->
        let reg = Wd_env.Faultreg.create () in
        let res = Wd_ir.Runtime.create ~reg ~rng:(Wd_sim.Rng.create ~seed:4) in
        let rpc =
          Rpcq.create ~sched:s ~res ~request_queue:"rq" ~replies_queue:"rq.replies"
        in
        ignore (Rpcq.spawn_dispatcher rpc);
        ignore
          (Sched.spawn ~name:"server" ~daemon:true s (fun () ->
               let inq = Wd_ir.Runtime.queue res "rq" in
               let out = Wd_ir.Runtime.queue res "rq.replies" in
               let ok = VStr "ok" in
               while true do
                 match Wd_sim.Channel.recv inq with
                 | VMap ((_, id) :: _) ->
                     Wd_sim.Channel.send out (VMap [ ("id", id); ("data", ok) ])
                 | _ -> ()
               done));
        ignore
          (Sched.spawn ~name:"client" s (fun () ->
               for i = 0 to 2 * Wd_testgen.Budget.n do
                 mark i;
                 match Rpcq.request rpc [] with
                 | `Ok _ -> ()
                 | _ -> Alcotest.fail "no reply"
               done)))
  in
  Wd_testgen.Budget.check "Rpcq.request round trip" ~budget:96 words

let () =
  Alcotest.run "wd_targets"
    [
      ( "kvs",
        [
          Alcotest.test_case "set/get" `Quick test_kvs_set_get;
          Alcotest.test_case "append/del" `Quick test_kvs_append_del;
          Alcotest.test_case "missing key" `Quick test_kvs_missing_key_empty;
          Alcotest.test_case "requests leak no reply queue" `Quick
            test_kvs_requests_leak_no_queue;
          Alcotest.test_case "persistence pipeline" `Quick test_kvs_persistence_pipeline;
          Alcotest.test_case "in-memory mode" `Quick test_kvs_in_memory_no_disk;
          Alcotest.test_case "leak bug variant" `Quick test_kvs_leak_bug_grows_memory;
        ] );
      ( "zkmini",
        [
          Alcotest.test_case "create/get" `Quick test_zk_create_get;
          Alcotest.test_case "zxid monotonic" `Quick test_zk_zxid_monotonic;
          Alcotest.test_case "ruok" `Quick test_zk_ruok;
          Alcotest.test_case "late reply leaks no queue" `Quick
            test_zk_late_reply_no_queue;
          Alcotest.test_case "snapshots" `Quick test_zk_snapshot_after_snapcount;
          Alcotest.test_case "followers replicate" `Quick test_zk_followers_replicate;
        ] );
      ( "dfsmini",
        [
          Alcotest.test_case "put/read" `Quick test_dfs_put_read;
          Alcotest.test_case "missing block" `Quick test_dfs_read_missing_is_error_reply;
          Alcotest.test_case "scanner finds corruption" `Quick
            test_dfs_scanner_counts_corruption;
          Alcotest.test_case "scanner error handler" `Quick
            test_dfs_scanner_error_handler;
        ] );
      ( "cstore",
        [
          Alcotest.test_case "write/read" `Quick test_cs_write_read;
          Alcotest.test_case "flush to sstable" `Quick test_cs_flush_and_read_from_sstable;
          Alcotest.test_case "compaction" `Quick test_cs_compaction_runs;
        ] );
      ( "mqbroker",
        [
          Alcotest.test_case "produce/deliver" `Quick test_mq_produce_deliver;
          Alcotest.test_case "retention bounds segments" `Quick
            test_mq_retention_bounds_segments;
          Alcotest.test_case "stuck cleaner is silent" `Quick
            test_mq_cleaner_stuck_is_silent;
        ] );
      ( "rpcq",
        [
          Alcotest.test_case "two handles, one replies queue" `Quick
            test_rpc_shared_replies;
          Alcotest.test_case "duplicate id in flight raises" `Quick
            test_rpc_duplicate_id;
          Alcotest.test_case "late reply dropped" `Quick test_rpc_late_reply_dropped;
          Alcotest.test_case "expired slot not reused" `Quick
            test_rpc_expired_slot_not_reused;
          Alcotest.test_case "killed client's slot not reused" `Quick
            test_rpc_killed_client;
          Alcotest.test_case "round-trip budget" `Quick test_rpc_budget;
        ] );
    ]
