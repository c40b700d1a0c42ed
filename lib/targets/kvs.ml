(* kvs — the paper's running example (Figure 1): a key-value store with a
   simple interface (GET, SET, APPEND, DEL) and complex internals — request
   listener, indexer, disk flusher, replication engine, compaction manager,
   snapshot writer, partition manager.

   The whole system is written in the IR so AutoWatchdog can analyse it.
   Two nodes run the same program: "kvs1" (leader: listener + background
   services) and "kvs2" (replica: apply loop). Clients talk to the leader
   through the "kvs.requests" queue and per-request reply mailboxes, which
   is what probe checkers use as the public API. *)

open Wd_ir
module B = Builder
open B.Infix

let request_queue = "kvs.requests"
let leader_node = "kvs1"
let replica_node = "kvs2"
let monitor_node = "monitor"
let disk_name = "kvs.disk"
let replica_disk_name = "kvs.disk2"
let net_name = "kvs.net"
let mem_name = "kvs.mem"

(* --- the IR program --- *)

let handle_get =
  B.func "handle_get" ~params:[ "key" ]
    [
      B.sync "kvs.index_lock"
        [ B.state_get ~bind:"idx" ~global:"kvs.index" ];
      B.state_get ~bind:"gets" ~global:"kvs.stats.gets";
      B.state_set ~global:"kvs.stats.gets" ~value:(B.v "gets" +: B.i 1);
      B.return (B.prim "map_get_opt" [ B.v "idx"; B.v "key"; B.s "" ]);
    ]

let replicate =
  B.func "replicate" ~params:[ "key"; "value" ]
    [
      B.let_ "payload"
        (B.prim "map_put"
           [
             B.prim "map_put" [ B.prim "map_empty" []; B.s "key"; B.v "key" ];
             B.s "value";
             B.v "value";
           ]);
      B.net_send ~net:net_name ~dst:(B.s replica_node) ~payload:(B.v "payload");
      B.return_unit;
    ]

let handle_set ~leak_bug ~deadlock_bug =
  B.func "handle_set" ~params:[ "key"; "value" ]
    ([
       B.compute_us 2 ~note:"validate request";
       B.sync "kvs.index_lock"
         ([
            B.state_get ~bind:"idx" ~global:"kvs.index";
            B.state_set ~global:"kvs.index"
              ~value:(B.prim "map_put" [ B.v "idx"; B.v "key"; B.v "value" ]);
          ]
         @
         if deadlock_bug then
           (* Bug variant: grabs the flush lock while holding the index
              lock — the reverse of the flusher's order (AB/BA cycle). *)
           [
             B.sleep_ms 1;
             B.sync "kvs.flush_lock"
               [ B.state_get ~bind:"__dirty_peek" ~global:"kvs.dirty" ];
           ]
         else []);
       B.mem_alloc ~pool:mem_name ~size:(B.len (B.v "value") +: B.i 64);
       B.state_get ~bind:"seq" ~global:"kvs.seq";
       B.state_set ~global:"kvs.seq" ~value:(B.v "seq" +: B.i 1);
       B.state_get ~bind:"inmem" ~global:"kvs.in_memory";
       B.if_ (B.not_ (B.v "inmem"))
         [
           B.let_ "entry"
             (B.prim "bytes_of_str"
                [ B.prim "concat" [ B.v "key"; B.s "="; B.v "value"; B.s ";" ] ]);
           B.disk_append ~disk:disk_name ~path:(B.s "wal/log") ~data:(B.v "entry");
         ]
         [];
       B.state_get ~bind:"dirty" ~global:"kvs.dirty";
       B.state_set ~global:"kvs.dirty"
         ~value:(B.prim "map_put" [ B.v "dirty"; B.v "key"; B.v "value" ]);
       B.call "replicate" [ B.v "key"; B.v "value" ];
       B.state_get ~bind:"sets" ~global:"kvs.stats.sets";
       B.state_set ~global:"kvs.stats.sets" ~value:(B.v "sets" +: B.i 1);
     ]
    @ (if leak_bug then
         (* Bug variant: the 64-byte request buffer is never released. *)
         []
       else [ B.mem_free ~pool:mem_name ~size:(B.i 64) ])
    @ [ B.return_unit ])

let handle_append =
  B.func "handle_append" ~params:[ "key"; "extra" ]
    [
      B.call ~bind:"old" "handle_get" [ B.v "key" ];
      B.call "handle_set" [ B.v "key"; B.v "old" ^: B.v "extra" ];
      B.return_unit;
    ]

let handle_del =
  B.func "handle_del" ~params:[ "key" ]
    [
      B.sync "kvs.index_lock"
        [
          B.state_get ~bind:"idx" ~global:"kvs.index";
          B.state_set ~global:"kvs.index"
            ~value:(B.prim "map_del" [ B.v "idx"; B.v "key" ]);
        ];
      B.mem_free ~pool:mem_name ~size:(B.i 64);
      B.return_unit;
    ]

let handle_request =
  B.func "handle_request" ~params:[ "req" ]
    [
      B.let_ "op" (B.prim "map_get_opt" [ B.v "req"; B.s "op"; B.s "" ]);
      B.let_ "key" (B.prim "map_get_opt" [ B.v "req"; B.s "key"; B.s "" ]);
      B.let_ "reply" (B.prim "map_get_opt" [ B.v "req"; B.s "reply"; B.s "" ]);
      B.if_ (B.v "op" =: B.s "set")
        [
          B.let_ "value" (B.prim "map_get_opt" [ B.v "req"; B.s "value"; B.s "" ]);
          B.call "handle_set" [ B.v "key"; B.v "value" ];
          B.if_ (B.v "reply" <>: B.s "")
            [ B.queue_put ~queue:"kvs.replies" ~data:(Rpcq.reply (B.s "ok")) ]
            [];
        ]
        [
          B.if_ (B.v "op" =: B.s "get")
            [
              B.call ~bind:"res" "handle_get" [ B.v "key" ];
              B.if_ (B.v "reply" <>: B.s "")
                [
                  B.queue_put ~queue:"kvs.replies"
                    ~data:(Rpcq.reply (B.s "val:" ^: B.v "res"));
                ]
                [];
            ]
            [
              B.if_ (B.v "op" =: B.s "append")
                [
                  B.let_ "value"
                    (B.prim "map_get_opt" [ B.v "req"; B.s "value"; B.s "" ]);
                  B.call "handle_append" [ B.v "key"; B.v "value" ];
                  B.if_ (B.v "reply" <>: B.s "")
                    [
                      B.queue_put ~queue:"kvs.replies"
                        ~data:(Rpcq.reply (B.s "ok"));
                    ]
                    [];
                ]
                [
                  B.if_ (B.v "op" =: B.s "del")
                    [
                      B.call "handle_del" [ B.v "key" ];
                      B.if_ (B.v "reply" <>: B.s "")
                        [
                          B.queue_put ~queue:"kvs.replies"
                            ~data:(Rpcq.reply (B.s "ok"));
                        ]
                        [];
                    ]
                    [ B.log (B.s "unknown op") ];
                ];
            ];
        ];
      B.return_unit;
    ]

let listener_loop =
  B.func "listener_loop" ~params:[]
    [
      B.log (B.s "kvs listener started");
      B.while_true
        [
          B.queue_get ~bind:"r" ~queue:request_queue ~timeout_ms:500 ();
          B.if_
            (B.prim "map_get_opt" [ B.v "r"; B.s "ok"; B.bconst false ])
            [
              B.let_ "req" (B.prim "map_get" [ B.v "r"; B.s "payload" ]);
              B.call "handle_request" [ B.v "req" ];
            ]
            [];
        ];
    ]

let flush_segment =
  B.func "flush_segment" ~params:[ "path"; "data" ]
    [
      B.disk_write ~disk:disk_name ~path:(B.v "path") ~data:(B.v "data");
      (* checksum sidecar: same device, same path family — the reduction's
         similar-operation dedup folds it into the segment-write checker *)
      B.let_ "ck"
        (B.prim "bytes_of_str"
           [ B.prim "str_of_int" [ B.prim "checksum" [ B.v "data" ] ] ]);
      B.disk_write ~disk:disk_name
        ~path:(B.prim "concat" [ B.v "path"; B.s ".ck" ])
        ~data:(B.v "ck");
      B.disk_sync ~disk:disk_name;
      B.return_unit;
    ]

let flush_once ~leak_bug ~deadlock_bug =
  B.func "flush_once" ~params:[]
    [
      B.state_get ~bind:"inmem" ~global:"kvs.in_memory";
      B.if_ (B.not_ (B.v "inmem"))
        [
          B.sync "kvs.flush_lock"
            ((if deadlock_bug then
                (* Bug variant: consults the index while holding the flush
                   lock — opposite order to [handle_set]'s. *)
                [
                  B.sleep_ms 1;
                  B.sync "kvs.index_lock"
                    [ B.state_get ~bind:"__idx_peek" ~global:"kvs.index" ];
                ]
              else [])
            @ [
               B.state_get ~bind:"dirty" ~global:"kvs.dirty";
               B.let_ "n" (B.prim "map_len" [ B.v "dirty" ]);
               B.if_ (B.v "n" >: B.i 0)
                 ([
                    B.state_get ~bind:"seq" ~global:"kvs.seq";
                    B.let_ "path"
                      (B.prim "concat" [ B.s "seg/"; B.prim "str_of_int" [ B.v "seq" ] ]);
                    B.let_ "data"
                      (B.prim "bytes_of_str" [ B.prim "serialize" [ B.v "dirty" ] ]);
                    B.compute_us 5 ~note:"encode segment";
                    B.call "flush_segment" [ B.v "path"; B.v "data" ];
                    (* defensive barrier, redundant with the callee's sync:
                       the global reduction elides it from the checkers *)
                    B.disk_sync ~disk:disk_name;
                    B.state_set ~global:"kvs.dirty" ~value:(B.prim "map_empty" []);
                    B.state_get ~bind:"parts" ~global:"kvs.parts";
                    B.state_set ~global:"kvs.parts"
                      ~value:(B.prim "list_append" [ B.v "parts"; B.prim "list_cons" [ B.v "path"; Ast.Const (Ast.VList []) ] ]);
                  ]
                 @
                 if leak_bug then []
                 else [ B.mem_free ~pool:mem_name ~size:(B.v "n" *: B.i 64) ])
                 [];
             ]);
        ]
        [];
      B.return_unit;
    ]

let flusher_loop =
  B.func "flusher_loop" ~params:[]
    [ B.while_true [ B.sleep_ms 200; B.call "flush_once" [] ] ]

let compact_once =
  B.func "compact_once" ~params:[]
    [
      B.disk_list ~bind:"segs" ~disk:disk_name ~prefix:(B.s "seg/") ();
      B.if_
        (B.len (B.v "segs") >: B.i 4)
        [
          B.let_ "merged" (B.prim "bytes_of_str" [ B.s "" ]);
          B.foreach "seg" (B.v "segs")
            [
              B.disk_read ~bind:"chunk" ~disk:disk_name ~path:(B.v "seg") ();
              B.assign "merged" (B.prim "bytes_cat" [ B.v "merged"; B.v "chunk" ]);
              B.compute_us 3 ~note:"merge sort runs";
            ];
          B.state_get ~bind:"seq" ~global:"kvs.seq";
          B.let_ "cpath"
            (B.prim "concat" [ B.s "compact/"; B.prim "str_of_int" [ B.v "seq" ] ]);
          B.disk_write ~disk:disk_name ~path:(B.v "cpath") ~data:(B.v "merged");
          B.foreach "seg" (B.v "segs")
            [ B.disk_delete ~disk:disk_name ~path:(B.v "seg") ];
          B.state_set ~global:"kvs.parts" ~value:(Ast.Const (Ast.VList []));
          (* Logically-deterministic invariant: partitions stay sorted. The
             paper argues this belongs to unit testing, not watchdogs. *)
          B.state_get ~bind:"parts" ~global:"kvs.parts";
          B.assert_ (B.prim "is_sorted" [ B.v "parts" ]) "partitions out of order";
        ]
        [];
      B.return_unit;
    ]

let compaction_loop =
  B.func "compaction_loop" ~params:[]
    [ B.while_true [ B.sleep_ms 1000; B.call "compact_once" [] ] ]

let serialize_snapshot =
  B.func "serialize_snapshot" ~params:[]
    [
      B.state_get ~bind:"inmem" ~global:"kvs.in_memory";
      B.if_ (B.not_ (B.v "inmem"))
        [
          B.state_get ~bind:"idx" ~global:"kvs.index";
          B.let_ "data" (B.prim "bytes_of_str" [ B.prim "serialize" [ B.v "idx" ] ]);
          B.sync "kvs.snap_lock"
            [
              B.disk_write ~disk:disk_name ~path:(B.s "snapshot/latest")
                ~data:(B.v "data");
            ];
        ]
        [];
      B.return_unit;
    ]

let snapshot_loop =
  B.func "snapshot_loop" ~params:[]
    [ B.while_true [ B.sleep_ms 2000; B.call "serialize_snapshot" [] ] ]

let heartbeat_loop =
  B.func "heartbeat_loop" ~params:[]
    [
      B.while_true
        [
          B.sleep_ms 500;
          B.net_send ~net:net_name ~dst:(B.s monitor_node) ~payload:(B.s "hb:kvs1");
        ];
    ]

let replica_loop =
  B.func "replica_loop" ~params:[]
    [
      B.while_true
        [
          B.net_recv ~bind:"m" ~net:net_name ~timeout_ms:500 ();
          B.if_
            (B.prim "map_get_opt" [ B.v "m"; B.s "ok"; B.bconst false ])
            [
              B.let_ "p" (B.prim "map_get" [ B.v "m"; B.s "payload" ]);
              B.let_ "key" (B.prim "map_get_opt" [ B.v "p"; B.s "key"; B.s "" ]);
              B.let_ "value" (B.prim "map_get_opt" [ B.v "p"; B.s "value"; B.s "" ]);
              B.state_get ~bind:"ridx" ~global:"kvs2.index";
              B.state_set ~global:"kvs2.index"
                ~value:(B.prim "map_put" [ B.v "ridx"; B.v "key"; B.v "value" ]);
              B.let_ "entry"
                (B.prim "bytes_of_str"
                   [ B.prim "concat" [ B.v "key"; B.s "="; B.v "value"; B.s ";" ] ]);
              B.disk_append ~disk:replica_disk_name ~path:(B.s "replica/wal")
                ~data:(B.v "entry");
            ]
            [];
        ];
    ]

(* Queue names are fixed strings in [Op] targets; the reply mailbox is
   chosen per request, so [handle_request] routes replies through a level
   of indirection: the IR writes to the well-known "kvs.replies" queue
   tagged with the reply id, and the [Rpcq] dispatcher below forwards each
   reply to its request's mailbox. *)

let leader_entries = [ "listener"; "flusher"; "compactor"; "snapshotter"; "heartbeat" ]
let replica_entries = [ "replica" ]

let program ?(leak_bug = false) ?(deadlock_bug = false) () =
  B.program "kvs"
    ~funcs:
      [
        listener_loop;
        handle_request;
        handle_set ~leak_bug ~deadlock_bug;
        handle_get;
        handle_append;
        handle_del;
        replicate;
        flusher_loop;
        flush_once ~leak_bug ~deadlock_bug;
        flush_segment;
        compaction_loop;
        compact_once;
        snapshot_loop;
        serialize_snapshot;
        heartbeat_loop;
        replica_loop;
      ]
    ~entries:
      [
        B.entry "listener" "listener_loop";
        B.entry "flusher" "flusher_loop";
        B.entry "compactor" "compaction_loop";
        B.entry "snapshotter" "snapshot_loop";
        B.entry "heartbeat" "heartbeat_loop";
        B.entry "replica" "replica_loop";
      ]

(* --- booted instance + client API --- *)

type t = {
  sched : Wd_sim.Sched.t;
  res : Runtime.resources;
  leader : Interp.t;
  replica : Interp.t;
  disk : Wd_env.Disk.t;
  replica_disk : Wd_env.Disk.t;
  net : Ast.value Wd_env.Net.t;
  mem : Wd_env.Memory.t;
  rpc : Rpcq.t;
}

let boot ?(in_memory = false) ?(mem_capacity = 64 * 1024 * 1024) ~sched
    ~reg ~prog () =
  let { Target_env.res; net; mem } =
    Target_env.create ~sched ~reg ~disks:[ disk_name; replica_disk_name ]
      ~net:net_name ~mem:mem_name ~mem_capacity
      ~endpoints:[ leader_node; replica_node; monitor_node ]
  in
  Runtime.set_global res "kvs.index" (Ast.VMap []);
  Runtime.set_global res "kvs2.index" (Ast.VMap []);
  Runtime.set_global res "kvs.dirty" (Ast.VMap []);
  Runtime.set_global res "kvs.parts" (Ast.VList []);
  Runtime.set_global res "kvs.seq" (Ast.VInt 0);
  Runtime.set_global res "kvs.stats.sets" (Ast.VInt 0);
  Runtime.set_global res "kvs.stats.gets" (Ast.VInt 0);
  Runtime.set_global res "kvs.in_memory" (Ast.VBool in_memory);
  let leader = Interp.create ~node:leader_node ~res prog in
  let replica = Interp.create ~node:replica_node ~res prog in
  {
    sched;
    res;
    leader;
    replica;
    disk = Runtime.disk res disk_name;
    replica_disk = Runtime.disk res replica_disk_name;
    net;
    mem;
    rpc = Rpcq.create ~sched ~res ~request_queue ~replies_queue:"kvs.replies";
  }

let start t =
  let leader_tasks = Interp.start ~entries:leader_entries t.leader t.sched in
  let replica_tasks = Interp.start ~entries:replica_entries t.replica t.sched in
  ignore (Rpcq.spawn_dispatcher t.rpc);
  leader_tasks @ replica_tasks

(* Client request over the public interface; used by workloads and probe
   checkers. Blocks the calling task until a reply or the timeout. *)
let request ?timeout t ~op ~key ~value =
  Rpcq.request ?timeout t.rpc
    [ ("op", Ast.VStr op); ("key", Ast.VStr key); ("value", Ast.VStr value) ]

let set ?timeout t ~key ~value = request ?timeout t ~op:"set" ~key ~value
let get ?timeout t ~key = request ?timeout t ~op:"get" ~key ~value:""
let append ?timeout t ~key ~value = request ?timeout t ~op:"append" ~key ~value
let del ?timeout t ~key = request ?timeout t ~op:"del" ~key ~value:""

let stats_sets t =
  match Runtime.global t.res "kvs.stats.sets" with Ast.VInt n -> n | _ -> 0
