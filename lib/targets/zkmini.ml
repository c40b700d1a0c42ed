(* zkmini — a ZooKeeper-like coordination service, structured to reproduce:

   - Figure 2's snapshot serialisation call chain
     (serialize_snapshot -> serialize -> serialize_node, with the vulnerable
     write inside a synchronized block);
   - the ZOOKEEPER-2201 gray failure (§4.2): a network fault blocks the
     leader's remote sync *inside the commit critical section*, hanging all
     write processing, while the heartbeat protocol and the admin command
     keep answering — so extrinsic detectors see a healthy leader.

   Leader pipeline: listener -> prep (zxid assignment) -> sync (txn log +
   quorum replication + periodic snapshot) -> final (apply + reply).
   Followers apply replicated txns to their own log. *)

open Wd_ir
module B = Builder
open B.Infix

let leader_node = "zkL"
let follower1 = "zkF1"
let follower2 = "zkF2"
let monitor_node = "zkmon"
let disk_name = "zk.disk"
let follower_disk_name = "zk.fdisk"
let net_name = "zk.net"
let mem_name = "zk.mem"
let request_queue = "zk.requests"
let admin_queue = "zk.admin"
let replies_queue = "zk.replies"
let snap_count = 20 (* txns between snapshots, like ZooKeeper's snapCount *)

let listener_loop =
  B.func "listener_loop" ~params:[]
    [
      B.while_true
        [
          B.queue_get ~bind:"r" ~queue:request_queue ~timeout_ms:500 ();
          B.if_
            (B.prim "map_get_opt" [ B.v "r"; B.s "ok"; B.bconst false ])
            [
              B.let_ "req" (B.prim "map_get" [ B.v "r"; B.s "payload" ]);
              B.compute_us 1 ~note:"session check";
              B.queue_put ~queue:"zk.prep_q" ~data:(B.v "req");
            ]
            [];
        ];
    ]

let prep_loop =
  B.func "prep_loop" ~params:[]
    [
      B.while_true
        [
          B.queue_get ~bind:"r" ~queue:"zk.prep_q" ~timeout_ms:500 ();
          B.if_
            (B.prim "map_get_opt" [ B.v "r"; B.s "ok"; B.bconst false ])
            [
              B.let_ "req" (B.prim "map_get" [ B.v "r"; B.s "payload" ]);
              B.state_get ~bind:"zxid" ~global:"zk.zxid";
              B.state_set ~global:"zk.zxid" ~value:(B.v "zxid" +: B.i 1);
              B.let_ "txn"
                (B.prim "map_put"
                   [ B.v "req"; B.s "zxid"; B.prim "str_of_int" [ B.v "zxid" ] ]);
              B.compute_us 2 ~note:"build txn header";
              B.queue_put ~queue:"zk.sync_q" ~data:(B.v "txn");
            ]
            [];
        ];
    ]

(* The commit path: log locally and replicate to the quorum while holding
   the commit lock — the critical section at the heart of ZOOKEEPER-2201. *)
let commit_txn =
  B.func "commit_txn" ~params:[ "txn" ]
    [
      B.let_ "entry" (B.prim "bytes_of_str" [ B.prim "serialize" [ B.v "txn" ] ]);
      B.sync "zk.commit_lock"
        [
          B.disk_append ~disk:disk_name ~path:(B.s "txnlog/log") ~data:(B.v "entry");
          B.net_send ~net:net_name ~dst:(B.s follower1) ~payload:(B.v "txn");
          B.net_send ~net:net_name ~dst:(B.s follower2) ~payload:(B.v "txn");
        ];
      B.return_unit;
    ]

let sync_loop =
  B.func "sync_loop" ~params:[]
    [
      B.while_true
        [
          B.queue_get ~bind:"r" ~queue:"zk.sync_q" ~timeout_ms:500 ();
          B.if_
            (B.prim "map_get_opt" [ B.v "r"; B.s "ok"; B.bconst false ])
            [
              B.let_ "txn" (B.prim "map_get" [ B.v "r"; B.s "payload" ]);
              B.call "commit_txn" [ B.v "txn" ];
              B.state_get ~bind:"tc" ~global:"zk.txncount";
              B.state_set ~global:"zk.txncount" ~value:(B.v "tc" +: B.i 1);
              B.if_
                ((B.v "tc" +: B.i 1) %: B.i snap_count =: B.i 0)
                [ B.call "serialize_snapshot" [] ]
                [];
              B.queue_put ~queue:"zk.final_q" ~data:(B.v "txn");
            ]
            [];
        ];
    ]

(* Figure 2's chain. serialize_node holds the node lock around the actual
   record write, as SyncRequestProcessor.serializeSnapshot does. *)
let serialize_snapshot =
  B.func "serialize_snapshot" ~params:[]
    [
      B.state_get ~bind:"zxid" ~global:"zk.zxid";
      B.let_ "snapname"
        (B.prim "concat" [ B.s "snapshot/snap."; B.prim "str_of_int" [ B.v "zxid" ] ]);
      B.call "serialize" [ B.v "snapname" ];
      B.return_unit;
    ]

let serialize =
  B.func "serialize" ~params:[ "path" ]
    [
      B.state_set ~global:"zk.scount" ~value:(B.i 0);
      B.call "serialize_node" [ B.v "path" ];
      B.return_unit;
    ]

let serialize_node =
  B.func "serialize_node" ~params:[ "path" ]
    [
      B.state_get ~bind:"tree" ~global:"zk.tree";
      B.let_ "data" (B.prim "bytes_of_str" [ B.prim "serialize" [ B.v "tree" ] ]);
      B.sync "zk.node_lock"
        [
          B.state_get ~bind:"sc" ~global:"zk.scount";
          B.state_set ~global:"zk.scount" ~value:(B.v "sc" +: B.i 1);
          B.disk_write ~disk:disk_name ~path:(B.v "path") ~data:(B.v "data");
          (* ACL record in the same snapshot family (similar op, deduped) *)
          B.disk_write ~disk:disk_name
            ~path:(B.prim "concat" [ B.v "path"; B.s ".acl" ])
            ~data:(B.prim "bytes_of_str" [ B.s "world:anyone" ]);
        ];
      B.compute_us 4 ~note:"serialize children";
      B.return_unit;
    ]

let final_loop =
  B.func "final_loop" ~params:[]
    [
      B.while_true
        [
          B.queue_get ~bind:"r" ~queue:"zk.final_q" ~timeout_ms:500 ();
          B.if_
            (B.prim "map_get_opt" [ B.v "r"; B.s "ok"; B.bconst false ])
            [
              B.let_ "txn" (B.prim "map_get" [ B.v "r"; B.s "payload" ]);
              B.let_ "op" (B.prim "map_get_opt" [ B.v "txn"; B.s "op"; B.s "" ]);
              B.let_ "path" (B.prim "map_get_opt" [ B.v "txn"; B.s "path"; B.s "" ]);
              B.let_ "reply" (B.prim "map_get_opt" [ B.v "txn"; B.s "reply"; B.s "" ]);
              B.if_ (B.v "op" =: B.s "create")
                [
                  B.let_ "data" (B.prim "map_get_opt" [ B.v "txn"; B.s "data"; B.s "" ]);
                  B.state_get ~bind:"tree" ~global:"zk.tree";
                  B.state_set ~global:"zk.tree"
                    ~value:(B.prim "map_put" [ B.v "tree"; B.v "path"; B.v "data" ]);
                  B.mem_alloc ~pool:mem_name ~size:(B.len (B.v "data") +: B.i 32);
                  B.if_ (B.v "reply" <>: B.s "")
                    [ B.queue_put ~queue:replies_queue ~data:(Rpcq.reply (B.s "ok")) ]
                    [];
                ]
                [
                  B.if_ (B.v "op" =: B.s "get")
                    [
                      B.state_get ~bind:"tree" ~global:"zk.tree";
                      B.let_ "res"
                        (B.prim "map_get_opt" [ B.v "tree"; B.v "path"; B.s "" ]);
                      B.if_ (B.v "reply" <>: B.s "")
                        [
                          B.queue_put ~queue:replies_queue
                            ~data:(Rpcq.reply (B.s "val:" ^: B.v "res"));
                        ]
                        [];
                    ]
                    [ B.log (B.s "unknown zk op") ];
                ];
            ]
            [];
        ];
    ]

(* Read path served without touching the write pipeline: reads stay healthy
   during ZK-2201, making the failure gray. *)

let ping_loop =
  B.func "ping_loop" ~params:[]
    [
      B.while_true
        [
          B.sleep_ms 500;
          B.net_send ~net:net_name ~dst:(B.s monitor_node) ~payload:(B.s "ping:zkL");
        ];
    ]

(* The admin "ruok" command: served by its own thread, independent of the
   request pipeline — answers "imok" even while writes hang (§4.2). *)
let admin_loop =
  B.func "admin_loop" ~params:[]
    [
      B.while_true
        [
          B.queue_get ~bind:"r" ~queue:admin_queue ~timeout_ms:500 ();
          B.if_
            (B.prim "map_get_opt" [ B.v "r"; B.s "ok"; B.bconst false ])
            [
              B.let_ "req" (B.prim "map_get" [ B.v "r"; B.s "payload" ]);
              B.let_ "reply" (B.prim "map_get_opt" [ B.v "req"; B.s "reply"; B.s "" ]);
              B.if_ (B.v "reply" <>: B.s "")
                [ B.queue_put ~queue:replies_queue ~data:(Rpcq.reply (B.s "imok")) ]
                [];
            ]
            [];
        ];
    ]

let follower_loop =
  B.func "follower_loop" ~params:[ "tag" ]
    [
      B.while_true
        [
          B.net_recv ~bind:"m" ~net:net_name ~timeout_ms:500 ();
          B.if_
            (B.prim "map_get_opt" [ B.v "m"; B.s "ok"; B.bconst false ])
            [
              B.let_ "txn" (B.prim "map_get" [ B.v "m"; B.s "payload" ]);
              B.let_ "entry" (B.prim "bytes_of_str" [ B.prim "serialize" [ B.v "txn" ] ]);
              B.let_ "logpath" (B.prim "concat" [ B.s "txnlog/"; B.v "tag" ]);
              B.disk_append ~disk:follower_disk_name ~path:(B.v "logpath")
                ~data:(B.v "entry");
              B.compute_us 2 ~note:"apply txn";
            ]
            [];
        ];
    ]

let leader_entries =
  [ "listener"; "prep"; "sync"; "final"; "ping"; "admin" ]

let program () =
  B.program "zkmini"
    ~funcs:
      [
        listener_loop;
        prep_loop;
        sync_loop;
        commit_txn;
        serialize_snapshot;
        serialize;
        serialize_node;
        final_loop;
        ping_loop;
        admin_loop;
        follower_loop;
      ]
    ~entries:
      [
        B.entry "listener" "listener_loop";
        B.entry "prep" "prep_loop";
        B.entry "sync" "sync_loop";
        B.entry "final" "final_loop";
        B.entry "ping" "ping_loop";
        B.entry "admin" "admin_loop";
        B.entry "follower1" "follower_loop" ~args:[ Ast.VStr "f1" ];
        B.entry "follower2" "follower_loop" ~args:[ Ast.VStr "f2" ];
      ]

type t = {
  sched : Wd_sim.Sched.t;
  res : Runtime.resources;
  leader : Interp.t;
  f1 : Interp.t;
  f2 : Interp.t;
  disk : Wd_env.Disk.t;
  fdisk : Wd_env.Disk.t;
  net : Ast.value Wd_env.Net.t;
  mem : Wd_env.Memory.t;
  rpc : Rpcq.t;
  admin_rpc : Rpcq.t;
}

let boot ~sched ~reg ~prog () =
  let { Target_env.res; net; mem } =
    Target_env.create ~sched ~reg ~disks:[ disk_name; follower_disk_name ]
      ~net:net_name ~mem:mem_name ~mem_capacity:(64 * 1024 * 1024)
      ~endpoints:[ leader_node; follower1; follower2; monitor_node ]
  in
  Runtime.set_global res "zk.zxid" (Ast.VInt 0);
  Runtime.set_global res "zk.txncount" (Ast.VInt 0);
  Runtime.set_global res "zk.scount" (Ast.VInt 0);
  Runtime.set_global res "zk.tree" (Ast.VMap []);
  let leader = Interp.create ~node:leader_node ~res prog in
  let f1 = Interp.create ~node:follower1 ~res prog in
  let f2 = Interp.create ~node:follower2 ~res prog in
  {
    sched;
    res;
    leader;
    f1;
    f2;
    disk = Runtime.disk res disk_name;
    fdisk = Runtime.disk res follower_disk_name;
    net;
    mem;
    rpc = Rpcq.create ~sched ~res ~request_queue ~replies_queue;
    admin_rpc =
      Rpcq.create ~sched ~res ~request_queue:admin_queue ~replies_queue;
  }

let start t =
  let l = Interp.start ~entries:leader_entries t.leader t.sched in
  let a = Interp.start ~entries:[ "follower1" ] t.f1 t.sched in
  let b = Interp.start ~entries:[ "follower2" ] t.f2 t.sched in
  ignore (Rpcq.spawn_dispatcher t.rpc);
  l @ a @ b

let create ?timeout t ~path ~data =
  Rpcq.request ?timeout t.rpc
    [ ("op", Ast.VStr "create"); ("path", Ast.VStr path); ("data", Ast.VStr data) ]

let get ?timeout t ~path =
  Rpcq.request ?timeout t.rpc [ ("op", Ast.VStr "get"); ("path", Ast.VStr path) ]

(* The admin `ruok` four-letter command. *)
let ruok ?timeout t = Rpcq.request ?timeout t.admin_rpc [ ("op", Ast.VStr "ruok") ]

let zxid t =
  match Runtime.global t.res "zk.zxid" with Ast.VInt n -> n | _ -> 0

let txncount t =
  match Runtime.global t.res "zk.txncount" with Ast.VInt n -> n | _ -> 0
