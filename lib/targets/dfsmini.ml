(* dfsmini — an HDFS-DataNode-like block store.

   Components: block receiver (client writes), directory scanner (periodic
   block + checksum verification, with an in-place error handler that logs
   and counts corrupt blocks), heartbeats to the namenode. The generated
   mimic checker for the receiver's write path is the moral equivalent of
   the enhanced HDFS disk checker the paper cites (HADOOP-13738): it
   creates a file and does real I/O the same way the DataNode does. *)

open Wd_ir
module B = Builder
open B.Infix

let node = "dn1"
let namenode = "nn"
let disk_name = "dfs.disk"
let net_name = "dfs.net"
let mem_name = "dfs.mem"
let request_queue = "dfs.blocks"
let replies_queue = "dfs.replies"

(* Store a block plus its checksum metadata and ack the namenode. *)
let write_block =
  B.func "write_block" ~params:[ "blkid"; "data" ]
    [
      B.let_ "blkpath" (B.prim "concat" [ B.s "blk/"; B.v "blkid" ]);
      B.disk_write ~disk:disk_name ~path:(B.v "blkpath") ~data:(B.v "data");
      B.let_ "meta"
        (B.prim "bytes_of_str"
           [ B.prim "str_of_int" [ B.prim "checksum" [ B.v "data" ] ] ]);
      B.let_ "metapath" (B.prim "concat" [ B.s "meta/"; B.v "blkid" ]);
      B.disk_write ~disk:disk_name ~path:(B.v "metapath") ~data:(B.v "meta");
      B.disk_sync ~disk:disk_name;
      B.net_send ~net:net_name ~dst:(B.s namenode)
        ~payload:(B.prim "concat" [ B.s "blockReceived:"; B.v "blkid" ]);
      B.return_unit;
    ]

let read_block =
  B.func "read_block" ~params:[ "blkid" ]
    [
      B.let_ "blkpath" (B.prim "concat" [ B.s "blk/"; B.v "blkid" ]);
      B.disk_read ~bind:"data" ~disk:disk_name ~path:(B.v "blkpath") ();
      B.return (B.v "data");
    ]

let receiver_loop =
  B.func "receiver_loop" ~params:[]
    [
      B.while_true
        [
          B.queue_get ~bind:"r" ~queue:request_queue ~timeout_ms:500 ();
          B.if_
            (B.prim "map_get_opt" [ B.v "r"; B.s "ok"; B.bconst false ])
            [
              B.let_ "req" (B.prim "map_get" [ B.v "r"; B.s "payload" ]);
              B.let_ "op" (B.prim "map_get_opt" [ B.v "req"; B.s "op"; B.s "" ]);
              B.let_ "blkid" (B.prim "map_get_opt" [ B.v "req"; B.s "blkid"; B.s "" ]);
              B.let_ "reply" (B.prim "map_get_opt" [ B.v "req"; B.s "reply"; B.s "" ]);
              B.if_ (B.v "op" =: B.s "put")
                [
                  B.let_ "payload"
                    (B.prim "map_get_opt" [ B.v "req"; B.s "data"; B.s "" ]);
                  B.let_ "data" (B.prim "bytes_of_str" [ B.v "payload" ]);
                  B.mem_alloc ~pool:mem_name ~size:(B.len (B.v "data") +: B.i 128);
                  B.call "write_block" [ B.v "blkid"; B.v "data" ];
                  B.mem_free ~pool:mem_name ~size:(B.len (B.v "data") +: B.i 128);
                  B.if_ (B.v "reply" <>: B.s "")
                    [ B.queue_put ~queue:replies_queue ~data:(Rpcq.reply (B.s "ok")) ]
                    [];
                ]
                [
                  B.if_ (B.v "op" =: B.s "read")
                    [
                      B.try_
                        [
                          B.call ~bind:"data" "read_block" [ B.v "blkid" ];
                          B.if_ (B.v "reply" <>: B.s "")
                            [
                              B.queue_put ~queue:replies_queue
                                ~data:
                                  (Rpcq.reply (B.prim "str_of_bytes" [ B.v "data" ]));
                            ]
                            [];
                        ]
                        ~exn:"e"
                        ~handler:
                          [
                            B.if_ (B.v "reply" <>: B.s "")
                              [
                                B.queue_put ~queue:replies_queue
                                  ~data:
                                    (Rpcq.reply
                                       (B.prim "concat" [ B.s "err:"; B.v "e" ]));
                              ]
                              [];
                          ];
                    ]
                    [ B.log (B.s "unknown dfs op") ];
                ];
            ]
            [];
        ];
    ]

(* DirectoryScanner: verify every block against its stored checksum. The
   mismatch branch is an error handler in the paper's sense — it mitigates
   a known error (quarantine + count) so the scan continues. *)
let scan_once =
  B.func "scan_once" ~params:[]
    [
      B.disk_list ~bind:"blocks" ~disk:disk_name ~prefix:(B.s "blk/") ();
      B.foreach "blkpath" (B.v "blocks")
        [
          B.try_
            [
              B.disk_read ~bind:"data" ~disk:disk_name ~path:(B.v "blkpath") ();
              (* recover the block id from its path: strip "blk/" *)
              B.let_ "metapath"
                (B.prim "concat"
                   [ B.s "meta/"; B.prim "str_drop" [ B.v "blkpath"; B.i 4 ] ]);
              B.disk_exists ~bind:"has_meta" ~disk:disk_name ~path:(B.v "metapath") ();
              B.if_ (B.v "has_meta")
                [
                  B.disk_read ~bind:"meta" ~disk:disk_name ~path:(B.v "metapath") ();
                  B.let_ "want" (B.prim "int_of_str" [ B.prim "str_of_bytes" [ B.v "meta" ] ]);
                  B.let_ "got" (B.prim "checksum" [ B.v "data" ]);
                  B.if_ (B.prim "not" [ B.v "want" =: B.v "got" ])
                    [
                      B.state_get ~bind:"cc" ~global:"dfs.corrupt_found";
                      B.state_set ~global:"dfs.corrupt_found" ~value:(B.v "cc" +: B.i 1);
                      B.log (B.s "corrupt block quarantined");
                    ]
                    [];
                ]
                [];
            ]
            ~exn:"e"
            ~handler:
              [
                B.state_get ~bind:"se" ~global:"dfs.scan_errors";
                B.state_set ~global:"dfs.scan_errors" ~value:(B.v "se" +: B.i 1);
                B.log (B.prim "concat" [ B.s "scan error: "; B.v "e" ]);
              ];
        ];
      B.return_unit;
    ]

let scanner_loop =
  B.func "scanner_loop" ~params:[]
    [ B.while_true [ B.sleep_ms 2000; B.call "scan_once" [] ] ]

let heartbeat_loop =
  B.func "heartbeat_loop" ~params:[]
    [
      B.while_true
        [
          B.sleep_ms 500;
          B.net_send ~net:net_name ~dst:(B.s namenode) ~payload:(B.s "hb:dn1");
        ];
    ]

(* Block-report: periodically tell the namenode what we store. *)
let report_loop =
  B.func "report_loop" ~params:[]
    [
      B.while_true
        [
          B.sleep_ms 3000;
          B.disk_list ~bind:"blocks" ~disk:disk_name ~prefix:(B.s "blk/") ();
          B.net_send ~net:net_name ~dst:(B.s namenode)
            ~payload:(B.prim "concat"
                        [ B.s "report:"; B.prim "str_of_int" [ B.len (B.v "blocks") ] ]);
        ];
    ]

let entries = [ "receiver"; "scanner"; "heartbeat"; "report" ]

let program () =
  B.program "dfsmini"
    ~funcs:
      [
        receiver_loop;
        write_block;
        read_block;
        scanner_loop;
        scan_once;
        heartbeat_loop;
        report_loop;
      ]
    ~entries:
      [
        B.entry "receiver" "receiver_loop";
        B.entry "scanner" "scanner_loop";
        B.entry "heartbeat" "heartbeat_loop";
        B.entry "report" "report_loop";
      ]

type t = {
  sched : Wd_sim.Sched.t;
  res : Runtime.resources;
  dn : Interp.t;
  disk : Wd_env.Disk.t;
  net : Ast.value Wd_env.Net.t;
  mem : Wd_env.Memory.t;
  rpc : Rpcq.t;
}

let boot ~sched ~reg ~prog () =
  let { Target_env.res; net; mem } =
    Target_env.create ~sched ~reg ~disks:[ disk_name ] ~net:net_name
      ~mem:mem_name ~mem_capacity:(128 * 1024 * 1024)
      ~endpoints:[ node; namenode ]
  in
  Runtime.set_global res "dfs.corrupt_found" (Ast.VInt 0);
  Runtime.set_global res "dfs.scan_errors" (Ast.VInt 0);
  let dn = Interp.create ~node ~res prog in
  let rpc = Rpcq.create ~sched ~res ~request_queue ~replies_queue in
  { sched; res; dn; disk = Runtime.disk res disk_name; net; mem; rpc }

let start t =
  let tasks = Interp.start ~entries t.dn t.sched in
  ignore (Rpcq.spawn_dispatcher t.rpc);
  tasks

let put_block ?timeout t ~blkid ~data =
  Rpcq.request ?timeout t.rpc
    [ ("op", Ast.VStr "put"); ("blkid", Ast.VStr blkid); ("data", Ast.VStr data) ]

let read_block_req ?timeout t ~blkid =
  Rpcq.request ?timeout t.rpc [ ("op", Ast.VStr "read"); ("blkid", Ast.VStr blkid) ]

let corrupt_found t =
  match Runtime.global t.res "dfs.corrupt_found" with Ast.VInt n -> n | _ -> 0

let scan_errors t =
  match Runtime.global t.res "dfs.scan_errors" with Ast.VInt n -> n | _ -> 0
