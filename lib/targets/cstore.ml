(* cstore — a Cassandra-like store: commit log + memtable on the write
   path, memtable flush to SSTables, and a background SSTable compaction
   task. The paper's motivating intrinsic check — "is the SSTable compaction
   background task stuck?" — corresponds to the generated mimic checkers of
   [compact_once]: a disk hang inside compaction blocks only this task, so
   reads and writes keep succeeding and every extrinsic detector stays
   green. *)

open Wd_ir
module B = Builder
open B.Infix

let node = "cs1"
let seed_node = "cs-seed"
let disk_name = "cs.disk"
let net_name = "cs.net"
let mem_name = "cs.mem"
let request_queue = "cs.requests"
let replies_queue = "cs.replies"
let memtable_flush_threshold = 8
let compaction_fanin = 3

let do_write =
  B.func "do_write" ~params:[ "key"; "value" ]
    [
      (* commit log first, then memtable *)
      B.let_ "entry"
        (B.prim "bytes_of_str"
           [ B.prim "concat" [ B.v "key"; B.s "="; B.v "value"; B.s "\n" ] ]);
      B.disk_append ~disk:disk_name ~path:(B.s "commitlog/log") ~data:(B.v "entry");
      B.sync "cs.memtable_lock"
        [
          B.state_get ~bind:"mt" ~global:"cs.memtable";
          B.state_set ~global:"cs.memtable"
            ~value:(B.prim "map_put" [ B.v "mt"; B.v "key"; B.v "value" ]);
        ];
      B.mem_alloc ~pool:mem_name ~size:(B.len (B.v "value") +: B.i 48);
      B.return_unit;
    ]

let do_read =
  B.func "do_read" ~params:[ "key" ]
    [
      B.sync "cs.memtable_lock" [ B.state_get ~bind:"mt" ~global:"cs.memtable" ];
      B.if_ (B.prim "map_mem" [ B.v "mt"; B.v "key" ])
        [ B.return (B.prim "map_get" [ B.v "mt"; B.v "key" ]) ]
        [];
      (* not in the memtable: consult the freshest SSTable index *)
      B.state_get ~bind:"sstidx" ~global:"cs.sstable_index";
      B.return (B.prim "map_get_opt" [ B.v "sstidx"; B.v "key"; B.s "" ]);
    ]

let write_loop =
  B.func "write_loop" ~params:[]
    [
      B.while_true
        [
          B.queue_get ~bind:"r" ~queue:request_queue ~timeout_ms:500 ();
          B.if_
            (B.prim "map_get_opt" [ B.v "r"; B.s "ok"; B.bconst false ])
            [
              B.let_ "req" (B.prim "map_get" [ B.v "r"; B.s "payload" ]);
              B.let_ "op" (B.prim "map_get_opt" [ B.v "req"; B.s "op"; B.s "" ]);
              B.let_ "key" (B.prim "map_get_opt" [ B.v "req"; B.s "key"; B.s "" ]);
              B.let_ "reply" (B.prim "map_get_opt" [ B.v "req"; B.s "reply"; B.s "" ]);
              B.if_ (B.v "op" =: B.s "write")
                [
                  B.let_ "value" (B.prim "map_get_opt" [ B.v "req"; B.s "value"; B.s "" ]);
                  B.call "do_write" [ B.v "key"; B.v "value" ];
                  B.if_ (B.v "reply" <>: B.s "")
                    [ B.queue_put ~queue:replies_queue ~data:(Rpcq.reply (B.s "ok")) ]
                    [];
                ]
                [
                  B.if_ (B.v "op" =: B.s "read")
                    [
                      B.call ~bind:"res" "do_read" [ B.v "key" ];
                      B.if_ (B.v "reply" <>: B.s "")
                        [
                          B.queue_put ~queue:replies_queue
                            ~data:(Rpcq.reply (B.prim "concat" [ B.s "val:"; B.v "res" ]));
                        ]
                        [];
                    ]
                    [ B.log (B.s "unknown cs op") ];
                ];
            ]
            [];
        ];
    ]

let flush_memtable =
  B.func "flush_memtable" ~params:[]
    [
      B.sync "cs.memtable_lock"
        [
          B.state_get ~bind:"mt" ~global:"cs.memtable";
          B.let_ "n" (B.prim "map_len" [ B.v "mt" ]);
          B.if_ (B.v "n" >=: B.i memtable_flush_threshold)
            [
              B.state_get ~bind:"gen" ~global:"cs.sstable_gen";
              B.state_set ~global:"cs.sstable_gen" ~value:(B.v "gen" +: B.i 1);
              B.let_ "path"
                (B.prim "concat" [ B.s "sst/"; B.prim "str_of_int" [ B.v "gen" ] ]);
              B.let_ "data" (B.prim "bytes_of_str" [ B.prim "serialize" [ B.v "mt" ] ]);
              B.compute_us 6 ~note:"sort and encode sstable";
              B.disk_write ~disk:disk_name ~path:(B.v "path") ~data:(B.v "data");
              (* summary sidecar in the same sstable family: folded away by
                 the similar-operation dedup *)
              B.disk_write ~disk:disk_name
                ~path:(B.prim "concat" [ B.v "path"; B.s ".summary" ])
                ~data:(B.prim "bytes_of_str"
                         [ B.prim "str_of_int" [ B.prim "map_len" [ B.v "mt" ] ] ]);
              B.disk_sync ~disk:disk_name;
              (* publish to the read path, then clear the memtable *)
              B.state_get ~bind:"sstidx" ~global:"cs.sstable_index";
              B.foreach "k" (B.prim "map_keys" [ B.v "mt" ])
                [
                  B.assign "sstidx"
                    (B.prim "map_put"
                       [ B.v "sstidx"; B.v "k"; B.prim "map_get" [ B.v "mt"; B.v "k" ] ]);
                ];
              B.state_set ~global:"cs.sstable_index" ~value:(B.v "sstidx");
              B.state_set ~global:"cs.memtable" ~value:(B.prim "map_empty" []);
              B.mem_free ~pool:mem_name ~size:(B.v "n" *: B.i 48);
            ]
            [];
        ];
      B.return_unit;
    ]

let flush_loop =
  B.func "flush_loop" ~params:[]
    [ B.while_true [ B.sleep_ms 300; B.call "flush_memtable" [] ] ]

(* The background compaction task: merge SSTables and drop the inputs.
   This is the paper's "silent failure in a compaction background task".
   The [spin_bug] variant loops forever on a condition it never changes —
   a pure infinite loop performing no vulnerable operations, so only the
   progress (context-staleness) checkers can see it. *)
let compact_once ~spin_bug =
  B.func "compact_once" ~params:[]
    [
      B.disk_list ~bind:"ssts" ~disk:disk_name ~prefix:(B.s "sst/") ();
      B.if_
        (B.len (B.v "ssts") >: B.i compaction_fanin)
        ((if spin_bug then
            (* latent bug: after a couple of healthy compactions, a stale
               loop condition spins forever *)
            [
              B.state_get ~bind:"done_so_far" ~global:"cs.compactions";
              B.if_
                (B.v "done_so_far" >=: B.i 2)
                [
                  B.while_
                    (B.len (B.v "ssts") >: B.i 0)
                    [ B.compute_us 20 ~note:"spinning on a stale condition" ];
                ]
                [];
            ]
          else [])
        @ [
          B.let_ "merged" (B.prim "bytes_of_str" [ B.s "" ]);
          B.foreach "sst" (B.v "ssts")
            [
              B.disk_read ~bind:"chunk" ~disk:disk_name ~path:(B.v "sst") ();
              B.assign "merged" (B.prim "bytes_cat" [ B.v "merged"; B.v "chunk" ]);
              B.compute_us 8 ~note:"merge rows";
            ];
          B.state_get ~bind:"gen" ~global:"cs.sstable_gen";
          B.state_set ~global:"cs.sstable_gen" ~value:(B.v "gen" +: B.i 1);
          B.let_ "cpath"
            (B.prim "concat" [ B.s "sst/"; B.prim "str_of_int" [ B.v "gen" ] ]);
          B.disk_write ~disk:disk_name ~path:(B.v "cpath") ~data:(B.v "merged");
          B.foreach "sst" (B.v "ssts")
            [ B.disk_delete ~disk:disk_name ~path:(B.v "sst") ];
          B.state_get ~bind:"cdone" ~global:"cs.compactions";
          B.state_set ~global:"cs.compactions" ~value:(B.v "cdone" +: B.i 1);
        ])
        [];
      B.return_unit;
    ]

let compaction_loop =
  B.func "compaction_loop" ~params:[]
    [ B.while_true [ B.sleep_ms 1000; B.call "compact_once" [] ] ]

let gossip_loop =
  B.func "gossip_loop" ~params:[]
    [
      B.while_true
        [
          B.sleep_ms 1000;
          B.net_send ~net:net_name ~dst:(B.s seed_node) ~payload:(B.s "gossip:cs1:alive");
        ];
    ]

let entries = [ "writer"; "flusher"; "compactor"; "gossip" ]

let program ?(spin_bug = false) () =
  B.program "cstore"
    ~funcs:
      [
        write_loop;
        do_write;
        do_read;
        flush_loop;
        flush_memtable;
        compaction_loop;
        compact_once ~spin_bug;
        gossip_loop;
      ]
    ~entries:
      [
        B.entry "writer" "write_loop";
        B.entry "flusher" "flush_loop";
        B.entry "compactor" "compaction_loop";
        B.entry "gossip" "gossip_loop";
      ]

type t = {
  sched : Wd_sim.Sched.t;
  res : Runtime.resources;
  main : Interp.t;
  disk : Wd_env.Disk.t;
  net : Ast.value Wd_env.Net.t;
  mem : Wd_env.Memory.t;
  rpc : Rpcq.t;
}

let boot ~sched ~reg ~prog () =
  let { Target_env.res; net; mem } =
    Target_env.create ~sched ~reg ~disks:[ disk_name ] ~net:net_name
      ~mem:mem_name ~mem_capacity:(64 * 1024 * 1024)
      ~endpoints:[ node; seed_node ]
  in
  Runtime.set_global res "cs.memtable" (Ast.VMap []);
  Runtime.set_global res "cs.sstable_index" (Ast.VMap []);
  Runtime.set_global res "cs.sstable_gen" (Ast.VInt 0);
  Runtime.set_global res "cs.compactions" (Ast.VInt 0);
  let main = Interp.create ~node ~res prog in
  let rpc = Rpcq.create ~sched ~res ~request_queue ~replies_queue in
  { sched; res; main; disk = Runtime.disk res disk_name; net; mem; rpc }

let start t =
  let tasks = Interp.start ~entries t.main t.sched in
  ignore (Rpcq.spawn_dispatcher t.rpc);
  tasks

let write ?timeout t ~key ~value =
  Rpcq.request ?timeout t.rpc
    [ ("op", Ast.VStr "write"); ("key", Ast.VStr key); ("value", Ast.VStr value) ]

let read ?timeout t ~key =
  Rpcq.request ?timeout t.rpc [ ("op", Ast.VStr "read"); ("key", Ast.VStr key) ]

let compactions t =
  match Runtime.global t.res "cs.compactions" with Ast.VInt n -> n | _ -> 0

let sstable_count t =
  List.length
    (List.filter
       (fun p -> String.length p >= 4 && String.sub p 0 4 = "sst/")
       (Wd_env.Disk.paths t.disk))
