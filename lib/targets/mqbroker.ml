(* mqbroker — a Kafka-like single-partition message broker.

   Producers append records to segment files through the broker's log lock;
   a delivery loop reads records back from the segments and pushes them to
   the consumer endpoint; a retention cleaner deletes old segments once the
   partition grows past its budget; a stats loop gossips to a monitor.

   Its gray failures complement the other targets:
   - a silently stuck retention cleaner (only the disk fills — producers and
     consumers keep succeeding);
   - a consumer delivery link that blocks the sender (producers unaffected,
     consumers starve — invisible to producer-side observers);
   - silent append corruption, caught by the append read-back recipe. *)

open Wd_ir
module B = Builder
open B.Infix

let node = "mq1"
let consumer_node = "consumer1"
let monitor_node = "mqmon"
let disk_name = "mq.disk"
let net_name = "mq.net"
let mem_name = "mq.mem"
let request_queue = "mq.produce"
let replies_queue = "mq.replies"
let records_per_segment = 50
let retention_segments = 6

(* Offset -> segment path, shared by the producer and delivery paths.
   Segment numbers are zero-padded so that lexicographic directory order is
   numeric age order — the retention cleaner deletes the oldest segment by
   taking the listing's head. (The unpadded version was a real bug this
   repo's own progress checkers caught: "seg.14" sorts before "seg.2", so
   the cleaner deleted the segment still being delivered.) *)
let segment_path =
  B.func "segment_path" ~params:[ "offset" ]
    [
      B.return
        (B.prim "concat"
           [
             B.s "part0/seg.";
             B.prim "pad_left"
               [
                 B.prim "str_of_int" [ B.v "offset" /: B.i records_per_segment ];
                 B.i 8;
                 B.s "0";
               ];
           ]);
    ]

let handle_produce =
  B.func "handle_produce" ~params:[ "payload" ]
    [
      B.sync "mq.log_lock"
        [
          B.state_get ~bind:"off" ~global:"mq.next_offset";
          B.state_set ~global:"mq.next_offset" ~value:(B.v "off" +: B.i 1);
          B.call ~bind:"seg" "segment_path" [ B.v "off" ];
          B.let_ "record"
            (B.prim "bytes_of_str"
               [
                 B.prim "concat"
                   [ B.prim "str_of_int" [ B.v "off" ]; B.s ":"; B.v "payload"; B.s "|" ];
               ]);
          B.disk_append ~disk:disk_name ~path:(B.v "seg") ~data:(B.v "record");
        ];
      B.mem_alloc ~pool:mem_name ~size:(B.len (B.v "payload") +: B.i 32);
      B.mem_free ~pool:mem_name ~size:(B.len (B.v "payload") +: B.i 32);
      B.return_unit;
    ]

let produce_loop =
  B.func "produce_loop" ~params:[]
    [
      B.while_true
        [
          B.queue_get ~bind:"r" ~queue:request_queue ~timeout_ms:500 ();
          B.if_
            (B.prim "map_get_opt" [ B.v "r"; B.s "ok"; B.bconst false ])
            [
              B.let_ "req" (B.prim "map_get" [ B.v "r"; B.s "payload" ]);
              B.let_ "payload" (B.prim "map_get_opt" [ B.v "req"; B.s "data"; B.s "" ]);
              B.let_ "reply" (B.prim "map_get_opt" [ B.v "req"; B.s "reply"; B.s "" ]);
              B.call "handle_produce" [ B.v "payload" ];
              B.if_ (B.v "reply" <>: B.s "")
                [ B.queue_put ~queue:replies_queue ~data:(Rpcq.reply (B.s "ok")) ]
                [];
            ]
            [];
        ];
    ]

(* Push undelivered records to the consumer, one segment-read per batch. *)
let deliver_once =
  B.func "deliver_once" ~params:[]
    [
      B.state_get ~bind:"sent" ~global:"mq.delivered_offset";
      B.state_get ~bind:"next" ~global:"mq.next_offset";
      B.if_ (B.v "sent" <: B.v "next")
        [
          B.call ~bind:"seg" "segment_path" [ B.v "sent" ];
          B.disk_exists ~bind:"have" ~disk:disk_name ~path:(B.v "seg") ();
          B.if_ (B.v "have")
            [
              B.disk_read ~bind:"batch" ~disk:disk_name ~path:(B.v "seg") ();
              B.net_send ~net:net_name ~dst:(B.s consumer_node)
                ~payload:(B.prim "str_of_bytes" [ B.v "batch" ]);
              (* advance to the end of the delivered segment *)
              B.state_set ~global:"mq.delivered_offset"
                ~value:
                  (B.prim "min"
                     [
                       B.v "next";
                       (B.v "sent" /: B.i records_per_segment +: B.i 1)
                       *: B.i records_per_segment;
                     ]);
            ]
            [];
        ]
        [];
      B.return_unit;
    ]

let deliver_loop =
  B.func "deliver_loop" ~params:[]
    [ B.while_true [ B.sleep_ms 100; B.call "deliver_once" [] ] ]

(* Retention: drop the oldest segments once the partition outgrows its
   budget — the background task that can wedge silently. *)
let clean_once =
  B.func "clean_once" ~params:[]
    [
      B.disk_list ~bind:"segs" ~disk:disk_name ~prefix:(B.s "part0/") ();
      B.if_
        (B.len (B.v "segs") >: B.i retention_segments)
        [
          B.let_ "victim" (B.prim "list_head" [ B.v "segs" ]);
          B.disk_delete ~disk:disk_name ~path:(B.v "victim");
          B.state_get ~bind:"rc" ~global:"mq.retention_runs";
          B.state_set ~global:"mq.retention_runs" ~value:(B.v "rc" +: B.i 1);
        ]
        [];
      B.return_unit;
    ]

let cleaner_loop =
  B.func "cleaner_loop" ~params:[]
    [ B.while_true [ B.sleep_ms 1000; B.call "clean_once" [] ] ]

let stats_loop =
  B.func "stats_loop" ~params:[]
    [
      B.while_true
        [
          B.sleep_ms 500;
          B.state_get ~bind:"next" ~global:"mq.next_offset";
          B.net_send ~net:net_name ~dst:(B.s monitor_node)
            ~payload:
              (B.prim "concat"
                 [ B.s "mqstats:mq1:"; B.prim "str_of_int" [ B.v "next" ] ]);
        ];
    ]

(* Consumer node: count delivered batches. *)
let consumer_loop =
  B.func "consumer_loop" ~params:[]
    [
      B.while_true
        [
          B.net_recv ~bind:"m" ~net:net_name ~timeout_ms:500 ();
          B.if_
            (B.prim "map_get_opt" [ B.v "m"; B.s "ok"; B.bconst false ])
            [
              B.state_get ~bind:"got" ~global:"mq.batches_received";
              B.state_set ~global:"mq.batches_received" ~value:(B.v "got" +: B.i 1);
              B.compute_us 3 ~note:"process batch";
            ]
            [];
        ];
    ]

let broker_entries = [ "producer"; "deliverer"; "cleaner"; "stats" ]
let consumer_entries = [ "consumer" ]

let program () =
  B.program "mqbroker"
    ~funcs:
      [
        produce_loop;
        handle_produce;
        segment_path;
        deliver_loop;
        deliver_once;
        cleaner_loop;
        clean_once;
        stats_loop;
        consumer_loop;
      ]
    ~entries:
      [
        B.entry "producer" "produce_loop";
        B.entry "deliverer" "deliver_loop";
        B.entry "cleaner" "cleaner_loop";
        B.entry "stats" "stats_loop";
        B.entry "consumer" "consumer_loop";
      ]

type t = {
  sched : Wd_sim.Sched.t;
  res : Runtime.resources;
  broker : Interp.t;
  consumer : Interp.t;
  disk : Wd_env.Disk.t;
  net : Ast.value Wd_env.Net.t;
  mem : Wd_env.Memory.t;
  rpc : Rpcq.t;
}

let boot ~sched ~reg ~prog () =
  let { Target_env.res; net; mem } =
    Target_env.create ~sched ~reg ~disks:[ disk_name ] ~net:net_name
      ~mem:mem_name ~mem_capacity:(64 * 1024 * 1024)
      ~endpoints:[ node; consumer_node; monitor_node ]
  in
  Runtime.set_global res "mq.next_offset" (Ast.VInt 0);
  Runtime.set_global res "mq.delivered_offset" (Ast.VInt 0);
  Runtime.set_global res "mq.retention_runs" (Ast.VInt 0);
  Runtime.set_global res "mq.batches_received" (Ast.VInt 0);
  let broker = Interp.create ~node ~res prog in
  let consumer = Interp.create ~node:consumer_node ~res prog in
  let rpc = Rpcq.create ~sched ~res ~request_queue ~replies_queue in
  {
    sched;
    res;
    broker;
    consumer;
    disk = Runtime.disk res disk_name;
    net;
    mem;
    rpc;
  }

let start t =
  let b = Interp.start ~entries:broker_entries t.broker t.sched in
  let c = Interp.start ~entries:consumer_entries t.consumer t.sched in
  ignore (Rpcq.spawn_dispatcher t.rpc);
  b @ c

let produce ?timeout t ~data =
  Rpcq.request ?timeout t.rpc [ ("op", Ast.VStr "produce"); ("data", Ast.VStr data) ]

let next_offset t =
  match Runtime.global t.res "mq.next_offset" with Ast.VInt n -> n | _ -> 0

let delivered_offset t =
  match Runtime.global t.res "mq.delivered_offset" with Ast.VInt n -> n | _ -> 0

let batches_received t =
  match Runtime.global t.res "mq.batches_received" with Ast.VInt n -> n | _ -> 0

let retention_runs t =
  match Runtime.global t.res "mq.retention_runs" with Ast.VInt n -> n | _ -> 0

let segment_count t =
  List.length
    (List.filter
       (fun p -> String.length p >= 6 && String.sub p 0 6 = "part0/")
       (Wd_env.Disk.paths t.disk))
