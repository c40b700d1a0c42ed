(* Tests for the simulated environment: fault registry, disk, network,
   memory. Env operations block, so each test body runs inside a task. *)

open Wd_env
module Sched = Wd_sim.Sched
module Time = Wd_sim.Time

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length sub in
  let found = ref false in
  if n = 0 then found := true
  else
    for i = 0 to String.length s - n do
      if String.sub s i n = sub then found := true
    done;
  !found

(* Run [f] as the sole task of a fresh simulation. *)
let in_sim ?(seed = 1) f =
  let s = Sched.create ~seed () in
  let reg = Faultreg.create () in
  let failed = ref None in
  ignore
    (Sched.spawn ~name:"test" s (fun () -> try f s reg with e -> failed := Some e));
  ignore (Sched.run s);
  match !failed with Some e -> raise e | None -> ()

let mkdisk ?seed:(s = 2) reg = Disk.create ~reg ~rng:(Wd_sim.Rng.create ~seed:s) "d"
let mknet reg = Net.create ~reg ~rng:(Wd_sim.Rng.create ~seed:3) "n"

(* --- fault registry --- *)

let test_site_matching () =
  check "exact" true
    (Faultreg.site_matches ~pattern:"disk:d:write:/a" ~site:"disk:d:write:/a");
  check "exact mismatch" false
    (Faultreg.site_matches ~pattern:"disk:d:write:/a" ~site:"disk:d:write:/b");
  check "wildcard" true
    (Faultreg.site_matches ~pattern:"disk:d:write:*" ~site:"disk:d:write:/a/b");
  check "wildcard prefix" true (Faultreg.site_matches ~pattern:"*" ~site:"anything");
  check "wildcard mismatch" false
    (Faultreg.site_matches ~pattern:"disk:d:read:*" ~site:"disk:d:write:/a")

let fault ?(id = "f1") ?(start_at = 0L) ?(stop_at = Time.never) ?(once = false)
    pattern behaviour =
  { Faultreg.id; site_pattern = pattern; behaviour; start_at; stop_at; once }

let test_fault_window () =
  let reg = Faultreg.create () in
  Faultreg.inject reg
    (fault ~start_at:(Time.sec 5) ~stop_at:(Time.sec 10) "x:*" (Faultreg.Error "e"));
  check_int "before window" 0
    (List.length (Faultreg.consult reg ~site:"x:y" ~now:(Time.sec 1)));
  check_int "inside window" 1
    (List.length (Faultreg.consult reg ~site:"x:y" ~now:(Time.sec 7)));
  check_int "after window" 0
    (List.length (Faultreg.consult reg ~site:"x:y" ~now:(Time.sec 12)))

let test_fault_once () =
  let reg = Faultreg.create () in
  Faultreg.inject reg (fault ~once:true "x:*" (Faultreg.Error "e"));
  check_int "first trigger" 1 (List.length (Faultreg.consult reg ~site:"x:1" ~now:1L));
  check_int "spent afterwards" 0
    (List.length (Faultreg.consult reg ~site:"x:2" ~now:2L))

let test_fault_triggers_logged () =
  let reg = Faultreg.create () in
  Faultreg.inject reg (fault "x:*" Faultreg.Corrupt);
  ignore (Faultreg.consult reg ~site:"x:a" ~now:5L);
  ignore (Faultreg.consult reg ~site:"x:b" ~now:9L);
  check_int "two triggers" 2 (List.length (Faultreg.triggers reg));
  check "first instant" true (Faultreg.first_trigger reg ~id:"f1" = Some 5L)

(* --- disk --- *)

let test_disk_roundtrip () =
  in_sim (fun _s reg ->
      let d = mkdisk reg in
      Disk.write d ~path:"a/b" (Bytes.of_string "hello");
      let back = Disk.read d ~path:"a/b" in
      Alcotest.(check string) "roundtrip" "hello" (Bytes.to_string back);
      check "exists" true (Disk.exists d ~path:"a/b");
      check "not exists" false (Disk.exists d ~path:"a/c"))

let test_disk_append () =
  in_sim (fun _s reg ->
      let d = mkdisk reg in
      Disk.append d ~path:"log" (Bytes.of_string "one,");
      Disk.append d ~path:"log" (Bytes.of_string "two");
      Alcotest.(check string) "appended" "one,two"
        (Bytes.to_string (Disk.read d ~path:"log")))

let test_disk_list_delete () =
  in_sim (fun _s reg ->
      let d = mkdisk reg in
      List.iter
        (fun p -> Disk.write d ~path:p (Bytes.of_string "x"))
        [ "seg/2"; "seg/1"; "other/3" ];
      Alcotest.(check (list string)) "prefix list" [ "seg/1"; "seg/2" ]
        (Disk.list d ~prefix:"seg/");
      Disk.delete d ~path:"seg/1";
      Alcotest.(check (list string)) "after delete" [ "seg/2" ]
        (Disk.list d ~prefix:"seg/"))

let test_disk_list_prefix_edges () =
  in_sim (fun _s reg ->
      let d = mkdisk reg in
      List.iter
        (fun p -> Disk.write d ~path:p (Bytes.of_string "x"))
        [ "se"; "seg"; "seg/1"; "sex" ];
      (* a path shorter than the prefix is never listed; one equal to it
         is *)
      Alcotest.(check (list string)) "shorter skipped, equal listed"
        [ "seg"; "seg/1" ] (Disk.list d ~prefix:"seg");
      Alcotest.(check (list string)) "only the exact path" [ "seg/1" ]
        (Disk.list d ~prefix:"seg/1");
      Alcotest.(check (list string)) "empty prefix lists all"
        [ "se"; "seg"; "seg/1"; "sex" ] (Disk.list d ~prefix:""))

let test_disk_read_missing () =
  in_sim (fun _s reg ->
      let d = mkdisk reg in
      match Disk.read d ~path:"ghost" with
      | _ -> Alcotest.fail "expected Io_error"
      | exception Disk.Io_error m -> check "mentions file" true (String.length m > 0))

let test_disk_latency_model () =
  in_sim (fun s reg ->
      let d = mkdisk reg in
      let t0 = Sched.now s in
      Disk.write d ~path:"f" (Bytes.create 1000);
      let elapsed = Int64.sub (Sched.now s) t0 in
      (* seek 100us + 2ns/B * 1000 >= 102us, plus jitter *)
      check "charged at least the model" true (elapsed >= Time.us 102))

let test_disk_error_fault () =
  in_sim (fun _s reg ->
      let d = mkdisk reg in
      Faultreg.inject reg (fault "disk:d:write:bad/*" (Faultreg.Error "EIO"));
      Disk.write d ~path:"good/1" (Bytes.of_string "x");
      match Disk.write d ~path:"bad/1" (Bytes.of_string "x") with
      | _ -> Alcotest.fail "expected Io_error"
      | exception Disk.Io_error m -> check "EIO mentioned" true (contains m "EIO"))

let test_disk_corrupt_fault_is_silent () =
  in_sim (fun _s reg ->
      let d = mkdisk reg in
      Faultreg.inject reg (fault "disk:d:write:*" Faultreg.Corrupt);
      let data = Bytes.of_string "pristine-data" in
      Disk.write d ~path:"f" data;
      (* the write "succeeded", but the stored bytes differ *)
      let stored = Option.get (Disk.peek d ~path:"f") in
      check "silently damaged" false (Bytes.equal data stored);
      check "same length" true (Bytes.length data = Bytes.length stored))

let test_disk_slow_fault () =
  in_sim (fun s reg ->
      let d = mkdisk reg in
      let t0 = Sched.now s in
      Disk.write d ~path:"f" (Bytes.of_string "x");
      let normal = Int64.sub (Sched.now s) t0 in
      Faultreg.inject reg (fault "disk:d:*" (Faultreg.Slow_factor 100.));
      let t1 = Sched.now s in
      Disk.write d ~path:"f" (Bytes.of_string "x");
      let slow = Int64.sub (Sched.now s) t1 in
      check "much slower" true (slow > Int64.mul 20L normal))

let test_disk_hang_until_window_closes () =
  in_sim (fun s reg ->
      let d = mkdisk reg in
      Faultreg.inject reg (fault ~stop_at:(Time.sec 3) "disk:d:write:*" Faultreg.Hang);
      let t0 = Sched.now s in
      Disk.write d ~path:"f" (Bytes.of_string "x");
      check "blocked until the fault lifted" true
        (Int64.sub (Sched.now s) t0 >= Time.sec 2))

let test_disk_as_path_site_override () =
  in_sim (fun _s reg ->
      let d = mkdisk reg in
      Faultreg.inject reg (fault "disk:d:write:real/*" (Faultreg.Error "EIO"));
      (* writing to a scratch location but matching the real site *)
      (match
         Disk.write ~as_path:"real/x" d ~path:"__wd/real/x" (Bytes.of_string "y")
       with
      | _ -> Alcotest.fail "expected fate-shared error"
      | exception Disk.Io_error _ -> ());
      (* and the converse: the scratch path alone does not match *)
      Disk.write d ~path:"__wd/real/x" (Bytes.of_string "y"))

let test_disk_checksum () =
  let a = Disk.checksum (Bytes.of_string "abc") in
  let b = Disk.checksum (Bytes.of_string "abc") in
  let c = Disk.checksum (Bytes.of_string "abd") in
  check "stable" true (a = b);
  check "discriminates" false (a = c)

(* The closure-over-a-ref FNV-1a that [Disk.checksum] replaced, kept as its
   oracle. *)
let checksum_oracle b =
  let h = ref 0xcbf29ce484222325L in
  Bytes.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    b;
  !h

let prop_disk_checksum_oracle =
  QCheck.Test.make ~name:"checksum equals the closure oracle" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_bound 300))
    (fun s ->
      let b = Bytes.of_string s in
      Disk.checksum b = checksum_oracle b)

let test_disk_checksum_alloc () =
  let b = Bytes.make 10_000 'x' in
  ignore (Disk.checksum b);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Disk.checksum b));
  let words = Gc.minor_words () -. before in
  check "no per-byte allocation" true (words < 100.)

let prop_disk_roundtrip =
  QCheck.Test.make ~name:"disk read returns the written bytes" ~count:50
    QCheck.(pair (string_of_size (QCheck.Gen.int_bound 64)) small_string)
    (fun (path, content) ->
      let path = "p/" ^ path in
      let ok = ref false in
      in_sim (fun _s reg ->
          let d = mkdisk reg in
          Disk.write d ~path (Bytes.of_string content);
          ok := Bytes.to_string (Disk.read d ~path) = content);
      !ok)

(* --- net --- *)

let test_net_delivery () =
  in_sim (fun s reg ->
      let n = mknet reg in
      Net.register n "a";
      Net.register n "b";
      Net.send n ~src:"a" ~dst:"b" 42;
      match Net.recv_timeout n "b" ~timeout:(Time.sec 1) with
      | Some env ->
          check_int "payload" 42 env.Net.payload;
          Alcotest.(check string) "src" "a" env.Net.src;
          check "not corrupted" false env.Net.corrupted;
          check "took latency" true (Sched.now s > 0L)
      | None -> Alcotest.fail "no delivery")

let test_net_drop_fault () =
  in_sim (fun _s reg ->
      let n = mknet reg in
      Net.register n "a";
      Net.register n "b";
      Faultreg.inject reg (fault "net:n:send:a:b" Faultreg.Drop);
      Net.send n ~src:"a" ~dst:"b" 1;
      check "dropped" true (Net.recv_timeout n "b" ~timeout:(Time.ms 50) = None);
      let sent, _, dropped = Net.stats n in
      check_int "sent" 1 sent;
      check_int "dropped" 1 dropped)

let test_net_delay_fault () =
  in_sim (fun s reg ->
      let n = mknet reg in
      Net.register n "a";
      Net.register n "b";
      Faultreg.inject reg (fault "net:n:send:a:b" (Faultreg.Delay (Time.sec 2)));
      let t0 = Sched.now s in
      Net.send n ~src:"a" ~dst:"b" 1;
      (* the send itself is asynchronous: the sender is not delayed *)
      check "sender not blocked" true (Int64.sub (Sched.now s) t0 < Time.ms 1);
      match Net.recv_timeout n "b" ~timeout:(Time.sec 5) with
      | Some _ ->
          check "delivery delayed" true (Int64.sub (Sched.now s) t0 >= Time.sec 2)
      | None -> Alcotest.fail "should deliver eventually")

let test_net_corrupt_flag () =
  in_sim (fun _s reg ->
      let n = mknet reg in
      Net.register n "a";
      Net.register n "b";
      Faultreg.inject reg (fault "net:n:send:a:b" Faultreg.Corrupt);
      Net.send n ~src:"a" ~dst:"b" 9;
      match Net.recv_timeout n "b" ~timeout:(Time.sec 1) with
      | Some env -> check "flagged corrupted" true env.Net.corrupted
      | None -> Alcotest.fail "no delivery")

let test_net_error_fault () =
  in_sim (fun _s reg ->
      let n = mknet reg in
      Net.register n "a";
      Net.register n "b";
      Faultreg.inject reg (fault "net:n:send:a:b" (Faultreg.Error "ECONNRESET"));
      match Net.send n ~src:"a" ~dst:"b" 1 with
      | _ -> Alcotest.fail "expected Net_error"
      | exception Net.Net_error _ -> ())

let test_net_hang_blocks_sender () =
  in_sim (fun s reg ->
      let n = mknet reg in
      Net.register n "a";
      Net.register n "b";
      Faultreg.inject reg (fault ~stop_at:(Time.sec 2) "net:n:send:a:b" Faultreg.Hang);
      let t0 = Sched.now s in
      Net.send n ~src:"a" ~dst:"b" 1;
      check "sender blocked for the window" true
        (Int64.sub (Sched.now s) t0 >= Time.sec 1))

let test_net_site_dst_override () =
  in_sim (fun _s reg ->
      let n = mknet reg in
      Net.register n "a";
      Net.register n "b";
      Net.register n "__wd:b";
      Faultreg.inject reg (fault "net:n:send:a:b" (Faultreg.Error "down"));
      (* shadow delivery with fate-shared site *)
      match Net.send ~site_dst:"b" n ~src:"a" ~dst:"__wd:b" 1 with
      | _ -> Alcotest.fail "expected fate-shared error"
      | exception Net.Net_error _ -> ())

(* An asymmetric cut — the fabric case wd_cluster leans on: dropping a->b
   must not disturb the reverse link's delivery or its FIFO order, and the
   counters must attribute every a->b send to the drop column. *)
let test_net_asymmetric_partition () =
  in_sim (fun _s reg ->
      let n = mknet reg in
      Net.register n "a";
      Net.register n "b";
      Faultreg.inject reg (fault "net:n:send:a:b" Faultreg.Drop);
      for i = 1 to 4 do
        Net.send n ~src:"a" ~dst:"b" i
      done;
      for i = 10 to 13 do
        Net.send n ~src:"b" ~dst:"a" i
      done;
      check "a->b fully cut" true
        (Net.recv_timeout n "b" ~timeout:(Time.ms 200) = None);
      let got = ref [] in
      for _ = 1 to 4 do
        match Net.recv_timeout n "a" ~timeout:(Time.sec 1) with
        | Some env -> got := env.Net.payload :: !got
        | None -> Alcotest.fail "b->a delivery lost"
      done;
      Alcotest.(check (list int))
        "b->a alive, in order" [ 10; 11; 12; 13 ] (List.rev !got);
      let sent, delivered, dropped = Net.stats n in
      check_int "sent counts both directions" 8 sent;
      check_int "delivered only b->a" 4 delivered;
      check_int "dropped only a->b" 4 dropped)

(* Profiled links make the fabric asymmetric while staying deterministic:
   a->b crosses a slow 20 ms link, b->a keeps the 500 us base, and a->c
   squeezes through a 1 KiB/s pipe that serialises back-to-back sends
   store-and-forward. The whole delivery schedule must be a pure function
   of the seed — same seed, byte-identical schedule. *)
let test_net_asymmetric_link_profiles () =
  let run () =
    let log = Buffer.create 256 in
    let a_last = ref 0L and b_first = ref Int64.max_int
    and c_first = ref Int64.max_int in
    in_sim (fun s reg ->
        let n = mknet reg in
        Net.register n "a";
        Net.register n "b";
        Net.register n "c";
        Net.set_link_profile n ~src:"a" ~dst:"b"
          { Net.lp_latency = Some (Time.ms 20); lp_bytes_per_sec = None };
        Net.set_link_profile n ~src:"a" ~dst:"c"
          { Net.lp_latency = None; lp_bytes_per_sec = Some 1024 };
        for i = 1 to 3 do
          Net.send n ~size:256 ~src:"a" ~dst:"b" i;
          Net.send n ~src:"b" ~dst:"a" (10 + i);
          Net.send n ~size:512 ~src:"a" ~dst:"c" (20 + i)
        done;
        let drain ep first last =
          for _ = 1 to 3 do
            match Net.recv_timeout n ep ~timeout:(Time.sec 10) with
            | Some env ->
                let now = Wd_sim.Sched.now s in
                if !first = Int64.max_int then first := now;
                last := now;
                Buffer.add_string log
                  (Printf.sprintf "%s<-%s:%d@%Ld\n" ep env.Net.src
                     env.Net.payload now)
            | None -> Alcotest.fail (ep ^ " delivery lost")
          done
        in
        (* unprofiled b->a lands first; the profiled links follow *)
        drain "a" (ref Int64.max_int) a_last;
        drain "b" b_first (ref 0L);
        drain "c" c_first (ref 0L));
    (Buffer.contents log, !a_last, !b_first, !c_first)
  in
  let log1, a_last, b_first, c_first = run () in
  let log2, _, _, _ = run () in
  Alcotest.(check string) "same seed, byte-identical schedule" log1 log2;
  check "reverse link unaffected by the slow crossing" true
    (a_last < b_first);
  check "slow crossing respects its latency floor" true
    (b_first >= Time.ms 20);
  check "bandwidth bound dominates the bounded link" true
    (c_first >= Time.ms 500)

let test_net_inbox_length_and_try_recv () =
  in_sim (fun _s reg ->
      let n = mknet reg in
      Net.register n "a";
      Net.register n "b";
      check "empty try_recv" true (Net.try_recv n "b" = None);
      Net.send n ~src:"a" ~dst:"b" 1;
      Net.send n ~src:"a" ~dst:"b" 2;
      Wd_sim.Sched.sleep (Time.ms 50);
      check_int "two queued" 2 (Net.inbox_length n "b");
      (match Net.try_recv n "b" with
      | Some env -> check_int "fifo head" 1 env.Net.payload
      | None -> Alcotest.fail "expected message");
      check_int "one left" 1 (Net.inbox_length n "b"))

let test_fault_remove_and_clear () =
  let reg = Faultreg.create () in
  Faultreg.inject reg (fault ~id:"f1" "x:*" Faultreg.Corrupt);
  Faultreg.inject reg (fault ~id:"f2" "y:*" Faultreg.Corrupt);
  Faultreg.remove reg ~id:"f1";
  check_int "one left" 1 (List.length (Faultreg.faults reg));
  Faultreg.clear reg;
  check_int "cleared" 0 (List.length (Faultreg.faults reg))

let test_disk_stats () =
  in_sim (fun _s reg ->
      let d = mkdisk reg in
      Disk.write d ~path:"f" (Bytes.of_string "abcd");
      ignore (Disk.read d ~path:"f");
      Disk.sync d;
      let reads, writes, bytes_read, bytes_written, syncs = Disk.stats d in
      check_int "reads" 1 reads;
      check_int "writes" 1 writes;
      check_int "bytes read" 4 bytes_read;
      check_int "bytes written" 4 bytes_written;
      check_int "syncs" 1 syncs)

let prop_net_link_fifo =
  QCheck.Test.make ~name:"per-link delivery preserves send order" ~count:30
    QCheck.(pair small_int (int_bound 20))
    (fun (seed, n) ->
      let n = n + 1 in
      let ok = ref false in
      in_sim ~seed:(seed + 1) (fun _s reg ->
          let net = Net.create ~reg ~rng:(Wd_sim.Rng.create ~seed) "n" in
          Net.register net "a";
          Net.register net "b";
          for i = 1 to n do
            Net.send net ~src:"a" ~dst:"b" i
          done;
          let got = ref [] in
          for _ = 1 to n do
            match Net.recv_timeout net "b" ~timeout:(Time.sec 5) with
            | Some env -> got := env.Net.payload :: !got
            | None -> ()
          done;
          ok := List.rev !got = List.init n (fun i -> i + 1));
      !ok)

(* --- memory --- *)

let test_memory_accounting () =
  in_sim (fun _s reg ->
      let m = Memory.create ~reg ~capacity:1000 "m" in
      Memory.alloc m 300;
      Memory.alloc m 200;
      check_int "used" 500 (Memory.used m);
      Memory.free m 100;
      check_int "after free" 400 (Memory.used m);
      check "utilisation" true (abs_float (Memory.utilisation m -. 0.4) < 1e-9))

let test_memory_oom () =
  in_sim (fun _s reg ->
      let m = Memory.create ~reg ~capacity:100 "m" in
      Memory.alloc m 90;
      match Memory.alloc m 20 with
      | _ -> Alcotest.fail "expected OOM"
      | exception Memory.Out_of_memory _ -> ())

let test_memory_pause_under_pressure () =
  in_sim (fun s reg ->
      (* allocations stall above 80% utilisation *)
      let m = Memory.create ~reg ~capacity:1000 "m" in
      Memory.alloc m 800;
      let t0 = Sched.now s in
      Memory.alloc m 1; (* at the threshold: 800/1000 = 0.8 *)
      check "no pause up to threshold" true (Int64.sub (Sched.now s) t0 = 0L);
      Memory.alloc m 50;
      let t1 = Sched.now s in
      Memory.alloc m 10; (* now above the threshold: 851/1000 *)
      check "pauses above threshold" true (Int64.sub (Sched.now s) t1 > 0L);
      let _, _, peak, pauses, _ = Memory.stats m in
      check "peak tracked" true (peak >= 861);
      check "pauses counted" true (pauses >= 1))

(* --- allocation budgets (see [Budget]) --- *)

module Budget = Wd_testgen.Budget

let test_disk_append_budget () =
  let words =
    Budget.words_per_iter (fun s mark ->
        let d = Disk.create ~reg:(Faultreg.create ()) ~rng:(Sched.rng s) "d" in
        let data = Bytes.make 100 'x' in
        ignore
          (Sched.spawn s (fun () ->
               for i = 0 to 2 * Budget.n do
                 mark i;
                 Disk.append d ~path:"/log" data
               done)))
  in
  Budget.check "unarmed 100 B Disk.append" ~budget:37 words

let test_net_roundtrip_budget () =
  let words =
    Budget.words_per_iter (fun s mark ->
        let n = Net.create ~reg:(Faultreg.create ()) ~rng:(Sched.rng s) "n" in
        Net.register n "a";
        Net.register n "b";
        ignore
          (Sched.spawn s (fun () ->
               for i = 0 to 2 * Budget.n do
                 mark i;
                 Net.send n ~src:"a" ~dst:"b" i;
                 (* a short deadline keeps few stale timers armed *)
                 match Net.recv_timeout n "b" ~timeout:(Time.ms 5) with
                 | Some _ -> ()
                 | None -> Alcotest.fail "no delivery"
               done)))
  in
  Budget.check "Net.send + delivery + receive" ~budget:64 words

(* --- the no-fault path --- *)

(* Random disk, net and memory ops, run against three registries: one with
   nothing injected, one armed by a fault on a site no op touches, and one
   armed by a [Slow_factor 1.0] that matches every site, so every op takes
   the behaviour folds and [apply_common]. A factor of 1.0 changes nothing,
   so all three runs must see the same clock after every op, the same
   outcomes and delivered envelopes, the same file bytes, the same
   scheduler stats and the same RNG state. *)
type env_op =
  | E_write of int * int
  | E_append of int * int
  | E_read of int
  | E_delete of int
  | E_sync
  | E_send of int * int * int
  | E_recv of int
  | E_alloc of int
  | E_free of int

let gen_env_op =
  QCheck.Gen.(
    let path = int_bound 3 and node = int_bound 2 in
    frequency
      [
        (3, map2 (fun p l -> E_write (p, l)) path (int_bound 300));
        (3, map2 (fun p l -> E_append (p, l)) path (int_bound 300));
        (3, map (fun p -> E_read p) path);
        (1, map (fun p -> E_delete p) path);
        (1, return E_sync);
        ( 4,
          map3 (fun a b sz -> E_send (a, b, sz)) node node (int_bound 4000) );
        (3, map (fun e -> E_recv e) node);
        (2, map (fun sz -> E_alloc sz) (int_bound 300));
        (1, map (fun sz -> E_free sz) (int_bound 300));
      ])

let run_env_ops ~arm ops =
  let s = Sched.create ~seed:5 () in
  let reg = Faultreg.create () in
  arm reg;
  let disk_rng = Wd_sim.Rng.create ~seed:11
  and net_rng = Wd_sim.Rng.create ~seed:12 in
  let d = Disk.create ~reg ~rng:disk_rng "d" in
  let n = Net.create ~reg ~rng:net_rng "n" in
  let m = Memory.create ~reg ~capacity:1000 "m" in
  let nodes = [| "a"; "b"; "c" |] in
  Array.iter (Net.register n) nodes;
  (* one bandwidth-bounded link, so sends also take the store-and-forward
     path *)
  Net.set_link_profile n ~src:"a" ~dst:"b"
    { Net.lp_latency = Some (Time.us 200); lp_bytes_per_sec = Some 1_000_000 };
  let log = Buffer.create 256 in
  let path i = "/f" ^ string_of_int i in
  let attempt f =
    match f () with
    | s -> s
    | exception Disk.Io_error m -> "io_error " ^ m
    | exception Memory.Out_of_memory m -> "oom " ^ m
  in
  let step = function
    | E_write (p, l) ->
        Disk.write d ~path:(path p) (Bytes.make l 'w');
        "w"
    | E_append (p, l) ->
        Disk.append d ~path:(path p) (Bytes.make l 'a');
        "a"
    | E_read p -> Bytes.to_string (Disk.read d ~path:(path p))
    | E_delete p ->
        Disk.delete d ~path:(path p);
        "d"
    | E_sync ->
        Disk.sync d;
        "s"
    | E_send (a, b, size) ->
        Net.send ~size n ~src:nodes.(a) ~dst:nodes.(b) (a + b);
        "n"
    | E_recv e -> (
        match Net.recv_timeout n nodes.(e) ~timeout:(Time.ms 2) with
        | Some env ->
            Printf.sprintf "%s>%s %d %Ld %b" env.Net.src env.Net.dst
              env.Net.payload env.Net.sent_at env.Net.corrupted
        | None -> "none")
    | E_alloc sz ->
        Memory.alloc m sz;
        "m"
    | E_free sz ->
        Memory.free m sz;
        "f"
  in
  ignore
    (Sched.spawn s (fun () ->
         List.iter
           (fun op ->
             let out = attempt (fun () -> step op) in
             Printf.bprintf log "%s @%Ld\n" out (Sched.now s))
           ops));
  ignore (Sched.run s);
  let files =
    List.map (fun p -> (p, Option.map Bytes.to_string (Disk.peek d ~path:p)))
      (Disk.paths d)
  in
  ( Buffer.contents log,
    files,
    Sched.stats s,
    Sched.now s,
    Net.stats n,
    Memory.stats m,
    (Wd_sim.Rng.next_int64 disk_rng, Wd_sim.Rng.next_int64 net_rng) )

let prop_no_fault_path =
  QCheck.Test.make ~name:"the no-fault path equals the full path" ~count:100
    QCheck.(make Gen.(list_size (int_range 0 60) gen_env_op))
    (fun ops ->
      let unarmed = run_env_ops ~arm:ignore ops in
      let elsewhere =
        run_env_ops ops ~arm:(fun reg ->
            Faultreg.inject reg (fault "disk:nowhere:write:/x" (Faultreg.Error "x")))
      in
      let matched =
        run_env_ops ops ~arm:(fun reg ->
            Faultreg.inject reg (fault "*" (Faultreg.Slow_factor 1.0)))
      in
      unarmed = elsewhere && unarmed = matched)

let () =
  Alcotest.run "wd_env"
    [
      ( "faultreg",
        [
          Alcotest.test_case "site matching" `Quick test_site_matching;
          Alcotest.test_case "activation window" `Quick test_fault_window;
          Alcotest.test_case "once faults" `Quick test_fault_once;
          Alcotest.test_case "trigger log" `Quick test_fault_triggers_logged;
          Alcotest.test_case "remove and clear" `Quick test_fault_remove_and_clear;
        ] );
      ( "disk",
        [
          Alcotest.test_case "roundtrip" `Quick test_disk_roundtrip;
          Alcotest.test_case "append" `Quick test_disk_append;
          Alcotest.test_case "list and delete" `Quick test_disk_list_delete;
          Alcotest.test_case "list prefix edges" `Quick test_disk_list_prefix_edges;
          Alcotest.test_case "read missing" `Quick test_disk_read_missing;
          Alcotest.test_case "latency model" `Quick test_disk_latency_model;
          Alcotest.test_case "error fault" `Quick test_disk_error_fault;
          Alcotest.test_case "silent corruption" `Quick
            test_disk_corrupt_fault_is_silent;
          Alcotest.test_case "slow fault" `Quick test_disk_slow_fault;
          Alcotest.test_case "bounded hang" `Quick test_disk_hang_until_window_closes;
          Alcotest.test_case "as_path fate sharing" `Quick
            test_disk_as_path_site_override;
          Alcotest.test_case "checksum" `Quick test_disk_checksum;
          Alcotest.test_case "stats" `Quick test_disk_stats;
          QCheck_alcotest.to_alcotest prop_disk_roundtrip;
          Alcotest.test_case "checksum allocation" `Quick
            test_disk_checksum_alloc;
          QCheck_alcotest.to_alcotest prop_disk_checksum_oracle;
        ] );
      ( "net",
        [
          Alcotest.test_case "delivery" `Quick test_net_delivery;
          Alcotest.test_case "drop fault" `Quick test_net_drop_fault;
          Alcotest.test_case "delay fault" `Quick test_net_delay_fault;
          Alcotest.test_case "corrupt flag" `Quick test_net_corrupt_flag;
          Alcotest.test_case "error fault" `Quick test_net_error_fault;
          Alcotest.test_case "hang blocks sender" `Quick test_net_hang_blocks_sender;
          Alcotest.test_case "site_dst fate sharing" `Quick test_net_site_dst_override;
          Alcotest.test_case "asymmetric partition" `Quick
            test_net_asymmetric_partition;
          Alcotest.test_case "asymmetric link profiles" `Quick
            test_net_asymmetric_link_profiles;
          Alcotest.test_case "inbox length / try_recv" `Quick
            test_net_inbox_length_and_try_recv;
          QCheck_alcotest.to_alcotest prop_net_link_fifo;
        ] );
      ( "memory",
        [
          Alcotest.test_case "accounting" `Quick test_memory_accounting;
          Alcotest.test_case "out of memory" `Quick test_memory_oom;
          Alcotest.test_case "pause under pressure" `Quick
            test_memory_pause_under_pressure;
        ] );
      ( "no-fault",
        [
          QCheck_alcotest.to_alcotest prop_no_fault_path;
          Alcotest.test_case "unarmed 100 B append allocation" `Quick
            test_disk_append_budget;
          Alcotest.test_case "send, delivery and receive allocation" `Quick
            test_net_roundtrip_budget;
        ] );
    ]
