(* End-to-end tests for AutoWatchdog generation: analyze, recipes, attach,
   detection, localisation, and rendering. *)

module Generate = Wd_autowatchdog.Generate
module Config = Wd_autowatchdog.Config
module Reduction = Wd_analysis.Reduction
open Wd_ir
module B = Builder
module Sched = Wd_sim.Sched
module Time = Wd_sim.Time

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A tiny service: one daemon loop writing then reading a file. *)
let tiny =
  B.program "tiny"
    ~funcs:
      [
        B.func "loop" ~params:[]
          [
            B.while_true
              [
                B.sleep_ms 100;
                B.let_ "path" (B.s "data/f");
                B.let_ "payload" (B.prim "bytes_of_str" [ B.s "hello" ]);
                B.call "save" [ B.v "path"; B.v "payload" ];
              ];
          ];
        B.func "save" ~params:[ "p"; "d" ]
          [
            B.disk_write ~disk:"d0" ~path:(B.v "p") ~data:(B.v "d");
            B.return_unit;
          ];
      ]
    ~entries:[ B.entry "loop" "loop" ]

let boot_tiny ?(config = Config.default) () =
  let g = Generate.analyze ~config tiny in
  let sched = Sched.create ~seed:11 () in
  let reg = Wd_env.Faultreg.create () in
  let rng = Wd_sim.Rng.create ~seed:12 in
  let res = Runtime.create ~reg ~rng in
  Runtime.add_disk res (Wd_env.Disk.create ~reg ~rng:(Wd_sim.Rng.split rng) "d0");
  let main =
    Interp.create ~node:"n1" ~res g.Generate.red.Reduction.instrumented
  in
  let driver = Wd_watchdog.Driver.create sched in
  let wctx = Generate.attach g ~sched ~main ~driver in
  ignore (Interp.start main sched);
  Wd_watchdog.Driver.start driver;
  (g, sched, reg, res, driver, wctx)

let test_analyze_counts () =
  let g = Generate.analyze tiny in
  check_int "one unit" 1 (List.length g.Generate.units);
  let u = List.hd g.Generate.units in
  Alcotest.(check string) "anchored in save" "save"
    u.Reduction.source_func;
  check_int "two context params (path, data)" 2 (List.length u.Reduction.params)

let test_recipes_add_read_back () =
  let g = Generate.analyze tiny in
  let u = List.hd g.Generate.units in
  let has_assert =
    List.exists
      (fun st -> match st.Ast.node with Ast.Assert _ -> true | _ -> false)
      u.Reduction.ufunc.Ast.body
  in
  let has_read =
    List.exists
      (fun st ->
        match st.Ast.node with
        | Ast.Op { kind = Ast.Disk_read; _ } -> true
        | _ -> false)
      u.Reduction.ufunc.Ast.body
  in
  check "read-back present" true has_read;
  check "checksum assertion present" true has_assert;
  (* and without enhancement they are absent *)
  let plain = Generate.analyze ~config:{ Config.default with Config.enhance = false } tiny in
  let u0 = List.hd plain.Generate.units in
  check_int "bare unit is the single op" 1 (List.length u0.Reduction.ufunc.Ast.body)

let test_context_becomes_ready () =
  let _g, sched, _reg, _res, _driver, wctx = boot_tiny () in
  let unit_id = "save__u0" in
  check "not ready at boot" false (Wd_watchdog.Wcontext.ready wctx unit_id);
  ignore (Sched.run ~until:(Time.ms 500) sched);
  check "ready after main passed the hook" true
    (Wd_watchdog.Wcontext.ready wctx unit_id);
  match Wd_watchdog.Wcontext.args wctx unit_id with
  | Some [ Ast.VStr "data/f"; Ast.VBytes b ] ->
      Alcotest.(check string) "captured payload" "hello" (Bytes.to_string b)
  | _ -> Alcotest.fail "captured args"

let test_fault_free_quiet () =
  let _g, sched, _reg, _res, driver, _wctx = boot_tiny () in
  ignore (Sched.run ~until:(Time.sec 30) sched);
  check_int "no false alarms" 0
    (List.length (Wd_watchdog.Driver.reports driver))

let test_detects_hang_with_pinpoint () =
  let _g, sched, reg, _res, driver, _wctx = boot_tiny () in
  ignore (Sched.run ~until:(Time.sec 5) sched);
  Wd_env.Faultreg.inject reg
    {
      Wd_env.Faultreg.id = "hang";
      site_pattern = "disk:d0:write:*";
      behaviour = Wd_env.Faultreg.Hang;
      start_at = Time.sec 5;
      stop_at = Time.never;
      once = false;
    };
  ignore (Sched.run ~until:(Time.sec 20) sched);
  match Wd_watchdog.Driver.reports driver with
  | r :: _ ->
      check "hang" true (r.Wd_watchdog.Report.fkind = Wd_watchdog.Report.Hang);
      check "pinpointed save" true
        (match r.Wd_watchdog.Report.loc with
        | Some l -> Loc.func l = "save"
        | None -> false);
      check "payload captured" true (r.Wd_watchdog.Report.payload <> [])
  | [] -> Alcotest.fail "no detection"

let test_detects_corruption_via_read_back () =
  let _g, sched, reg, _res, driver, _wctx = boot_tiny () in
  ignore (Sched.run ~until:(Time.sec 5) sched);
  Wd_env.Faultreg.inject reg
    {
      Wd_env.Faultreg.id = "corrupt";
      site_pattern = "disk:d0:write:*";
      behaviour = Wd_env.Faultreg.Corrupt;
      start_at = Time.sec 5;
      stop_at = Time.never;
      once = false;
    };
  ignore (Sched.run ~until:(Time.sec 20) sched);
  match Wd_watchdog.Driver.reports driver with
  | r :: _ -> (
      match r.Wd_watchdog.Report.fkind with
      | Wd_watchdog.Report.Assert_fail m ->
          check "checksum mismatch named" true
            (String.length m > 0)
      | k -> Alcotest.failf "expected assert, got %s" (Wd_watchdog.Report.fkind_name k))
  | [] -> Alcotest.fail "no detection"

let test_detects_error_signature () =
  let _g, sched, reg, _res, driver, _wctx = boot_tiny () in
  ignore (Sched.run ~until:(Time.sec 5) sched);
  Wd_env.Faultreg.inject reg
    {
      Wd_env.Faultreg.id = "eio";
      site_pattern = "disk:d0:write:*";
      behaviour = Wd_env.Faultreg.Error "EIO";
      start_at = Time.sec 5;
      stop_at = Time.never;
      once = false;
    };
  ignore (Sched.run ~until:(Time.sec 10) sched);
  match Wd_watchdog.Driver.reports driver with
  | r :: _ -> (
      match r.Wd_watchdog.Report.fkind with
      | Wd_watchdog.Report.Error_sig _ -> ()
      | k -> Alcotest.failf "expected error, got %s" (Wd_watchdog.Report.fkind_name k))
  | [] -> Alcotest.fail "no detection"

let test_render_checker_source () =
  let g = Generate.analyze tiny in
  let src = Generate.render_checker_source (List.hd g.Generate.units) in
  let has sub =
    let n = String.length sub in
    let found = ref false in
    for i = 0 to String.length src - n do
      if String.sub src i n = sub then found := true
    done;
    !found
  in
  check "context factory" true (has "ContextFactory");
  check "readiness gate" true (has "READY");
  check "not-ready log line (Figure 3)" true (has "checker context not ready")

let test_watchdog_program_valid () =
  List.iter
    (fun prog ->
      let g = Generate.analyze prog in
      (* every generated unit function validates as a standalone program *)
      Validate.check_exn g.Generate.watchdog_prog)
    [
      Wd_targets.Kvs.program ();
      Wd_targets.Zkmini.program ();
      Wd_targets.Dfsmini.program ();
      Wd_targets.Cstore.program ();
    ]

let test_tens_of_checkers_per_target () =
  let count prog = List.length (Generate.analyze prog).Generate.units in
  check "kvs" true (count (Wd_targets.Kvs.program ()) >= 10);
  check "zkmini" true (count (Wd_targets.Zkmini.program ()) >= 5);
  check "dfsmini" true (count (Wd_targets.Dfsmini.program ()) >= 5);
  check "cstore" true (count (Wd_targets.Cstore.program ()) >= 5)

(* Progress checkers: once a unit's context armed, the main program must
   keep passing the hook; a stalled region (here: the entry task killed, a
   stand-in for an infinite loop doing no operations) is reported even
   though no mimicked operation ever fails. *)
let test_progress_checker_detects_stall () =
  let g = Generate.analyze tiny in
  let sched = Sched.create ~seed:12 () in
  let reg = Wd_env.Faultreg.create () in
  let rng = Wd_sim.Rng.create ~seed:13 in
  let res = Runtime.create ~reg ~rng in
  Runtime.add_disk res (Wd_env.Disk.create ~reg ~rng:(Wd_sim.Rng.split rng) "d0");
  let main = Interp.create ~node:"n1" ~res g.Generate.red.Reduction.instrumented in
  let driver = Wd_watchdog.Driver.create sched in
  let _ =
    Generate.attach ~progress:(Time.sec 5) g ~sched ~main ~driver
  in
  let tasks = Interp.start main sched in
  Wd_watchdog.Driver.start driver;
  ignore (Sched.run ~until:(Time.sec 3) sched);
  (* the loop armed the context; now it silently stops *)
  List.iter (Sched.kill sched) tasks;
  ignore (Sched.run ~until:(Time.sec 20) sched);
  match Wd_watchdog.Driver.reports driver with
  | r :: _ ->
      Alcotest.(check bool) "progress checker fired" true
        (String.length r.Wd_watchdog.Report.checker_id >= 9
        && String.sub r.Wd_watchdog.Report.checker_id 0 9 = "progress:");
      Alcotest.(check bool) "liveness kind" true
        (r.Wd_watchdog.Report.fkind = Wd_watchdog.Report.Hang)
  | [] -> Alcotest.fail "stall not reported"

let test_progress_checker_quiet_when_live () =
  let g = Generate.analyze tiny in
  let sched = Sched.create ~seed:12 () in
  let reg = Wd_env.Faultreg.create () in
  let rng = Wd_sim.Rng.create ~seed:13 in
  let res = Runtime.create ~reg ~rng in
  Runtime.add_disk res (Wd_env.Disk.create ~reg ~rng:(Wd_sim.Rng.split rng) "d0");
  let main = Interp.create ~node:"n1" ~res g.Generate.red.Reduction.instrumented in
  let driver = Wd_watchdog.Driver.create sched in
  let _ = Generate.attach ~progress:(Time.sec 5) g ~sched ~main ~driver in
  ignore (Interp.start main sched);
  Wd_watchdog.Driver.start driver;
  ignore (Sched.run ~until:(Time.sec 30) sched);
  Alcotest.(check int) "no alarms while the loop runs" 0
    (List.length (Wd_watchdog.Driver.reports driver))

(* Per-node attachment: the replica runs its own watchdog; units whose
   hooks never fire on a node stay NOT_READY there, so a replica-side fault
   is caught by the replica's driver and invisible to the leader's. *)
let test_per_node_watchdogs () =
  let prog = Wd_targets.Kvs.program () in
  let g = Generate.analyze prog in
  let sched = Sched.create ~seed:33 () in
  let reg = Wd_env.Faultreg.create () in
  let t =
    Wd_targets.Kvs.boot ~sched ~reg
      ~prog:g.Generate.red.Reduction.instrumented ()
  in
  let leader_driver = Wd_watchdog.Driver.create sched in
  let replica_driver = Wd_watchdog.Driver.create sched in
  let _ =
    Generate.attach g ~sched
      ~main:t.Wd_targets.Kvs.leader ~driver:leader_driver
  in
  let _ =
    Generate.attach g ~sched
      ~main:t.Wd_targets.Kvs.replica ~driver:replica_driver
  in
  ignore (Wd_targets.Kvs.start t);
  Wd_watchdog.Driver.start leader_driver;
  Wd_watchdog.Driver.start replica_driver;
  (* replica workload comes from leader replication: drive some sets *)
  ignore
    (Sched.spawn ~name:"client" ~daemon:true sched (fun () ->
         let i = ref 0 in
         while true do
           Sched.sleep (Time.ms 50);
           incr i;
           ignore (Wd_targets.Kvs.set t ~key:(Fmt.str "k%d" (!i mod 20)) ~value:"v")
         done));
  ignore (Sched.run ~until:(Time.sec 6) sched);
  (* replica-side fault: its wal appends hang *)
  Wd_env.Faultreg.inject reg
    {
      Wd_env.Faultreg.id = "replica-hang";
      site_pattern = "disk:kvs.disk2:append:replica/*";
      behaviour = Wd_env.Faultreg.Hang;
      start_at = Time.sec 6;
      stop_at = Time.never;
      once = false;
    };
  ignore (Sched.run ~until:(Time.sec 25) sched);
  Alcotest.(check bool) "replica watchdog detects" true
    (Wd_watchdog.Driver.reports replica_driver <> []);
  Alcotest.(check int) "leader watchdog quiet" 0
    (List.length (Wd_watchdog.Driver.reports leader_driver));
  match Wd_watchdog.Driver.reports replica_driver with
  | r :: _ ->
      Alcotest.(check bool) "pinpoints the replica loop" true
        (match r.Wd_watchdog.Report.loc with
        | Some l -> Loc.func l = "replica_loop"
        | None -> false)
  | [] -> ()

let () =
  Alcotest.run "wd_autowatchdog"
    [
      ( "generation",
        [
          Alcotest.test_case "analyze counts" `Quick test_analyze_counts;
          Alcotest.test_case "recipes add read-back" `Quick test_recipes_add_read_back;
          Alcotest.test_case "render Figure-3 source" `Quick test_render_checker_source;
          Alcotest.test_case "watchdog programs valid" `Quick test_watchdog_program_valid;
          Alcotest.test_case "tens of checkers per target" `Quick
            test_tens_of_checkers_per_target;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "context becomes ready" `Quick test_context_becomes_ready;
          Alcotest.test_case "fault-free is quiet" `Quick test_fault_free_quiet;
          Alcotest.test_case "hang detected with pinpoint" `Quick
            test_detects_hang_with_pinpoint;
          Alcotest.test_case "corruption via read-back" `Quick
            test_detects_corruption_via_read_back;
          Alcotest.test_case "error signature" `Quick test_detects_error_signature;
          Alcotest.test_case "per-node watchdogs" `Quick test_per_node_watchdogs;
          Alcotest.test_case "progress checker detects stall" `Quick
            test_progress_checker_detects_stall;
          Alcotest.test_case "progress checker quiet when live" `Quick
            test_progress_checker_quiet_when_live;
        ] );
    ]
