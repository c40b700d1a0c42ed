(* Tests for the §5.2 extensions: cheap recovery (microreboot) and failure
   reproduction from captured contexts. *)

module Sched = Wd_sim.Sched
module Time = Wd_sim.Time
module Recovery = Wd_watchdog.Recovery
module Report = Wd_watchdog.Report
module Generate = Wd_autowatchdog.Generate
module Reproduce = Wd_autowatchdog.Reproduce
module B = Wd_ir.Builder

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- recovery --- *)

let mk_component sched ~name ?(funcs = [ name ]) body =
  let spawn () = Sched.spawn ~name ~daemon:true sched body in
  let task = spawn () in
  (task, fun recovery -> Recovery.register recovery ~name ~funcs ~respawn:spawn ~task)

let test_recovery_reboots_on_report () =
  let sched = Sched.create ~seed:1 () in
  let recovery = Recovery.create ~backoff:(Time.ms 100) sched in
  let spawns = ref 0 in
  let task, register =
    mk_component sched ~name:"worker" ~funcs:[ "worker_fn" ] (fun () ->
        incr spawns;
        Sched.sleep (Time.sec 100))
  in
  ignore task;
  register recovery;
  ignore
    (Sched.spawn sched (fun () ->
         Sched.sleep (Time.ms 10);
         Recovery.action recovery
           (Report.make ~at:(Sched.now sched) ~checker_id:"c"
              ~fkind:Report.Hang
              ~loc:(Wd_ir.Loc.make ~func:"worker_fn" ~path:[] ~uid:1)
              ())));
  ignore (Sched.run ~until:(Time.sec 1) sched);
  check_int "respawned once" 2 !spawns;
  check_int "event logged" 1 (List.length (Recovery.events recovery));
  check_int "restart counted" 1 (Recovery.restarts recovery ~name:"worker")

let test_recovery_unmapped_report_ignored () =
  let sched = Sched.create ~seed:1 () in
  let recovery = Recovery.create sched in
  let _, register = mk_component sched ~name:"w" (fun () -> Sched.sleep (Time.sec 9)) in
  register recovery;
  Recovery.action recovery
    (Report.make ~at:0L ~checker_id:"c" ~fkind:Report.Hang
       ~loc:(Wd_ir.Loc.make ~func:"elsewhere" ~path:[] ~uid:2) ());
  Recovery.action recovery
    (Report.make ~at:0L ~checker_id:"c" ~fkind:Report.Hang ());
  check_int "nothing rebooted" 0 (List.length (Recovery.events recovery))

let test_recovery_backoff () =
  let sched = Sched.create ~seed:1 () in
  let recovery = Recovery.create ~backoff:(Time.sec 5) sched in
  let _, register = mk_component sched ~name:"w" (fun () -> Sched.sleep (Time.sec 99)) in
  register recovery;
  let report at =
    Report.make ~at ~checker_id:"c" ~fkind:Report.Hang
      ~loc:(Wd_ir.Loc.make ~func:"w" ~path:[] ~uid:3) ()
  in
  ignore
    (Sched.spawn sched (fun () ->
         Recovery.action recovery (report 0L);
         Sched.sleep (Time.sec 1);
         (* within backoff: suppressed *)
         Recovery.action recovery (report (Sched.now sched));
         Sched.sleep (Time.sec 5);
         Recovery.action recovery (report (Sched.now sched))));
  ignore (Sched.run ~until:(Time.sec 10) sched);
  check_int "two reboots, one suppressed" 2 (List.length (Recovery.events recovery))

let test_recovery_escalation () =
  let sched = Sched.create ~seed:1 () in
  let recovery = Recovery.create ~backoff:(Time.ms 1) sched in
  let _, register = mk_component sched ~name:"w" (fun () -> Sched.sleep (Time.sec 99)) in
  register recovery;
  ignore
    (Sched.spawn sched (fun () ->
         for _ = 1 to 14 do
           Sched.sleep (Time.ms 10);
           Recovery.action recovery
             (Report.make ~at:(Sched.now sched) ~checker_id:"c" ~fkind:Report.Hang
                ~loc:(Wd_ir.Loc.make ~func:"w" ~path:[] ~uid:4) ())
         done));
  ignore (Sched.run ~until:(Time.sec 2) sched);
  (* the restart budget is 10 per component *)
  check_int "capped at max_restarts" 10 (List.length (Recovery.events recovery));
  check "escalated" true (Recovery.escalations recovery = [ "w" ])

(* [register_components] pairs each entry with the task at its position in
   start order. Tasks past the last entry (kvs's replica entry) are not
   components; fewer tasks than entries is an error. *)
let test_register_components_pairs_leading_tasks () =
  let module Kvs = Wd_targets.Kvs in
  let sched = Sched.create ~seed:1 () in
  let reg = Wd_env.Faultreg.create () in
  let prog = Kvs.program () in
  let t = Kvs.boot ~sched ~reg ~prog () in
  let tasks = Kvs.start t in
  let entries = Kvs.leader_entries in
  let n = List.length entries in
  check "more tasks than entries" true (List.length tasks > n);
  let recovery = Recovery.create sched in
  Alcotest.check_raises "fewer tasks than entries"
    (Invalid_argument "register_components: fewer tasks than entries")
    (fun () ->
      Generate.register_components recovery ~sched ~main:t.Kvs.leader ~entries
        ~tasks:(List.filteri (fun i _ -> i < n - 1) tasks));
  Generate.register_components recovery ~sched ~main:t.Kvs.leader ~entries
    ~tasks;
  List.iter
    (fun name ->
      let e = List.find (fun e -> e.Wd_ir.Ast.entry_name = name) prog.entries in
      check (name ^ " is a component") true
        (Recovery.recover_function recovery ~func:e.Wd_ir.Ast.entry_func
           ~reason:"test"))
    entries;
  ignore (Sched.run ~until:(Time.ms 1) sched);
  List.iteri
    (fun i task ->
      check
        (Sched.task_name task ^ (if i < n then " rebooted" else " untouched"))
        (i < n)
        (Sched.task_status task = Some Sched.Killed))
    tasks

let test_recovery_supervisor_restarts_dead_task () =
  let sched = Sched.create ~seed:1 () in
  let recovery = Recovery.create ~backoff:(Time.ms 100) sched in
  let lives = ref 0 in
  let _, register =
    mk_component sched ~name:"fragile" (fun () ->
        incr lives;
        Sched.sleep (Time.ms 50);
        if !lives <= 2 then failwith "dies twice, then lives")
  in
  register recovery;
  ignore (Recovery.supervise ~period:(Time.ms 200) recovery);
  ignore (Sched.run ~until:(Time.sec 5) sched);
  check_int "respawned until stable" 3 !lives;
  check_int "two supervisor reboots" 2 (List.length (Recovery.events recovery))

(* --- reproduce --- *)

let tiny =
  B.program "tiny"
    ~funcs:
      [
        B.func "loop" ~params:[]
          [
            B.while_true
              [
                B.sleep_ms 100;
                B.let_ "p" (B.s "data/f");
                B.let_ "d" (B.prim "bytes_of_str" [ B.s "payload" ]);
                B.call "save" [ B.v "p"; B.v "d" ];
              ];
          ];
        B.func "save" ~params:[ "p"; "d" ]
          [ B.disk_write ~disk:"d0" ~path:(B.v "p") ~data:(B.v "d"); B.return_unit ];
      ]
    ~entries:[ B.entry "loop" "loop" ]

let fake_report g payload =
  let u = List.hd g.Generate.units in
  Report.make ~at:0L ~checker_id:u.Wd_analysis.Reduction.unit_id
    ~fkind:(Report.Assert_fail "read-back checksum mismatch on d0") ~payload ()

let payload =
  [ ("arg0", Wd_ir.Ast.VStr "data/f");
    ("arg1", Wd_ir.Ast.VBytes (Bytes.of_string "payload")) ]

let test_reproduce_clean_passes () =
  let g = Generate.analyze tiny in
  match Reproduce.run g ~report:(fake_report g payload) with
  | Reproduce.Not_reproduced -> ()
  | o -> Alcotest.failf "unexpected outcome %a" Reproduce.pp_outcome o

let test_reproduce_with_fault () =
  let g = Generate.analyze tiny in
  let fault =
    {
      Wd_env.Faultreg.id = "corrupt";
      site_pattern = "disk:d0:write:*";
      behaviour = Wd_env.Faultreg.Corrupt;
      start_at = 0L;
      stop_at = Time.never;
      once = false;
    }
  in
  match Reproduce.run ~fault g ~report:(fake_report g payload) with
  | Reproduce.Reproduced (Report.Assert_fail _) -> ()
  | o -> Alcotest.failf "unexpected outcome %a" Reproduce.pp_outcome o

let test_reproduce_hang_fault () =
  let g = Generate.analyze tiny in
  let fault =
    {
      Wd_env.Faultreg.id = "hang";
      site_pattern = "disk:d0:write:*";
      behaviour = Wd_env.Faultreg.Hang;
      start_at = 0L;
      stop_at = Time.never;
      once = false;
    }
  in
  match Reproduce.run ~fault ~timeout:(Time.sec 2) g ~report:(fake_report g payload) with
  | Reproduce.Reproduced Report.Hang -> ()
  | o -> Alcotest.failf "unexpected outcome %a" Reproduce.pp_outcome o

let test_reproduce_unknown_checker () =
  let g = Generate.analyze tiny in
  let report =
    Report.make ~at:0L ~checker_id:"nonexistent__u9" ~fkind:Report.Hang ~payload ()
  in
  check "unknown" true (Reproduce.run g ~report = Reproduce.Unknown_checker)

let test_reproduce_incomplete_context () =
  let g = Generate.analyze tiny in
  let report = fake_report g [ ("arg0", Wd_ir.Ast.VStr "data/f") ] in
  check "incomplete" true (Reproduce.run g ~report = Reproduce.Context_incomplete)

let () =
  Alcotest.run "wd_extensions"
    [
      ( "recovery",
        [
          Alcotest.test_case "reboot on report" `Quick test_recovery_reboots_on_report;
          Alcotest.test_case "unmapped reports ignored" `Quick
            test_recovery_unmapped_report_ignored;
          Alcotest.test_case "backoff" `Quick test_recovery_backoff;
          Alcotest.test_case "escalation" `Quick test_recovery_escalation;
          Alcotest.test_case "supervisor" `Quick
            test_recovery_supervisor_restarts_dead_task;
          Alcotest.test_case "components pair with leading tasks" `Quick
            test_register_components_pairs_leading_tasks;
        ] );
      ( "reproduce",
        [
          Alcotest.test_case "clean replay passes" `Quick test_reproduce_clean_passes;
          Alcotest.test_case "fault replay reproduces" `Quick test_reproduce_with_fault;
          Alcotest.test_case "hang replay reproduces" `Quick test_reproduce_hang_fault;
          Alcotest.test_case "unknown checker" `Quick test_reproduce_unknown_checker;
          Alcotest.test_case "incomplete context" `Quick
            test_reproduce_incomplete_context;
        ] );
    ]
