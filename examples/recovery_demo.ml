(* Cheap recovery (§5.2): the watchdog's pinpointed reports drive
   component-level microreboots. A transient WAL fault kills the kvs
   listener thread; the watchdog report maps the pinpointed function back
   to its owning component, which is rebooted — and a supervisor sweep
   retries on a backoff until the environment heals.

     dune exec examples/recovery_demo.exe *)

module Kvs = Wd_targets.Kvs
module Generate = Wd_autowatchdog.Generate
module Recovery = Wd_watchdog.Recovery

let () =
  let prog = Kvs.program () in
  let g = Generate.analyze prog in
  let sched = Wd_sim.Sched.create ~seed:77 () in
  let reg = Wd_env.Faultreg.create () in
  let kvs =
    Kvs.boot ~sched ~reg ~prog:g.Generate.red.Wd_analysis.Reduction.instrumented ()
  in
  let driver = Wd_watchdog.Driver.create sched in
  let _ = Generate.attach g ~sched ~main:kvs.Kvs.leader ~driver in

  (* start the leader's daemons and register each as a reboot component *)
  let leader_tasks =
    Wd_ir.Interp.start ~entries:Kvs.leader_entries kvs.Kvs.leader sched
  in
  ignore (Wd_ir.Interp.start ~entries:Kvs.replica_entries kvs.Kvs.replica sched);
  ignore (Wd_targets.Rpcq.spawn_dispatcher kvs.Kvs.rpc);
  let recovery = Recovery.create ~backoff:(Wd_sim.Time.sec 3) sched in
  Generate.register_components recovery g ~sched ~main:kvs.Kvs.leader
    ~entries:Kvs.leader_entries ~tasks:leader_tasks;
  Wd_watchdog.Driver.on_report driver (fun r ->
      Fmt.pr "ALARM  %a@." Wd_watchdog.Report.pp r;
      Recovery.action recovery r);
  ignore (Recovery.supervise recovery);
  Wd_watchdog.Driver.start driver;

  let ok = ref 0 and failed = ref 0 in
  ignore
    (Wd_sim.Sched.spawn ~name:"client" ~daemon:true sched (fun () ->
         let i = ref 0 in
         while true do
           Wd_sim.Sched.sleep (Wd_sim.Time.ms 100);
           incr i;
           match
             Kvs.set ~timeout:(Wd_sim.Time.ms 800) kvs
               ~key:(Fmt.str "k%d" (!i mod 20)) ~value:"v"
           with
           | `Ok _ -> incr ok
           | `Timeout | `Err _ -> incr failed
         done));

  ignore (Wd_sim.Sched.run ~until:(Wd_sim.Time.sec 8) sched);
  Fmt.pr "t=8s   healthy: %d writes ok@." !ok;

  Wd_env.Faultreg.inject reg
    {
      Wd_env.Faultreg.id = "wal-eio";
      site_pattern = "disk:kvs.disk:append:wal/*";
      behaviour = Wd_env.Faultreg.Error "EIO";
      start_at = Wd_sim.Time.sec 8;
      stop_at = Wd_sim.Time.sec 18;
      once = false;
    };
  Fmt.pr "t=8s   FAULT: WAL appends fail with EIO for 10s (listener dies)@.";
  ignore (Wd_sim.Sched.run ~until:(Wd_sim.Time.sec 40) sched);

  Fmt.pr "@.t=40s  %d writes ok, %d failed@." !ok !failed;
  Fmt.pr "microreboot log:@.";
  List.iter (fun e -> Fmt.pr "  %a@." Recovery.pp_event e) (Recovery.events recovery);
  Fmt.pr "listener restarts: %d; escalations: %d@."
    (Recovery.restarts recovery ~name:"listener")
    (List.length (Recovery.escalations recovery))
