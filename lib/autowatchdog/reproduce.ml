(* Failure reproduction (§5.2): a mimic checker's report carries both the
   faulty code region (the reduced unit) and the failure-inducing context
   (the captured payload). This module replays the two in a fresh, sealed
   simulation — optionally with a fault re-injected — turning a production
   alarm into a deterministic repro.

   The replay environment is synthesised from the unit itself: every
   resource the reduced code touches is created empty. No state from the
   original run leaks in; everything the checker needs travels in the
   report. *)

open Wd_ir.Ast
module Interp = Wd_ir.Interp
module Runtime = Wd_ir.Runtime
module Reduction = Wd_analysis.Reduction

type outcome =
  | Reproduced of Wd_watchdog.Report.fkind
  | Not_reproduced   (* the unit passes in a clean environment *)
  | Unknown_checker
  | Context_incomplete
  | Wire_error of string (* evidence bytes did not decode *)

(* Resource names referenced by the unit's body, grouped by resource class. *)
let resources_of_unit (u : Reduction.unit_) =
  let disks = ref [] and nets = ref [] and mems = ref [] in
  let add cell x = if not (List.mem x !cell) then cell := x :: !cell in
  let rec scan block =
    List.iter
      (fun st ->
        match st.node with
        | Op { kind; target; _ } -> (
            match kind with
            | Disk_write | Disk_append | Disk_read | Disk_sync | Disk_delete
            | Disk_exists | Disk_list ->
                add disks target
            | Net_send | Net_recv -> add nets target
            | Mem_alloc | Mem_free -> add mems target
            | Queue_put | Queue_get | State_get | State_set | Sleep_op | Log_op
              ->
                ())
        | Sync (_, body) -> scan body
        | If (_, t, e) ->
            scan t;
            scan e
        | While (_, b) | Foreach (_, _, b) -> scan b
        | Try (b, _, h) ->
            scan b;
            scan h
        | Let _ | Assign _ | Call _ | Return _ | Assert _ | Compute _ | Hook _
          ->
            ())
      block
  in
  scan u.Reduction.ufunc.body;
  (!disks, !nets, !mems)

let node = "repro"

let run ?fault ?(timeout = Wd_sim.Time.sec 10) (g : Generate.generated)
    ~(report : Wd_watchdog.Report.t) =
  match
    List.find_opt
      (fun (u : Reduction.unit_) ->
        u.Reduction.unit_id = report.Wd_watchdog.Report.checker_id)
      g.Generate.units
  with
  | None -> Unknown_checker
  | Some u ->
      let args =
        List.map
          (fun (param, _) ->
            List.assoc_opt param report.Wd_watchdog.Report.payload)
          u.Reduction.params
      in
      if List.exists Option.is_none args then Context_incomplete
      else begin
        let args = List.map Option.get args in
        let sched = Wd_sim.Sched.create ~seed:424242 () in
        let reg = Wd_env.Faultreg.create () in
        (match fault with Some f -> Wd_env.Faultreg.inject reg f | None -> ());
        let rng = Wd_sim.Rng.create ~seed:17 in
        let res = Runtime.create ~reg ~rng in
        let disks, nets, mems = resources_of_unit u in
        List.iter
          (fun d ->
            Runtime.add_disk res
              (Wd_env.Disk.create ~reg ~rng:(Wd_sim.Rng.split rng) d))
          disks;
        List.iter
          (fun n ->
            let net = Wd_env.Net.create ~reg ~rng:(Wd_sim.Rng.split rng) n in
            Wd_env.Net.register net node;
            Runtime.add_net res net)
          nets;
        List.iter
          (fun m ->
            Runtime.add_mem res
              (Wd_env.Memory.create ~reg ~capacity:(64 * 1024 * 1024) m))
          mems;
        let ci =
          Interp.create ~compiled:g.Generate.watchdog_compiled
            ~mode:Interp.Checker ~node ~res g.Generate.watchdog_prog
        in
        let outcome = ref Not_reproduced in
        ignore
          (Wd_sim.Sched.spawn ~name:"repro" sched (fun () ->
               match
                 Wd_sim.Sched.timeout_join sched ~timeout (fun () ->
                     Interp.call ci u.Reduction.ufunc.fname
                       (List.map copy_value args))
               with
               | Ok _ -> outcome := Not_reproduced
               | Error `Timeout -> outcome := Reproduced Wd_watchdog.Report.Hang
               | Error `Killed -> ()
               | Error (`Exn e) -> (
                   match e with
                   | Interp.Violation { vkind = "liveness"; _ } ->
                       outcome := Reproduced Wd_watchdog.Report.Hang
                   | Interp.Violation { msg; _ } ->
                       outcome := Reproduced (Wd_watchdog.Report.Assert_fail msg)
                   | Wd_env.Disk.Io_error m
                   | Wd_env.Net.Net_error m
                   | Wd_env.Memory.Out_of_memory m ->
                       outcome := Reproduced (Wd_watchdog.Report.Error_sig m)
                   | e ->
                       outcome :=
                         Reproduced
                           (Wd_watchdog.Report.Checker_crash (Printexc.to_string e)))));
        ignore (Wd_sim.Sched.run ~until:(Wd_sim.Time.sec 60) sched);
        !outcome
      end

(* Cross-node entry point: the evidence a fleet leader ships in a [Recover]
   command is the report's wire bytes; decode them and replay. The wire
   codec makes the repro possible on a machine that never saw the failure —
   the captured mimic payload travels inside the bytes. *)
let run_wire ?fault ?timeout g ~wire =
  match Wd_watchdog.Report.of_wire wire with
  | Error e -> Wire_error e
  | Ok report -> run ?fault ?timeout g ~report

let pp_outcome ppf = function
  | Reproduced k ->
      Fmt.pf ppf "reproduced (%s)" (Wd_watchdog.Report.fkind_name k)
  | Not_reproduced -> Fmt.string ppf "not reproduced (clean environment passes)"
  | Unknown_checker -> Fmt.string ppf "unknown checker"
  | Context_incomplete -> Fmt.string ppf "context incomplete"
  | Wire_error e -> Fmt.pf ppf "wire error (%s)" e
