(* Checker compiler (stage 3b): lower a synthesized model into the
   existing Wd_watchdog.Checker interface, one signal-style checker per
   invariant family. Inferred checkers plug into the same driver as mimic,
   probe and signal checkers — same scheduling, debouncing, dedup and
   report plumbing — and are distinguished only by their "inferred:" id
   prefix, which the campaign layer classifies as its own family.

   Grouping per family (not per invariant) keeps the runtime overhead of
   the second generation honest: five monitor-fold checkers per world, not
   hundreds of daemons. A report cites the violated invariant's key and
   static location, so localisation is per-invariant regardless.

   Like Wd_detectors.Signalmon, each checker is a non-blocking sample
   function: it drains the shared monitor and evaluates its invariants in
   canonical order, returning the first violation. Hang/slow findings map
   to the Hang/Slow report kinds (liveness), never-fail to Error_sig, and
   ordering/exclusion to Assert_fail — the same vocabulary mimic checkers
   use, so fleet correlation and recovery treat them uniformly. *)

module Checker = Wd_watchdog.Checker
module Report = Wd_watchdog.Report

let id_prefix = "inferred:"

let report ~at ~id ~fkind ?loc ~key ~payload () =
  Report.make ~at ~checker_id:id ~fkind ?loc ~op_desc:key
    ~payload:(("key", Wd_ir.Ast.VStr key) :: payload)
    ()

(* Evaluate one invariant against the monitor; [None] = holds. *)
let eval monitor ~now ~id (i : Synth.invariant) =
  let open Synth in
  match i.ibody with
  | Envelope { deadline; p99 = _ } -> (
      match Monitor.oldest_inflight monitor i.ikey with
      | Some (_, started, func) when Int64.sub now started > deadline ->
          Some
            (report ~at:now ~id ~fkind:Report.Hang ?loc:i.iloc ~key:i.ikey
               ~payload:
                 [
                   ("func", Wd_ir.Ast.VStr func);
                   ("inflight_ns", Wd_ir.Ast.VInt (Int64.to_int (Int64.sub now started)));
                   ("deadline_ns", Wd_ir.Ast.VInt (Int64.to_int deadline));
                 ]
               ())
      | _ -> (
          match Monitor.view monitor i.ikey with
          | Some st when st.Monitor.st_worst > deadline ->
              Some
                (report ~at:now ~id ~fkind:Report.Slow ?loc:i.iloc ~key:i.ikey
                   ~payload:
                     [
                       ("worst_ns", Wd_ir.Ast.VInt (Int64.to_int st.Monitor.st_worst));
                       ("deadline_ns", Wd_ir.Ast.VInt (Int64.to_int deadline));
                     ]
                   ())
          | _ -> None))
  | Gap { budget; max_gap = _ } -> (
      match Monitor.view monitor i.ikey with
      | Some st
        when st.Monitor.st_started > 0
             && Int64.sub now st.Monitor.st_last_start > budget ->
          Some
            (report ~at:now ~id ~fkind:Report.Hang ?loc:i.iloc ~key:i.ikey
               ~payload:
                 [
                   ( "silence_ns",
                     Wd_ir.Ast.VInt
                       (Int64.to_int (Int64.sub now st.Monitor.st_last_start)) );
                   ("budget_ns", Wd_ir.Ast.VInt (Int64.to_int budget));
                 ]
               ())
      | _ -> None)
  | Never_fail -> (
      match Monitor.view monitor i.ikey with
      | Some st when st.Monitor.st_failed > 0 ->
          Some
            (report ~at:now ~id
               ~fkind:(Report.Error_sig st.Monitor.st_first_err)
               ?loc:i.iloc ~key:i.ikey
               ~payload:[ ("failures", Wd_ir.Ast.VInt st.Monitor.st_failed) ]
               ())
      | _ -> None)
  | Precedes { first } ->
      if Monitor.seen monitor i.ikey && not (Monitor.seen monitor first) then
        Some
          (report ~at:now ~id
             ~fkind:(Report.Assert_fail (first ^ " must precede " ^ i.ikey))
             ?loc:i.iloc ~key:i.ikey
             ~payload:[ ("missing", Wd_ir.Ast.VStr first) ]
             ())
      else None
  | Never_concurrent { other } -> (
      match Monitor.overlapped_at monitor i.ikey other with
      | Some at0 ->
          Some
            (report ~at:now ~id
               ~fkind:
                 (Report.Assert_fail (i.ikey ^ " overlapped " ^ other))
               ?loc:i.iloc ~key:i.ikey
               ~payload:
                 [
                   ("partner", Wd_ir.Ast.VStr other);
                   ("first_overlap_at", Wd_ir.Ast.VInt (Int64.to_int at0));
                 ]
               ())
      | None -> None)

let family_checker ~id ~period ~timeout monitor invariants =
  Checker.make ~kind:Checker.Signal ~period ~timeout
    ~locate:(fun () -> (None, "inferred monitor", []))
    ~id
    (fun ~now ->
      Monitor.drain monitor;
      let rec first = function
        | [] -> Checker.Pass
        | i :: rest -> (
            match eval monitor ~now ~id i with
            | Some r -> Checker.Fail r
            | None -> first rest)
      in
      first invariants)

let compile ?(period = Wd_sim.Time.ms 500) ?(timeout = Wd_sim.Time.sec 5)
    ~(model : Synth.model) ~monitor () =
  let by_family = Hashtbl.create 8 in
  List.iter
    (fun (i : Synth.invariant) ->
      let f = Synth.family_name i.Synth.ibody in
      Hashtbl.replace by_family f
        (i :: Option.value ~default:[] (Hashtbl.find_opt by_family f)))
    model.Synth.m_invariants;
  Hashtbl.fold
    (fun fam invs l ->
      let id = id_prefix ^ fam ^ ":" ^ model.Synth.m_system in
      family_checker ~id ~period ~timeout monitor (List.rev invs) :: l)
    by_family []
  |> List.sort (fun a b -> compare a.Checker.id b.Checker.id)
