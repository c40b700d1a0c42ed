(* AutoWatchdog end-to-end (§4): analyse a program, reduce it, package the
   generated checkers with a generic driver, and instrument the main program
   with context hooks.

     analyze  : program -> generated        (static; no simulation needed)
     attach   : wire a generated watchdog into a running node

   [attach] is the runtime half: it creates the context table, registers the
   hook specs and sink on the main-program interpreter, builds one
   checker-mode interpreter per unit, and registers the resulting mimic
   checkers with a watchdog driver. *)

open Wd_ir.Ast
module Reduction = Wd_analysis.Reduction
module Interp = Wd_ir.Interp
module Checker = Wd_watchdog.Checker
module Report = Wd_watchdog.Report
module Wcontext = Wd_watchdog.Wcontext

type generated = {
  config : Config.t;
  red : Reduction.result;
  units : Reduction.unit_ list; (* after recipe enhancement *)
  watchdog_prog : program;      (* all unit functions, one program *)
  watchdog_compiled : Interp.compiled;
      (* closure-compiled form of [watchdog_prog], warmed at analysis time
         so per-unit checker interpreters skip even the compile-cache
         digest *)
  callgraph : Wd_analysis.Callgraph.t;
      (* of the original program, built once: region attachment, component
         registration and campaign localisation all need it, and it is
         read-only after construction (safe to share across domains) *)
}

let analyze ?(config = Config.default) prog =
  let red = Reduction.reduce ~opts:config.Config.opts ~cfg:config.Config.vuln prog in
  let units =
    if config.Config.enhance then List.map Recipes.enhance_unit red.Reduction.units
    else red.Reduction.units
  in
  let watchdog_prog =
    {
      pname = prog.pname ^ "__watchdog";
      funcs = List.map (fun (u : Reduction.unit_) -> u.Reduction.ufunc) units;
      entries = [];
    }
  in
  let watchdog_compiled = Interp.precompile watchdog_prog in
  { config; red; units; watchdog_prog; watchdog_compiled;
    callgraph = Wd_analysis.Callgraph.build prog }

(* --- analysis cache ---

   A campaign re-boots the same target system for every (scenario, mode,
   seed) cell, and each boot used to re-run the whole reduction pipeline on
   a byte-identical program. The cache keys on a digest of the marshalled
   (config, program) pair — both are pure data — so N runs of one system
   pay for one analysis. The table is domain-local ([Domain.DLS]): each
   campaign worker analyses a system at most once and then hits its own
   table with no lock on the lookup path — the persistent pool keeps worker
   domains (and so these caches) alive across batches. Analysis is a pure
   function of (config, program), so per-domain copies are structurally
   identical and campaign results stay byte-identical at any width; within
   one domain, repeated boots still share the same [generated] physically.
   Invalidation is epoch-based — [clear_cache] bumps a global epoch and
   each domain lazily resets its table on its next lookup — because one
   domain cannot reach into another's storage. *)

let digest ~config prog = Digest.string (Marshal.to_string (config, prog) [])

let cache_epoch = Atomic.make 0
let cache_hits = Atomic.make 0
let cache_misses = Atomic.make 0

type cache_slot = {
  mutable cs_epoch : int;
  cs_tbl : (string, generated) Hashtbl.t;
}

let cache_key : cache_slot Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { cs_epoch = -1; cs_tbl = Hashtbl.create 16 })

let local_cache () =
  let slot = Domain.DLS.get cache_key in
  let now = Atomic.get cache_epoch in
  if slot.cs_epoch <> now then begin
    Hashtbl.reset slot.cs_tbl;
    slot.cs_epoch <- now
  end;
  slot.cs_tbl

let cache_stats () = (Atomic.get cache_hits, Atomic.get cache_misses)

let clear_cache () =
  Atomic.incr cache_epoch;
  Atomic.set cache_hits 0;
  Atomic.set cache_misses 0

let analyze_cached ?(config = Config.default) prog =
  let key = digest ~config prog in
  let tbl = local_cache () in
  match Hashtbl.find_opt tbl key with
  | Some g ->
      Atomic.incr cache_hits;
      g
  | None ->
      Atomic.incr cache_misses;
      let g = analyze ~config prog in
      Hashtbl.add tbl key g;
      g

(* Build the runtime checker for one unit: a checker-mode interpreter over
   the watchdog program, fed by the unit's context. *)
let checker_of_unit g ~sched ~wctx ~res ~node (u : Reduction.unit_) =
  let cfg = g.config in
  let ci =
    Interp.create ~compiled:g.watchdog_compiled ~mode:Interp.Checker
      ~lock_timeout:cfg.Config.lock_timeout ~node ~res g.watchdog_prog
  in
  let unit_id = u.Reduction.unit_id in
  let payload () = Wcontext.snapshot wctx unit_id in
  let locate () =
    let probe = Interp.probe ci in
    match Interp.current_op probe with
    | Some (loc, desc, _) -> (Some loc, desc, payload ())
    | None -> (
        match Interp.last_op probe with
        | Some loc -> (Some loc, "", payload ())
        | None -> (Some u.Reduction.anchor_loc, "", payload ()))
  in
  let last_op_time = ref None in
  let run ~now:_ =
    let now () = Wd_sim.Sched.now (Wd_sim.Sched.get ()) in
    match Wcontext.args wctx unit_id with
    | None -> Checker.Skip "checker context not ready"
    | Some args -> (
        let probe = Interp.probe ci in
        let op_ns_before = probe.Interp.op_ns in
        match Interp.call ci u.Reduction.ufunc.fname args with
        | _ ->
            last_op_time :=
              Some (Int64.of_int (probe.Interp.op_ns - op_ns_before));
            Checker.Pass
        | exception Interp.Violation { loc; vkind = "liveness"; msg } ->
            Checker.Fail
              (Report.make ~at:(now ()) ~checker_id:unit_id ~fkind:Report.Hang
                 ~loc ~op_desc:msg ~payload:(payload ()) ())
        | exception Interp.Violation { loc; vkind = _; msg } ->
            Checker.Fail
              (Report.make ~at:(now ()) ~checker_id:unit_id
                 ~fkind:(Report.Assert_fail msg) ~loc ~payload:(payload ()) ())
        | exception Wd_env.Disk.Io_error m ->
            let loc, desc, payload = locate () in
            Checker.Fail
              (Report.make ~at:(now ()) ~checker_id:unit_id
                 ~fkind:(Report.Error_sig m) ?loc ~op_desc:desc ~payload ())
        | exception Wd_env.Net.Net_error m ->
            let loc, desc, payload = locate () in
            Checker.Fail
              (Report.make ~at:(now ()) ~checker_id:unit_id
                 ~fkind:(Report.Error_sig m) ?loc ~op_desc:desc ~payload ())
        | exception Wd_env.Memory.Out_of_memory m ->
            let loc, desc, payload = locate () in
            Checker.Fail
              (Report.make ~at:(now ()) ~checker_id:unit_id
                 ~fkind:(Report.Error_sig m) ?loc ~op_desc:desc ~payload ()))
  in
  ignore sched;
  (* Mimic checks are deterministic in their context arguments, so an
     unchanged context version means an identical re-check: expose the
     version as the adaptive scheduler's dedup key. The progress checker
     below must NOT get one — a frozen version is exactly what it detects. *)
  Checker.make ~kind:Checker.Mimic ~period:cfg.Config.checker_period
    ~timeout:cfg.Config.checker_timeout ?slow_budget:cfg.Config.slow_budget
    ~locate
    ~slow_elapsed:(fun () -> !last_op_time)
    ~ctx_version:(fun () -> Wcontext.version wctx unit_id)
    ~id:unit_id run

(* Wire a generated watchdog into a running node. The main interpreter must
   have been created over [g.red.instrumented] (not the original program),
   otherwise no hooks fire and every context stays NOT_READY.

   Every unit is attached — units whose hooks never fire on this node
   simply stay NOT_READY and skip.

   [progress] additionally arms one staleness checker per context-fed unit:
   once a hook has fired, the main program is expected to keep passing it;
   a context older than the threshold means the surrounding region stopped
   making progress *without* failing any mimicked operation — the
   infinite-loop/stall class that operation mimicry alone cannot see. *)
let attach ?progress g ~sched ~main ~driver =
  let res = Interp.resources main in
  let node = Interp.node main in
  let wctx = Wcontext.create () in
  List.iter
    (fun (u : Reduction.unit_) ->
      Wcontext.register_unit wctx ~unit_id:u.Reduction.unit_id
        ~params:(List.map fst u.Reduction.params))
    g.units;
  List.iter
    (fun (h : Reduction.hook_insertion) ->
      (* every hook belongs to a unit of [g.units] *)
      Wcontext.bind_hook wctx ~hook_id:h.Reduction.hi_hook_id
        ~unit_id:h.Reduction.hi_unit
        ~captures:(List.map (fun (p, tmp, _) -> (p, tmp)) h.Reduction.hi_captures);
      Interp.register_hook main ~id:h.Reduction.hi_hook_id
        {
          Interp.hook_checker = h.Reduction.hi_unit;
          hook_vars = List.map (fun (_, tmp, _) -> tmp) h.Reduction.hi_captures;
        })
    g.red.Reduction.hooks;
  Interp.set_hook_sink main (fun hook_id spec ->
      Option.map
        (fun c vals -> Wcontext.deliver c ~now:(Wd_sim.Sched.now sched) vals)
        (Wcontext.capture wctx ~hook_id ~vars:spec.Interp.hook_vars));
  List.iter
    (fun u ->
      Wd_watchdog.Driver.add_checker driver
        (checker_of_unit g ~sched ~wctx ~res ~node u))
    g.units;
  (match progress with
  | None -> ()
  | Some threshold ->
      List.iter
        (fun (u : Reduction.unit_) ->
          if u.Reduction.params <> [] then
            let unit_id = u.Reduction.unit_id in
            let id = "progress:" ^ unit_id in
            Wd_watchdog.Driver.add_checker driver
              (Checker.make ~kind:Checker.Mimic ~period:(Wd_sim.Time.sec 2)
                 ~timeout:(Wd_sim.Time.sec 2)
                 ~slow_budget:Wd_sim.Time.never (* liveness only *)
                 ~id
                 (fun ~now:_ ->
                   let now = Wd_sim.Sched.now sched in
                   match Wcontext.staleness wctx ~now unit_id with
                   | None -> Checker.Skip "context not ready"
                   | Some age when age > threshold ->
                       Checker.Fail
                         (Report.make ~at:now ~checker_id:id ~fkind:Report.Hang
                            ~loc:u.Reduction.anchor_loc
                            ~op_desc:
                              (Fmt.str "no progress past hook for %a"
                                 Wd_sim.Time.pp age)
                            ~payload:(Wcontext.snapshot wctx unit_id) ())
                   | Some _ -> Checker.Pass)))
        g.units);
  wctx

(* Cheap-recovery wiring (§5.2): register each of the node's entry tasks as
   a microreboot component owning every function reachable from its entry
   point, so that a pinpointed report maps back to the daemon to reboot.
   Call after the node starts and pass its tasks in start order: [entries]
   pair with the leading ones. *)
let register_components recovery g ~sched ~main ~entries ~tasks =
  let prog = Interp.program main in
  if List.compare_lengths tasks entries < 0 then
    invalid_arg "register_components: fewer tasks than entries";
  List.iteri
    (fun i entry_name ->
      let task = List.nth tasks i in
      let entry =
        List.find
          (fun e -> e.Wd_ir.Ast.entry_name = entry_name)
          prog.Wd_ir.Ast.entries
      in
      let funcs =
        Wd_analysis.Callgraph.reachable g.callgraph entry.Wd_ir.Ast.entry_func
      in
      Wd_watchdog.Recovery.register recovery ~name:entry_name ~funcs
        ~respawn:(fun () ->
          match Interp.start ~entries:[ entry_name ] main sched with
          | [ task ] -> task
          | _ -> invalid_arg "register_components: entry did not respawn")
        ~task)
    entries

(* Figure-3-style rendering of a generated checker, for demos and docs. *)
let render_checker_source (u : Reduction.unit_) =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Fmt.pf ppf "public class %s$Checker {@." u.Reduction.source_func;
  Fmt.pf ppf "  static Status %s(%s) {@." u.Reduction.unit_id
    (String.concat ", " u.Reduction.ufunc.params);
  Wd_ir.Pp.pp_block ~indent:4 ppf u.Reduction.ufunc.body;
  Fmt.pf ppf "  }@.";
  Fmt.pf ppf "  static Status %s_invoke() {@." u.Reduction.unit_id;
  Fmt.pf ppf "    Context ctx = ContextFactory.%s_context();@." u.Reduction.unit_id;
  Fmt.pf ppf "    if (ctx.status == READY)@.";
  Fmt.pf ppf "      return %s(%s);@." u.Reduction.unit_id
    (String.concat ", "
       (List.map (fun p -> "ctx.args_getter(\"" ^ p ^ "\")") u.Reduction.ufunc.params));
  Fmt.pf ppf "    else@.      LOG.debug(\"checker context not ready\");@.";
  Fmt.pf ppf "  }@.}@.";
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let pp_summary ppf g =
  Fmt.pf ppf "AutoWatchdog for %s: %a@.%d checkers generated:@."
    g.red.Reduction.original.pname Reduction.pp_stats g.red.Reduction.stats
    (List.length g.units);
  List.iter
    (fun (u : Reduction.unit_) ->
      Fmt.pf ppf "  %-40s region=%-24s anchors %a (%s)@." u.Reduction.unit_id
        u.Reduction.region_id Wd_ir.Loc.pp u.Reduction.anchor_loc
        (String.concat "," u.Reduction.keys))
    g.units
