(** AutoWatchdog end-to-end (§4): analyse a program, reduce it, package the
    generated checkers with the generic driver, and instrument the main
    program with context hooks. *)

type generated = {
  config : Config.t;
  red : Wd_analysis.Reduction.result;
  units : Wd_analysis.Reduction.unit_ list;  (** after recipe enhancement *)
  watchdog_prog : Wd_ir.Ast.program;         (** all unit functions *)
  watchdog_compiled : Wd_ir.Interp.compiled;
      (** closure-compiled [watchdog_prog], warmed at analysis time *)
  callgraph : Wd_analysis.Callgraph.t;
      (** of the original program, built once at analysis time *)
}

val analyze : ?config:Config.t -> Wd_ir.Ast.program -> generated
(** Static half; no simulation needed. *)

val analyze_cached : ?config:Config.t -> Wd_ir.Ast.program -> generated
(** Like {!analyze}, but memoised on a digest of the marshalled
    (config, program) pair: within one domain, repeated boots of one system
    share a single [generated] (physically equal). The cache is
    domain-local, so the lookup path is lock-free under a parallel
    campaign; analysis is a pure function of (config, program), so the
    per-domain copies are structurally identical and campaign results stay
    byte-identical at any [--jobs] width. Use {!analyze} to bypass the
    cache — both produce equal reductions. *)

val cache_stats : unit -> int * int
(** [(hits, misses)] of {!analyze_cached} across all domains, since start
    or {!clear_cache}. With W persistent pool workers a system can miss up
    to W times (once per domain) before every lookup hits. *)

val clear_cache : unit -> unit
(** Invalidate every domain's cache (epoch bump, applied lazily on each
    domain's next lookup) and reset the stats. *)

val attach :
  ?progress:int64 ->
  generated ->
  sched:Wd_sim.Sched.t ->
  main:Wd_ir.Interp.t ->
  driver:Wd_watchdog.Driver.t ->
  Wd_watchdog.Wcontext.t
(** Runtime half: create the context table, register hook specs and the
    sink on [main], build one checker-mode interpreter per unit, and add
    the resulting mimic checkers to [driver].

    [main] must have been created over [generated.red.instrumented]; on the
    original program no hooks fire and every context stays NOT_READY.
    Every unit is attached; units whose hooks never fire on this node stay
    NOT_READY and skip harmlessly. [progress] arms one staleness checker per
    context-fed unit: a context older than the threshold means the region
    stopped making progress without failing any mimicked operation — the
    infinite-loop/stall class operation mimicry cannot see. *)

val register_components :
  Wd_watchdog.Recovery.t ->
  generated ->
  sched:Wd_sim.Sched.t ->
  main:Wd_ir.Interp.t ->
  entries:string list ->
  tasks:Wd_sim.Sched.task list ->
  unit
(** §5.2 wiring: register each entry task as a microreboot component owning
    every function reachable from its entry point, read from the
    analysis-time call graph (instrumentation adds no call edge, so it
    agrees with one built from the running program). [tasks] are the node's
    tasks in start order; each of [entries] pairs with the task at its
    position, and tasks past the last entry are ignored. Raises
    [Invalid_argument] when there are fewer tasks than entries. *)

val render_checker_source : Wd_analysis.Reduction.unit_ -> string
(** Figure-3-style pseudo-Java rendering of a generated checker. *)

val pp_summary : Format.formatter -> generated -> unit
