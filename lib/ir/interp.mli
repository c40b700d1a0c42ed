(** IR interpreter. One [t] is one *node*: a network identity plus an
    execution mode.

    {b Main} mode runs the target system: entries become daemon tasks, ops
    hit the environment directly, and [Hook] statements push deep-copied
    live state into the registered sink (one-way context synchronisation).

    {b Checker} mode implements the watchdog isolation rules: disk writes
    are redirected to a scratch namespace (keeping the original fault site —
    fate sharing), network sends deliver to shadow inboxes with the real
    site, lock acquisition becomes try-lock-with-timeout that releases
    immediately, allocations are returned, and global-state writes land in a
    private overlay.

    Programs execute on one engine: the one-time closure-compilation pass
    of {!Compile} — direct-threaded dispatch, slot-indexed pooled frames,
    call-site inline caches. Compiled forms are cached per-program digest
    in domain-local storage and shared across instances within a domain
    (they carry per-domain mutable state and never cross domains).

    A direct AST walker is kept as the reference semantics the tests
    compare against, reachable only through {!Reference.within}. The two
    are bit-for-bit identical in observable behaviour — same
    [stmts_executed] counts, charge quanta (virtual-time progression),
    probe records, hook firing order and [Violation] payloads. *)

open Ast

exception Violation of { loc : Loc.t; vkind : string; msg : string }
(** Raised on assertion failures, type errors, and (in checker mode, with
    [vkind = "liveness"]) lock-acquisition timeouts. *)

exception Return_exn of value
(** Internal control flow; escapes only on a toplevel [Return]. *)

type mode = Main | Checker

type compiled
(** A closure-compiled program (see {!Compile}), shareable across any number
    of interpreter instances — Main and Checker alike — within the domain
    that compiled it. Carries mutable frame pools and inline caches, so it
    must not cross domains; the domain-local {!precompile} cache already
    enforces this. *)

val precompile : program -> compiled
(** Fetch or build the compiled form of [prog]. Results are cached by
    program digest in domain-local storage: each campaign worker compiles a
    target at most once and every later lookup is lock-free. Persistent
    pool domains keep their caches warm across batches. *)

val compile_cache_stats : unit -> int * int
(** [(hits, misses)] of {!precompile} across all domains, since start or
    {!clear_compile_cache}. With W persistent workers a program can miss up
    to W times (once per domain) before every lookup hits. *)

val clear_compile_cache : unit -> unit

(** Per-interpreter probe record. Flat mutable fields so the per-op
    bracket allocates nothing: [Loc.dummy] stands for "no location yet"
    and virtual-ns quantities are native ints. Prefer the option-shaped
    accessors below; the raw fields are exposed for tests. *)
type probe_state = {
  mutable op_active : bool;  (** an operation is in flight *)
  mutable op_loc : Loc.t;
      (** its location (valid when [op_active]) — the pinpoint when a
          checker times out *)
  mutable op_desc : string;
  mutable op_started : int;  (** virtual ns *)
  mutable last_loc : Loc.t;  (** most recent op; [Loc.dummy] = none yet *)
  mutable op_ns : int;
      (** cumulative operation time, virtual ns; lock waits are excluded
          from it, as from slowness assessment *)
}

val current_op : probe_state -> (Loc.t * string * int64) option
(** Operation in flight: location, description, start time. *)

val last_op : probe_state -> Loc.t option

type hook_spec = { hook_checker : string; hook_vars : string list }

type t

val create :
  ?compiled:compiled ->
  ?mode:mode ->
  ?lock_timeout:int64 ->
  node:string ->
  res:Runtime.resources ->
  program ->
  t
(** Without [?compiled], the program's form is fetched from {!precompile}.
    [lock_timeout] (default 5 s) is the checker-mode try-lock budget.
    Every statement costs 100 virtual ns, yielded to the scheduler in
    10 us quanta; checker-mode disk writes land under ["__wd/"]. *)

val program : t -> program
val node : t -> string
val probe : t -> probe_state
val resources : t -> Runtime.resources
val stmts_executed : t -> int

val frame_pool_stats : t -> string -> (int * int) option
(** [(pooled_frames, pool_hits)] of a function in this interpreter's
    compiled form (see {!Compile.frame_pool_stats}); [None] for an unknown
    function. For tests and bench introspection. *)

val ic_refills : unit -> int
(** Process-wide inline-cache (re)fill counter (see
    {!Compile.ic_refill_count}): every call site's first execution plus one
    refill per site per {!clear_compile_cache} epoch bump. *)

val set_hook_sink :
  t -> (int -> hook_spec -> (value option array -> unit) option) -> unit
(** Install the receiver of Main-mode hooks. The sink is asked once per
    registered hook, on the hook's first fire (and again after the next
    [set_hook_sink] or re-registration), for that hook's deliverer; [None]
    means the hook's fires are dropped. A fire then calls the deliverer
    once with a buffer holding, at index [j], the value of the [j]-th of
    the spec's [hook_vars], or [None] where that variable is unbound.
    Values holding bytes are deep copies; the buffer is reused by the
    hook's next fire, so a deliverer must not keep it. *)

val register_hook : t -> id:int -> hook_spec -> unit
(** Register (or replace) the spec of hook [id]; [id] must be
    non-negative. *)

val call : t -> string -> value list -> value
(** Run a function synchronously in the current task. Must be called from
    inside a running simulation. *)

(** Test-only seam onto the reference tree-walker. *)
module Reference : sig
  val within : (unit -> 'a) -> 'a
  (** [within f] runs [f] with every {!call} — on every domain, including
      entries spawned by {!start} — walking the AST instead of running the
      compiled form. Restored on exit, also when [f] raises. Differential
      tests only: nothing in production enters it. *)
end

val start : ?entries:string list -> t -> Wd_sim.Sched.t -> Wd_sim.Sched.task list
(** Spawn the program's entries (optionally a subset, by entry name) as
    daemon tasks, in program-entry order. *)
