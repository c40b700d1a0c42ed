(** Closure compiler for the IR: a one-time lowering pass that turns each
    function into a direct-threaded tree of pre-resolved OCaml closures.

    The lowering removes every per-statement interpretation cost that does
    not correspond to program behaviour:

    - dispatch is direct-threaded: each statement closure receives its
      continuation at compile time and tail-calls it, so a basic block runs
      as one chain of tail calls with no per-statement tag matching, block
      arrays or dispatch loop;
    - variables are resolved at compile time to integer slots in a per-call
      [value array] frame — no string hashing on the hot path;
    - call targets and arities are resolved to function handles up front
      (including forward references); each call site keeps a monomorphic
      inline cache of its callee's compiled body and parameter slots,
      validated against the {{!current_epoch} compile epoch} by a single
      integer comparison per call; the error paths of the tree-walker are
      compiled in where resolution fails;
    - frames are drawn from a small per-function free list and recycled on
      return, so steady-state calls allocate no frame;
    - CPU charging is inlined into every statement closure through the
      concrete {!ctx} record — no indirect call per statement;
    - binops, unops, comparisons and conditions are specialised per operand
      shape (notably Var/Const-int and Var/Var integer arithmetic), keeping
      the generic [Violation] path only as the fallback;
    - each [Op] passes its 0, 1 or 2 arguments by arity, with no argument
      list, and carries a numbered {!op_site} so the interpreter can bind
      the site's resource once;
    - each [Prim] node is bound to its {!Prims.impl} at compile time and
      called with its arguments directly, with no argument list or name
      dispatch; [Op]/[Call] argument evaluation is flattened for small
      arities to avoid per-step [List.map] closure allocation;
    - op descriptions ("disk_write(d0)", "lock(m)") are precomputed.

    The compiler is generic in the interpreter state ['i]: all effectful
    semantics (op execution, sync, hooks) are supplied through an {!rt}
    record, so [Compile] depends only on the AST and [Interp] stays the
    single owner of Main/Checker behaviour. This is the only engine
    programs run on. Parity contract: it is observably bit-for-bit
    identical to the test-only reference tree-walker in [Interp]
    ([Interp.Reference]) — same [stmts_executed] counts, same charge quanta
    (virtual time), same probe records and hook firing order, same
    [Violation] payloads. *)

open Ast

exception Violation of { loc : Loc.t; vkind : string; msg : string }
(** The canonical runtime-check failure. Defined here (the layer both
    engines share) and re-exported by [Interp] unchanged. *)

exception Return_exn of value
(** Internal control flow; escapes only on a toplevel [Return]. *)

(** {1 Compile epoch}

    A global generation counter for compiled forms. Bumping it (via
    [Interp.clear_compile_cache]) invalidates both the domain-local program
    caches in [Interp]/[Generate] and every call-site inline cache: sites
    re-read their callee's compiled fields on next execution. *)

val current_epoch : unit -> int
val bump_epoch : unit -> unit

(** {1 Execution context}

    Per-interpreter-instance CPU accounting and depth budget, threaded
    through every compiled closure so statement charging is straight-line
    integer arithmetic. The tree-walker shares the same record (via
    {!charge_stmt}/{!charge}), which keeps [stmts_executed] and
    quantum-flush timing engine-identical. *)

type ctx = {
  cx_cost : int;  (** virtual ns charged per statement *)
  cx_quantum : int;  (** accumulated cost flushed to the clock at this *)
  mutable cx_acc : int;
  mutable cx_stmts : int;
  cx_max_depth : int;
  mutable cx_ret : value;
      (** compiled-engine return slot for exception-free tail returns;
          valid only between a body's normal completion and the call
          site's immediate read *)
}

val make_ctx : stmt_cost:int -> quantum:int -> max_depth:int -> ctx

val charge_stmt : ctx -> unit
(** Statement prologue: count it and charge its CPU cost, flushing
    accumulated cost to the virtual clock at quantum boundaries. *)

val charge : ctx -> int64 -> unit
(** Extra CPU work ([Compute]); handles degenerate huge costs with int64
    precision. *)

type op_site = {
  os_id : int;
      (** dense per compiled program, from 0, shared with [Sync] sites:
          an interpreter keys what it resolves for the site by it; [-1]
          from the reference walker, which resolves on every execution *)
  os_loc : Loc.t;
  os_kind : op_kind;
  os_target : string;
  os_desc : string;  (** ["kind(target)"], see {!op_desc} *)
}
(** One compiled [Op] statement, built once at compile time. *)

type 'i rt = {
  exec_op0 : 'i -> op_site -> value;
  exec_op1 : 'i -> op_site -> value -> value;
  exec_op2 : 'i -> op_site -> value -> value -> value;
      (** effectful op with its pre-evaluated arguments, by arity (probe
          + env); the compiled engine builds no argument list *)
  exec_opn : 'i -> op_site -> value list -> value;
      (** the same with a list: three or more arguments, which only reach
          the arity violation, and the reference walker's calls *)
  exec_sync :
    'i -> site:int -> Loc.t -> lock:string -> desc:string -> (unit -> unit) -> unit;
      (** run the body thunk under the named lock's mode-specific
          protocol; [site] is numbered like {!op_site.os_id} *)
  exec_hook : 'i -> int -> (string, int) Hashtbl.t -> value array -> unit;
      (** fire hook [id] from a frame; the table is the firing function's
          layout (variable name to frame slot), one physical table per
          compiled function, complete once it is compiled *)
}
(** Everything mode- or state-dependent, supplied by the interpreter. *)

val unbound : value
(** The marker of a frame slot the program has not assigned. Never
    program-visible: variable reads and hook captures test for it by
    physical equality. *)

(** {1 Shared raise helpers}

    The single source of truth for violation payloads, used by both engines.
    Never inlined, so no error string is formatted before the raise
    decision. *)

val verr : Loc.t -> string -> string -> 'a
(** [verr loc vkind msg] raises {!Violation}. *)

val err_unbound : Loc.t -> string -> 'a
val err_cond : Loc.t -> value -> 'a
val err_logic : Loc.t -> value -> 'a
val err_int_op : Loc.t -> value -> value -> 'a
val err_cmp : Loc.t -> value -> value -> 'a
val err_concat : Loc.t -> value -> value -> 'a
val err_not : Loc.t -> value -> 'a
val err_neg : Loc.t -> value -> 'a
val err_len : Loc.t -> value -> 'a
val err_fst : Loc.t -> value -> 'a
val err_snd : Loc.t -> value -> 'a
val err_foreach : Loc.t -> value -> 'a
val err_prim : Loc.t -> string -> 'a
val err_depth : int -> 'a
val err_call_arity : string -> 'a

val op_desc : op_kind -> string -> string
(** ["kind(target)"], the probe description of an op site. *)

(** {1 Compiled programs} *)

type 'i t
(** A compiled program: closures over an ['i rt]. Carries mutable run-time
    state (per-function frame pools, call-site inline caches), so a
    compiled form belongs to the domain that compiled it — which is how
    the domain-local compile caches in [Interp] and [Generate] already
    hand them out. Within a domain it is freely shared across interpreter
    instances (Main and Checker alike); fibers interleave only at
    suspension points and a frame stays checked out for the whole
    activation, so pooled frames are never shared. *)

val compile : rt:'i rt -> program -> 'i t
(** One-shot lowering of every function. Duplicate function names keep the
    first binding, matching [Ast.find_func]. *)

val program : 'i t -> program

val sites : 'i t -> int
(** How many op and sync sites the program has: their ids run from 0 to
    [sites cp - 1]. *)

val frame_pool_stats : 'i t -> string -> (int * int) option
(** [(pooled_frames, pool_hits)] for a compiled function: current free-list
    length and how many calls reused a pooled frame. For tests. *)

val ic_refill_count : unit -> int
(** Process-wide count of call-site inline-cache (re)fills — every site's
    first execution plus one refill per site per epoch bump. For tests. *)

val call : 'i t -> 'i -> ctx -> string -> value list -> value
(** Entry point equivalent to the tree-walker's toplevel call: arity checked
    at runtime, unknown functions raise the canonical [Ast.Ir_error] via
    [find_func], body runs at depth 1. *)
