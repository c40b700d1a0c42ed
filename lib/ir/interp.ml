(* IR interpreter. One [t] is one *node*: an identity on the network plus an
   execution mode.

   Main mode runs the target system: entries become daemon tasks, ops hit
   the environment directly, and [Hook] statements push live state into the
   watchdog's context table (one-way synchronisation, §3.1).

   Checker mode is how generated mimic checkers execute (§3.2 isolation):
   - disk writes are redirected to a scratch namespace but keep the original
     path for fault-site matching, so they share the main program's fate;
   - network sends keep their site but deliver to a shadow inbox;
   - lock acquisition becomes try-lock with a timeout, raising a liveness
     violation instead of deadlocking against the main program;
   - allocations are released immediately (no leak amplification);
   - global-state writes land in a private overlay, reads are deep-copied;
   - [Hook] statements are no-ops.

   The interpreter also maintains a probe record of the op currently in
   flight — when the watchdog driver times a checker out, that record is the
   pinpointed location and payload of the failure.

   Programs execute on one engine, the closure compiler ([Compile]). The
   tree-walker below is kept only as the reference semantics the tests
   compare against, reachable through [Reference.within]. Everything
   effectful — charging, ops, sync protocols — funnels through the same
   [*_v] functions, and hooks through the same binding and delivery (only
   the frame read differs), so the two can only diverge in *pure*
   evaluation. *)

open Ast

exception Violation = Compile.Violation
exception Return_exn = Compile.Return_exn

type mode = Main | Checker

(* Flat probe record: every field is an immediate or a pointer store, so
   bracketing an op mutates in place — no option/tuple/boxed-int64 blocks
   per operation. [Loc.dummy] is the "none" sentinel for location fields
   (real program locs always carry a non-negative uid); virtual-ns
   quantities are native ints (they fit 62 bits). The option-shaped views
   live in the [current_op]/[last_op] accessors. *)
type probe_state = {
  mutable op_active : bool;    (* an operation is in flight *)
  mutable op_loc : Loc.t;      (* its location (valid when [op_active]) *)
  mutable op_desc : string;
  mutable op_started : int;    (* virtual ns *)
  mutable last_loc : Loc.t;    (* most recent op; [Loc.dummy] = none yet *)
  (* cumulative time spent in operations, lock waits excluded; slowness
     assessment uses op time only, since benign lock contention is not a
     fail-slow signal (lock wedges have their own liveness budget) *)
  mutable op_ns : int;
}

let current_op p =
  if p.op_active then Some (p.op_loc, p.op_desc, Int64.of_int p.op_started)
  else None

let last_op p = if p.last_loc == Loc.dummy then None else Some p.last_loc

type hook_spec = { hook_checker : string; hook_vars : string list }

type deliver = value option array -> unit

(* One registered hook, bound on its first fire (see [bound_hook]). *)
type hook = {
  hk_spec : hook_spec;
  hk_vars : string array;
  hk_buf : value option array; (* reused by every fire *)
  mutable hk_bound : bool; (* [hk_deliver] reflects the current sink *)
  mutable hk_deliver : deliver option; (* [None]: the sink declined it *)
  mutable hk_layout : (string, int) Hashtbl.t; (* [hk_slots] is for this *)
  mutable hk_slots : int array; (* frame slot per var; -1 = never bound *)
}

let no_layout : (string, int) Hashtbl.t = Hashtbl.create 1

type t = {
  prog : program;
  (* Call fast path: function lookup and arity check are on the per-call
     hot path; a scan of [prog.funcs] plus two [List.length]s per call is
     measurable on checker-heavy campaigns. Resolved once at creation. *)
  funcs_by_name : (string, func * int) Hashtbl.t;
  res : Runtime.resources;
  node : string;
  mode : mode;
  mutable hook_sink : (int -> hook_spec -> deliver option) option;
  mutable hooks : hook option array; (* by hook id *)
  probe : probe_state;
  shadow_globals : (string, value) Hashtbl.t;
  lock_timeout : int64;
  (* CPU accounting and depth budget live in the [Compile.ctx] record the
     compiled engine threads through every closure; the tree-walker updates
     the same record, which keeps [stmts_executed] and quantum-flush timing
     engine-identical. *)
  ctx : Compile.ctx;
  (* Op/lock descriptions are part of probe records; memoised per (kind,
     target) so the non-error path never re-formats them. *)
  op_descs : (op_kind * string, string) Hashtbl.t;
  lock_descs : (string, string) Hashtbl.t;
  (* Interned trace keys, memoised per (opname, target, operand-prefix):
     a traced op looks up a tuple key instead of concatenating a fresh
     "kind:target:prefix" string. *)
  trace_keys : (string * string * string, Wd_sim.Site.id) Hashtbl.t;
  node_site : Wd_sim.Site.id;
  compiled : t Compile.t;
  (* What each op and sync site of [compiled] resolved in this
     interpreter, by [Compile.op_site.os_id]; [unbound_site] until the
     site first runs. Per interpreter, not in the compiled form: the
     compile cache shares one compiled program across worlds. *)
  bindings : binding array;
}

(* A site's resource handle, bound on the site's first run that needs it,
   at the instant the unbound lookup happened: an auto-created lock or
   queue appears exactly when it did before. *)
and handle =
  | No_handle
  | Disk of Wd_env.Disk.t
  | Net of value Wd_env.Net.t
  | Mem of Wd_env.Memory.t
  | Queue of value Wd_sim.Channel.t
  | Lock of Wd_sim.Smutex.t

and binding = {
  mutable b_handle : handle;
  mutable b_func : Wd_sim.Site.id; (* interned [Loc.func]; -1 = not yet *)
  (* the trace key last interned here and the operand prefix it was
     interned for; -1 = none yet *)
  mutable b_tkey : Wd_sim.Site.id;
  mutable b_prefix : string;
}

(* --- accessors --- *)

let program t = t.prog
let node t = t.node
let probe t = t.probe
let resources t = t.res
let stmts_executed t = t.ctx.Compile.cx_stmts

let set_hook_sink t sink =
  t.hook_sink <- Some sink;
  Array.iter (Option.iter (fun hk -> hk.hk_bound <- false)) t.hooks

let register_hook t ~id spec =
  if id < 0 then invalid_arg "Interp.register_hook: negative hook id";
  if id >= Array.length t.hooks then begin
    let grown = Array.make (max (id + 1) (2 * Array.length t.hooks)) None in
    Array.blit t.hooks 0 grown 0 (Array.length t.hooks);
    t.hooks <- grown
  end;
  let vars = Array.of_list spec.hook_vars in
  t.hooks.(id) <-
    Some
      {
        hk_spec = spec;
        hk_vars = vars;
        hk_buf = Array.make (Array.length vars) None;
        hk_bound = false;
        hk_deliver = None;
        hk_layout = no_layout;
        hk_slots = [||];
      }

(* CPU charging is implemented on [Compile.ctx] (inlined into compiled
   closures); the tree-walker routes through the same functions. *)

let charge_stmt t = Compile.charge_stmt t.ctx
let charge t cost = Compile.charge t.ctx cost

(* --- expression evaluation (pure; tree-walking reference engine) ---

   Violation payloads come from the raise helpers in [Compile] — the single
   source of truth shared with the compiled engine — and are formatted only
   after the raise decision. *)

let truthy loc = function VBool b -> b | v -> Compile.err_cond loc v

let rec eval t frame loc expr =
  match expr with
  | Const v -> v
  | Var x -> (
      match Hashtbl.find_opt frame x with
      | Some v -> v
      | None -> Compile.err_unbound loc x)
  | Binop (op, a, b) -> eval_binop t frame loc op a b
  | Unop (Not, e) -> (
      match eval t frame loc e with
      | VBool b -> VBool (not b)
      | v -> Compile.err_not loc v)
  | Unop (Neg, e) -> (
      match eval t frame loc e with
      | VInt i -> VInt (-i)
      | v -> Compile.err_neg loc v)
  | Unop (Len, e) -> (
      match eval t frame loc e with
      | VStr s -> VInt (String.length s)
      | VBytes b -> VInt (Bytes.length b)
      | VList l -> VInt (List.length l)
      | VMap m -> VInt (List.length m)
      | v -> Compile.err_len loc v)
  | Pair (a, b) ->
      let va = eval t frame loc a in
      let vb = eval t frame loc b in
      VPair (va, vb)
  | Fst e -> (
      match eval t frame loc e with
      | VPair (a, _) -> a
      | v -> Compile.err_fst loc v)
  | Snd e -> (
      match eval t frame loc e with
      | VPair (_, b) -> b
      | v -> Compile.err_snd loc v)
  | Prim (name, args) -> (
      let vargs = List.map (eval t frame loc) args in
      try Prims.apply name vargs
      with Prims.Prim_error m -> Compile.err_prim loc m)

and eval_binop t frame loc op a b =
  let va = eval t frame loc a in
  match op with
  (* Short-circuit boolean operators: a non-bool left side is a type
     violation before the right side is touched. *)
  | And -> (
      match va with
      | VBool false -> VBool false
      | VBool true -> eval t frame loc b
      | _ -> Compile.err_logic loc va)
  | Or -> (
      match va with
      | VBool true -> VBool true
      | VBool false -> eval t frame loc b
      | _ -> Compile.err_logic loc va)
  | Add -> (
      let vb = eval t frame loc b in
      match (va, vb) with
      | VInt x, VInt y -> VInt (x + y)
      | _ -> Compile.err_int_op loc va vb)
  | Sub -> (
      let vb = eval t frame loc b in
      match (va, vb) with
      | VInt x, VInt y -> VInt (x - y)
      | _ -> Compile.err_int_op loc va vb)
  | Mul -> (
      let vb = eval t frame loc b in
      match (va, vb) with
      | VInt x, VInt y -> VInt (x * y)
      | _ -> Compile.err_int_op loc va vb)
  | Div -> (
      let vb = eval t frame loc b in
      match (va, vb) with
      | VInt x, VInt y ->
          if y = 0 then Compile.verr loc "arith" "division by zero"
          else VInt (x / y)
      | _ -> Compile.err_int_op loc va vb)
  | Mod -> (
      let vb = eval t frame loc b in
      match (va, vb) with
      | VInt x, VInt y ->
          if y = 0 then Compile.verr loc "arith" "mod by zero"
          else VInt (x mod y)
      | _ -> Compile.err_int_op loc va vb)
  | Eq ->
      let vb = eval t frame loc b in
      if value_equal va vb then VBool true else VBool false
  | Ne ->
      let vb = eval t frame loc b in
      if value_equal va vb then VBool false else VBool true
  | Lt -> (
      let vb = eval t frame loc b in
      match (va, vb) with
      | VInt x, VInt y -> VBool (x < y)
      | VStr x, VStr y -> VBool (String.compare x y < 0)
      | _ -> Compile.err_cmp loc va vb)
  | Le -> (
      let vb = eval t frame loc b in
      match (va, vb) with
      | VInt x, VInt y -> VBool (x <= y)
      | VStr x, VStr y -> VBool (String.compare x y <= 0)
      | _ -> Compile.err_cmp loc va vb)
  | Gt -> (
      let vb = eval t frame loc b in
      match (va, vb) with
      | VInt x, VInt y -> VBool (x > y)
      | VStr x, VStr y -> VBool (String.compare x y > 0)
      | _ -> Compile.err_cmp loc va vb)
  | Ge -> (
      let vb = eval t frame loc b in
      match (va, vb) with
      | VInt x, VInt y -> VBool (x >= y)
      | VStr x, VStr y -> VBool (String.compare x y >= 0)
      | _ -> Compile.err_cmp loc va vb)
  | Concat -> (
      let vb = eval t frame loc b in
      match (va, vb) with
      | VStr x, VStr y -> VStr (x ^ y)
      | _ -> Compile.err_concat loc va vb)

(* --- operations --- *)

let arg_str loc = function
  | VStr s -> s
  | v ->
      raise
        (Violation { loc; vkind = "type"; msg = Fmt.str "expected string: %a" pp_value v })

let arg_int loc = function
  | VInt i -> i
  | v ->
      raise
        (Violation { loc; vkind = "type"; msg = Fmt.str "expected int: %a" pp_value v })

let arg_bytes loc = function
  | VBytes b -> b
  | VStr s -> Bytes.of_string s
  | v ->
      raise
        (Violation { loc; vkind = "type"; msg = Fmt.str "expected bytes: %a" pp_value v })

let op_desc_memo t kind target =
  let key = (kind, target) in
  match Hashtbl.find_opt t.op_descs key with
  | Some d -> d
  | None ->
      let d = Compile.op_desc kind target in
      Hashtbl.add t.op_descs key d;
      d

let lock_desc_memo t lockname =
  match Hashtbl.find_opt t.lock_descs lockname with
  | Some d -> d
  | None ->
      let d = "lock(" ^ lockname ^ ")" in
      Hashtbl.add t.lock_descs lockname d;
      d

(* --- per-site bindings --- *)

let fresh_binding () =
  { b_handle = No_handle; b_func = -1; b_tkey = -1; b_prefix = "" }
let unbound_site = fresh_binding ()

(* The binding of site [id], made on its first run; a reference-walker
   site ([id] < 0) gets a fresh one, so it resolves everything each time. *)
let binding t id =
  if id < 0 then fresh_binding ()
  else
    let b = t.bindings.(id) in
    if b != unbound_site then b
    else begin
      let b = fresh_binding () in
      t.bindings.(id) <- b;
      b
    end

let func_site b loc =
  if b.b_func >= 0 then b.b_func
  else begin
    let id = Wd_sim.Site.intern (Loc.func loc) in
    b.b_func <- id;
    id
  end

let bound_disk t b target =
  match b.b_handle with
  | Disk d -> d
  | _ ->
      let d = Runtime.disk t.res target in
      b.b_handle <- Disk d;
      d

let bound_net t b target =
  match b.b_handle with
  | Net n -> n
  | _ ->
      let n = Runtime.net t.res target in
      b.b_handle <- Net n;
      n

let bound_mem t b target =
  match b.b_handle with
  | Mem m -> m
  | _ ->
      let m = Runtime.mem t.res target in
      b.b_handle <- Mem m;
      m

(* A checker's queue is the target's shadow, "__wd:<target>"; its name
   is built once per site, on the first run. *)
let bound_queue t b target =
  match b.b_handle with
  | Queue q -> q
  | _ ->
      let name =
        match t.mode with Main -> target | Checker -> "__wd:" ^ target
      in
      let q = Runtime.queue t.res name in
      b.b_handle <- Queue q;
      q

let bound_lock t b lockname =
  match b.b_handle with
  | Lock l -> l
  | _ ->
      let l = Runtime.lock t.res lockname in
      b.b_handle <- Lock l;
      l

(* Runtime analogue of [Wd_analysis.Vulnerable]'s op key: the first string
   operand truncated after its first path segment, so mined trace keys line
   up with the statically derived "kind:target:operand-prefix" families.
   Only computed when the run is traced and the node executes in Main mode
   (checker-mode mimics must not pollute the passing-run observations).
   Returns an interned {!Wd_sim.Site.id}, or [no_tkey] when untraced — the
   key string is built once per distinct (opname, target, prefix) family.
   A site remembers the key it last used: when the operand's prefix is the
   one it was interned for, nothing is looked up or allocated. *)
let no_tkey = -1

(* length of the operand prefix from [i] on: through the first '/', else
   all of it *)
let rec prefix_len s i =
  if i = String.length s then i
  else if s.[i] = '/' then i + 1
  else prefix_len s (i + 1)

let rec same_prefix p s i =
  i < 0 || (p.[i] = s.[i] && same_prefix p s (i - 1))

let trace_key t s b ~opname ~target operand =
  if t.mode <> Main || not (Wd_sim.Sched.traced s) then no_tkey
  else
    let len = prefix_len operand 0 in
    if
      b.b_tkey >= 0
      && String.length b.b_prefix = len
      && same_prefix b.b_prefix operand (len - 1)
    then b.b_tkey
    else
      let prefix =
        if len = String.length operand then operand
        else String.sub operand 0 len
      in
      let key = (opname, target, prefix) in
      let id =
        match Hashtbl.find_opt t.trace_keys key with
        | Some id -> id
        | None ->
            let id = Wd_sim.Site.intern (opname ^ ":" ^ target ^ ":" ^ prefix) in
            if Hashtbl.length t.trace_keys < 8192 then
              Hashtbl.add t.trace_keys key id;
            id
      in
      b.b_tkey <- id;
      b.b_prefix <- prefix;
      id

let trace_err = function
  | Violation { vkind; _ } -> "violation:" ^ vkind
  | Wd_env.Disk.Io_error _ -> "io_error"
  | Wd_env.Net.Net_error _ -> "net_error"
  | Out_of_memory -> "out_of_memory"
  | e -> Printexc.to_string e

(* The probe bracket around an effectful action, so the watchdog driver can
   pinpoint an in-flight hang and track slow operations. [probe_enter]
   opens it and returns the start time; exactly one of [probe_exit] (the
   action returned) or [probe_fail] (it raised) closes it. [is_lock] keeps
   a lock wait out of [op_ns] (excluded from slowness assessment); the
   call site knows, so no description sniffing. [tkey],
   when not [no_tkey], additionally emits Op_start/Op_end/Op_fail trace
   events keyed by it — the raw material for trace-inferred checkers —
   attributed to the site's function, interned once per binding [b]. The
   bracket is pure field stores and plain calls: nothing is boxed and no
   closure is built per op. *)
let probe_enter t s b loc ~tkey desc =
  let p = t.probe in
  (* The start time is returned, not only stored: the probe record is
     shared by every task of this interpreter, so a concurrent op
     overwrites [p.op_started] while this op blocks — elapsed-time
     accounting has to survive that. *)
  let started = Int64.to_int (Wd_sim.Sched.now s) in
  p.op_active <- true;
  p.op_loc <- loc;
  p.op_desc <- desc;
  p.op_started <- started;
  if tkey >= 0 then
    Wd_sim.Sched.trace_op_start s ~op:tkey ~node:t.node_site
      ~func:(func_site b loc);
  started

let probe_exit t s b loc ~is_lock ~tkey started =
  let p = t.probe in
  let elapsed = Int64.to_int (Wd_sim.Sched.now s) - started in
  p.op_active <- false;
  p.last_loc <- loc;
  if not is_lock then p.op_ns <- p.op_ns + elapsed;
  if tkey >= 0 then
    Wd_sim.Sched.trace_op_end s ~op:tkey ~node:t.node_site
      ~func:(func_site b loc) ~dur:elapsed

(* Leave the in-flight op set on failure: it is the pinpoint. *)
let probe_fail t s b loc ~tkey e =
  t.probe.last_loc <- loc;
  if tkey >= 0 then
    Wd_sim.Sched.trace_op_fail s ~op:tkey ~node:t.node_site
      ~func:(func_site b loc) ~err:(trace_err e)

(* checker-mode disk writes land under this prefix *)
let scratch_prefix = "__wd/"

let scratch path = scratch_prefix ^ path

(* Shared empty-mailbox marker: the engine and the reference walker return
   this exact structure on a timed-out poll; it contains no mutable leaf, so
   one shared constant is indistinguishable from a fresh allocation. *)
let vmap_miss = VMap [ ("ok", VBool false) ]

(* The effect of an op over its [n] pre-evaluated arguments, the first two
   in [a0] and [a1] (unused ones are [VUnit]), outside its probe bracket.
   Handles come from the site's binding [b]. *)
let op_body t b (site : Compile.op_site) n a0 a1 =
  let loc = site.os_loc and target = site.os_target in
  match (site.os_kind, n) with
  | Disk_write, 2 ->
      let d = bound_disk t b target in
      let path = arg_str loc a0 and data = arg_bytes loc a1 in
      (match t.mode with
      | Main -> Wd_env.Disk.write d ~path data
      | Checker ->
          Wd_env.Disk.write ~as_path:path d ~path:(scratch path) data);
      VUnit
  | Disk_append, 2 ->
      let d = bound_disk t b target in
      let path = arg_str loc a0 and data = arg_bytes loc a1 in
      (match t.mode with
      | Main -> Wd_env.Disk.append d ~path data
      | Checker ->
          Wd_env.Disk.append ~as_path:path d ~path:(scratch path) data);
      VUnit
  | Disk_read, 1 ->
      let d = bound_disk t b target in
      let path = arg_str loc a0 in
      (match t.mode with
      | Main -> VBytes (Wd_env.Disk.read d ~path)
      | Checker ->
          (* Prefer the checker's own scratch copy; fall back to the
             real file, which a read cannot damage. Either way the
             fault site is the original path (fate sharing). *)
          let phys =
            if Wd_env.Disk.peek d ~path:(scratch path) <> None then
              scratch path
            else path
          in
          VBytes (Wd_env.Disk.read ~as_path:path d ~path:phys))
  | Disk_sync, 0 ->
      Wd_env.Disk.sync (bound_disk t b target);
      VUnit
  | Disk_delete, 1 ->
      let d = bound_disk t b target in
      let path = arg_str loc a0 in
      (match t.mode with
      | Main -> Wd_env.Disk.delete d ~path
      | Checker -> Wd_env.Disk.delete ~as_path:path d ~path:(scratch path));
      VUnit
  | Disk_exists, 1 ->
      VBool (Wd_env.Disk.exists (bound_disk t b target) ~path:(arg_str loc a0))
  | Disk_list, 1 ->
      let files =
        Wd_env.Disk.list (bound_disk t b target) ~prefix:(arg_str loc a0)
      in
      VList (List.map (fun f -> VStr f) files)
  | Net_send, 2 ->
      let n = bound_net t b target in
      let dst = arg_str loc a0 in
      (match t.mode with
      | Main -> Wd_env.Net.send n ~src:t.node ~dst a1
      | Checker ->
          (* Same src/dst fault site (fate sharing) but delivery lands in
             the destination's shadow inbox, invisible to the main
             program. *)
          let shadow = "__wd:" ^ dst in
          Wd_env.Net.ensure_registered n shadow;
          Wd_env.Net.send ~site_dst:dst n ~src:t.node ~dst:shadow a1);
      VUnit
  | Net_recv, 1 -> (
      let n = bound_net t b target in
      let timeout = Wd_sim.Time.ms (arg_int loc a0) in
      match t.mode with
      | Main -> (
          match Wd_env.Net.recv_timeout n t.node ~timeout with
          | Some env ->
              VMap
                [
                  ("ok", VBool true);
                  ("src", VStr env.Wd_env.Net.src);
                  ("payload", env.Wd_env.Net.payload);
                  ("corrupted", VBool env.Wd_env.Net.corrupted);
                ]
          | None -> vmap_miss)
      | Checker ->
          (* Receiving is not mimicked against live traffic; a checker
             poll returns an empty mailbox marker. *)
          vmap_miss)
  | Queue_put, 1 ->
      Wd_sim.Channel.send (bound_queue t b target) a0;
      VUnit
  | Queue_get, 1 -> (
      match t.mode with
      | Main -> (
          let q = bound_queue t b target in
          let timeout = Wd_sim.Time.ms (arg_int loc a0) in
          match Wd_sim.Channel.recv_timeout q ~timeout with
          | Some v -> VMap [ ("ok", VBool true); ("payload", v) ]
          | None -> vmap_miss)
      | Checker -> vmap_miss)
  | Mem_alloc, 1 ->
      let m = bound_mem t b target in
      let size = arg_int loc a0 in
      Wd_env.Memory.alloc m size;
      (* A checker must experience allocation stalls without leaking. *)
      (match t.mode with Checker -> Wd_env.Memory.free m size | Main -> ());
      VUnit
  | Mem_free, 1 ->
      (match t.mode with
      | Main -> Wd_env.Memory.free (bound_mem t b target) (arg_int loc a0)
      | Checker -> ());
      VUnit
  | State_get, 0 -> (
      match t.mode with
      | Main -> Runtime.global t.res target
      | Checker -> (
          match Hashtbl.find_opt t.shadow_globals target with
          | Some v -> v
          | None -> copy_value (Runtime.global t.res target)))
  | State_set, 1 ->
      (match t.mode with
      | Main -> Runtime.set_global t.res target a0
      | Checker -> Hashtbl.replace t.shadow_globals target a0);
      VUnit
  | Sleep_op, 1 ->
      Wd_sim.Sched.sleep (Wd_sim.Time.ms (arg_int loc a0));
      VUnit
  | Log_op, 1 ->
      Runtime.log t.res ~node:t.node (value_to_string a0);
      VUnit
  | kind, _ ->
      raise
        (Violation
           {
             loc;
             vkind = "arity";
             msg = Fmt.str "%s: bad arguments" (op_kind_name kind);
           })

(* Effectful op over its pre-evaluated arguments, by arity (see
   [op_body]). [a0] is also the operand the trace key is cut from. *)
let exec_op t (site : Compile.op_site) n a0 a1 =
  let s = Wd_sim.Sched.get () in
  let b = binding t site.os_id in
  let tkey =
    trace_key t s b ~opname:(op_kind_name site.os_kind) ~target:site.os_target
      (match a0 with VStr o when n >= 1 -> o | _ -> "")
  in
  let started = probe_enter t s b site.os_loc ~tkey site.os_desc in
  match op_body t b site n a0 a1 with
  | v ->
      probe_exit t s b site.os_loc ~is_lock:false ~tkey started;
      v
  | exception e ->
      probe_fail t s b site.os_loc ~tkey e;
      raise e

let exec_op0 t site = exec_op t site 0 VUnit VUnit
let exec_op1 t site a0 = exec_op t site 1 a0 VUnit
let exec_op2 t site a0 a1 = exec_op t site 2 a0 a1

(* The list seam: the reference walker's calls, and the compiled engine's
   three-or-more-argument ops, which [op_body] rejects by arity. *)
let exec_opn t site = function
  | [] -> exec_op0 t site
  | [ a0 ] -> exec_op1 t site a0
  | [ a0; a1 ] -> exec_op2 t site a0 a1
  | a0 :: _ as vargs -> exec_op t site (List.length vargs) a0 VUnit

(* Checker-mode acquisition: poll [try_lock] every 50 ms until [deadline]. *)
let rec try_lock_until s lock deadline =
  if Wd_sim.Smutex.try_lock lock then true
  else if Wd_sim.Sched.now s >= deadline then false
  else begin
    Wd_sim.Sched.sleep (Wd_sim.Time.ms 50);
    try_lock_until s lock deadline
  end

(* Mode-specific lock protocol around a body thunk; shared with the
   reference walker. Only the acquisition is inside the probe bracket. *)
let exec_sync_v t ~site loc ~lock:lockname ~desc body =
  let b = binding t site in
  let lock = bound_lock t b lockname in
  match t.mode with
  | Main -> (
      let s = Wd_sim.Sched.get () in
      let tkey = trace_key t s b ~opname:"sync" ~target:lockname "" in
      let started = probe_enter t s b loc ~tkey desc in
      (match Wd_sim.Smutex.lock lock with
      | () -> probe_exit t s b loc ~is_lock:true ~tkey started
      | exception e ->
          probe_fail t s b loc ~tkey e;
          raise e);
      match body () with
      | () -> Wd_sim.Smutex.unlock lock
      | exception e ->
          Wd_sim.Smutex.unlock lock;
          raise e)
  | Checker ->
      (* Try-lock with timeout: hanging forever against a wedged main
         program would defeat the watchdog; timing out *is* the finding.
         Once acquired the lock is released immediately: the checker's body
         works on scratch files and shadow state, so it needs no mutual
         exclusion — and holding a real lock across a mimicked (possibly
         hanging) operation would let the watchdog wedge the main program,
         the §3.2 isolation failure. *)
      let s = Wd_sim.Sched.get () in
      let started = probe_enter t s b loc ~tkey:no_tkey desc in
      let acquired =
        match
          try_lock_until s lock (Int64.add (Wd_sim.Sched.now s) t.lock_timeout)
        with
        | acquired ->
            probe_exit t s b loc ~is_lock:true ~tkey:no_tkey started;
            acquired
        | exception e ->
            probe_fail t s b loc ~tkey:no_tkey e;
            raise e
      in
      if not acquired then
        raise
          (Violation
             {
               loc;
               vkind = "liveness";
               msg =
                 Fmt.str "lock %s not acquired within %a" lockname Wd_sim.Time.pp
                   t.lock_timeout;
             });
      Wd_sim.Smutex.unlock lock;
      body ()

(* --- hooks ---

   A hook is bound once per registration, not per fire: on its first fire
   the sink is asked for the hook's deliverer, and the frame slot of each
   captured name is looked up in the firing function's layout (re-done
   only if the hook fires from a function with another layout). A fire
   then reads slots into the hook's reusable buffer and makes one call.
   Replication: a value holding a VBytes anywhere is copied, so the sink
   never aliases a mutable buffer; every other value is persistent, and
   sharing it is indistinguishable from a deep copy. *)

let replicate v = Some (if value_immutable v then v else copy_value v)

(* The hook of [id] if registered and delivered to, with its deliverer. *)
let bound_hook t id =
  if id < 0 || id >= Array.length t.hooks then None
  else
    match Array.unsafe_get t.hooks id with
    | None -> None
    | Some hk as found ->
        if not hk.hk_bound then begin
          hk.hk_deliver <-
            (match t.hook_sink with
            | None -> None
            | Some sink -> sink id hk.hk_spec);
          hk.hk_bound <- true
        end;
        if hk.hk_deliver == None then None else found

let deliver hk =
  match hk.hk_deliver with Some d -> d hk.hk_buf | None -> ()

(* Fire hook [id] from a compiled frame laid out by [layout]. *)
let exec_hook_v t id layout frame =
  match t.mode with
  | Checker -> ()
  | Main -> (
      match bound_hook t id with
      | None -> ()
      | Some hk ->
          if hk.hk_layout != layout then begin
            hk.hk_slots <-
              Array.map
                (fun x -> Option.value (Hashtbl.find_opt layout x) ~default:(-1))
                hk.hk_vars;
            hk.hk_layout <- layout
          end;
          let slots = hk.hk_slots and buf = hk.hk_buf in
          for j = 0 to Array.length slots - 1 do
            let i = Array.unsafe_get slots j in
            Array.unsafe_set buf j
              (if i < 0 then None
               else
                 let v = Array.unsafe_get frame i in
                 if v == Compile.unbound then None else replicate v)
          done;
          deliver hk)

(* Fire hook [id] from a tree-walker frame. *)
let exec_hook_ref t id frame =
  match t.mode with
  | Checker -> ()
  | Main -> (
      match bound_hook t id with
      | None -> ()
      | Some hk ->
          Array.iteri
            (fun j x ->
              hk.hk_buf.(j) <-
                (match Hashtbl.find_opt frame x with
                | Some v -> replicate v
                | None -> None))
            hk.hk_vars;
          deliver hk)

(* --- statement execution (tree-walking reference engine) --- *)

let rec exec_block t frame depth block = List.iter (exec_stmt t frame depth) block

and exec_stmt t frame depth st =
  charge_stmt t;
  let loc = st.loc in
  match st.node with
  | Let (x, e) | Assign (x, e) -> Hashtbl.replace frame x (eval t frame loc e)
  | Op { kind; target; args; bind } -> (
      let vargs = List.map (eval t frame loc) args in
      let site =
        {
          Compile.os_id = -1;
          os_loc = loc;
          os_kind = kind;
          os_target = target;
          os_desc = op_desc_memo t kind target;
        }
      in
      let v = exec_opn t site vargs in
      match bind with Some x -> Hashtbl.replace frame x v | None -> ())
  | Call { func; args; bind } -> (
      let vargs = List.map (eval t frame loc) args in
      let v = exec_call t depth func vargs in
      match bind with Some x -> Hashtbl.replace frame x v | None -> ())
  | If (c, th, el) ->
      if truthy loc (eval t frame loc c) then exec_block t frame depth th
      else exec_block t frame depth el
  | While (c, body) ->
      while truthy loc (eval t frame loc c) do
        exec_block t frame depth body
      done
  | Foreach (x, e, body) -> (
      match eval t frame loc e with
      | VList items ->
          List.iter
            (fun item ->
              Hashtbl.replace frame x item;
              exec_block t frame depth body)
            items
      | v -> Compile.err_foreach loc v)
  | Sync (lockname, body) ->
      let desc = lock_desc_memo t lockname in
      exec_sync_v t ~site:(-1) loc ~lock:lockname ~desc (fun () ->
          exec_block t frame depth body)
  | Try (body, exn, handler) -> (
      try exec_block t frame depth body with
      | Wd_env.Disk.Io_error m
      | Wd_env.Net.Net_error m
      | Wd_env.Memory.Out_of_memory m ->
          Hashtbl.replace frame exn (VStr m);
          exec_block t frame depth handler
      | Wd_sim.Channel.Closed m ->
          Hashtbl.replace frame exn (VStr ("channel closed: " ^ m));
          exec_block t frame depth handler)
  | Return e -> raise (Return_exn (eval t frame loc e))
  | Assert (e, msg) ->
      if not (truthy loc (eval t frame loc e)) then
        raise (Violation { loc; vkind = "assert"; msg })
  | Compute { cost_ns; note = _ } -> charge t cost_ns
  | Hook id -> exec_hook_ref t id frame

and exec_call t depth fname vargs =
  if depth > t.ctx.Compile.cx_max_depth then
    Compile.err_depth t.ctx.Compile.cx_max_depth;
  let f, arity =
    match Hashtbl.find_opt t.funcs_by_name fname with
    | Some fa -> fa
    | None ->
        (* unknown function: defer to [find_func] for the canonical error *)
        let f = find_func t.prog fname in
        (f, List.length f.params)
  in
  if List.compare_length_with vargs arity <> 0 then
    Compile.err_call_arity fname;
  let frame = Hashtbl.create 16 in
  List.iter2 (fun p v -> Hashtbl.replace frame p v) f.params vargs;
  match exec_block t frame (depth + 1) f.body with
  | () -> VUnit
  | exception Return_exn v -> v

(* --- compiled engine: runtime interface and program cache --- *)

let rt : t Compile.rt =
  {
    Compile.exec_op0;
    exec_op1;
    exec_op2;
    exec_opn;
    exec_sync = exec_sync_v;
    exec_hook = exec_hook_v;
  }

type compiled = t Compile.t

(* One compiled form per (program, domain), held in domain-local storage —
   mirrors [Generate.analyze_cached]. Campaign workers are persistent (the
   pool outlives batches), so each domain compiles a target once and then
   hits its own table with no cross-domain contention: the hot-path lookup
   takes no lock at all. Invalidation is epoch-based — [clear_compile_cache]
   bumps the global [Compile] epoch and each domain resets its table lazily
   on its next lookup — because one domain cannot reach into another's
   storage. The same epoch invalidates every call-site inline cache inside
   compiled forms that stay live across the bump. *)
let cache_hits = Atomic.make 0
let cache_misses = Atomic.make 0

type cache_slot = {
  mutable cs_epoch : int;
  cs_tbl : (string, compiled) Hashtbl.t;
}

let cache_key : cache_slot Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { cs_epoch = -1; cs_tbl = Hashtbl.create 64 })

let local_cache () =
  let slot = Domain.DLS.get cache_key in
  let now = Compile.current_epoch () in
  if slot.cs_epoch <> now then begin
    Hashtbl.reset slot.cs_tbl;
    slot.cs_epoch <- now
  end;
  slot.cs_tbl

let prog_digest (prog : program) =
  Digest.to_hex (Digest.string (Marshal.to_string prog []))

let precompile prog =
  let key = prog_digest prog in
  let tbl = local_cache () in
  match Hashtbl.find_opt tbl key with
  | Some cp ->
      Atomic.incr cache_hits;
      cp
  | None ->
      Atomic.incr cache_misses;
      let cp = Compile.compile ~rt prog in
      Hashtbl.add tbl key cp;
      cp

let compile_cache_stats () = (Atomic.get cache_hits, Atomic.get cache_misses)

let clear_compile_cache () =
  Compile.bump_epoch ();
  Atomic.set cache_hits 0;
  Atomic.set cache_misses 0

(* --- construction and public API --- *)

(* The test-only seam onto the tree-walker. Process-wide rather than
   domain-local, so that interpreters on every pool domain walk the AST
   while a differential test holds it. *)
module Reference = struct
  let active = Atomic.make false

  let within f =
    let prev = Atomic.exchange active true in
    Fun.protect ~finally:(fun () -> Atomic.set active prev) f
end

(* virtual CPU cost of one statement, and the accumulated cost at which the
   interpreter yields it to the scheduler as one sleep *)
let stmt_cost = 100
let cpu_quantum = Wd_sim.Time.us 10

let create ?compiled ?(mode = Main) ?(lock_timeout = Wd_sim.Time.sec 5) ~node
    ~res prog =
  let compiled =
    match compiled with
    | Some cp ->
        let cprog = Compile.program cp in
        if not (cprog == prog || cprog = prog) then
          invalid_arg "Interp.create: compiled form is for a different program";
        cp
    | None -> precompile prog
  in
  let funcs_by_name = Hashtbl.create (2 * List.length prog.funcs) in
  List.iter
    (fun f ->
      (* keep the first binding, matching [Ast.find_func] *)
      if not (Hashtbl.mem funcs_by_name f.fname) then
        Hashtbl.add funcs_by_name f.fname (f, List.length f.params))
    prog.funcs;
  {
    prog;
    funcs_by_name;
    res;
    node;
    mode;
    hook_sink = None;
    hooks = [||];
    probe =
      {
        op_active = false;
        op_loc = Loc.dummy;
        op_desc = "";
        op_started = 0;
        last_loc = Loc.dummy;
        op_ns = 0;
      };
    shadow_globals = Hashtbl.create 16;
    lock_timeout;
    ctx =
      Compile.make_ctx
        ~stmt_cost ~quantum:(Int64.to_int cpu_quantum) ~max_depth:512;
    op_descs = Hashtbl.create 16;
    lock_descs = Hashtbl.create 8;
    trace_keys = Hashtbl.create 32;
    node_site = Wd_sim.Site.intern node;
    compiled;
    bindings = Array.make (Compile.sites compiled) unbound_site;
  }

let call t fname args =
  if Atomic.get Reference.active then exec_call t 0 fname args
  else Compile.call t.compiled t t.ctx fname args

let frame_pool_stats t fname = Compile.frame_pool_stats t.compiled fname

let ic_refills = Compile.ic_refill_count

let start ?entries t sched =
  let wanted = entries in
  let selected =
    match wanted with
    | None -> t.prog.entries
    | Some names ->
        List.filter (fun e -> List.mem e.entry_name names) t.prog.entries
  in
  List.map
    (fun e ->
      Wd_sim.Sched.spawn ~name:(Fmt.str "%s/%s" t.node e.entry_name) ~daemon:true
        sched
        (fun () -> ignore (call t e.entry_func e.entry_args)))
    selected
