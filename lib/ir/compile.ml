(* Closure compiler: lowers each IR function, once, into a tree of OCaml
   closures. See compile.mli for the lowering strategy and the parity
   contract with the tree-walking reference engine in [Interp].

   Execution is direct-threaded: every statement closure receives its
   continuation at compile time and tail-calls it, so a basic block runs as
   a chain of tail calls with no per-statement dispatch loop, no block
   arrays and no intermediate closure layers. Constructs that open a
   dynamic extent (Try's handler scope, Sync's lock hold, loop bodies)
   compile their interior against the [halt] terminator and call their own
   continuation outside that extent, which is what keeps exception scoping
   identical to the tree-walker.

   CPU charging is inlined into every statement closure through the
   concrete {!ctx} record rather than reached through a per-statement
   indirect call; ops, sync protocols and hooks still funnel through the
   ['i rt] record so one compiled program serves Main and Checker instances
   alike and the effectful semantics live in exactly one place. *)

open Ast

exception Violation of { loc : Loc.t; vkind : string; msg : string }
exception Return_exn of value

(* --- the compile epoch ---

   Bumped by [Interp.clear_compile_cache]. Domain-local program caches and
   the call-site inline caches below both validate against it: a bump
   makes every cached compiled form stale and every call site re-read its
   callee's compiled fields on next execution. *)

let epoch = Atomic.make 0
let current_epoch () = Atomic.get epoch
let bump_epoch () = Atomic.incr epoch

(* --- execution context: CPU accounting + depth budget ---

   One per interpreter instance, threaded through every compiled closure so
   statement charging is straight-line field arithmetic (immediate ints)
   instead of an indirect call into the interpreter. The tree-walker
   updates the same record through {!charge_stmt}/{!charge}, which is what
   keeps [stmts_executed] and quantum-flush timing engine-identical. *)

type ctx = {
  cx_cost : int; (* virtual ns charged per statement *)
  cx_quantum : int; (* accumulated cost is flushed to the clock at this *)
  mutable cx_acc : int;
  mutable cx_stmts : int;
  cx_max_depth : int;
  (* Return-value slot for the compiled engine's exception-free tail
     returns; valid only between a body's normal completion and the call
     site's immediate read (same fiber, no suspension in between). *)
  mutable cx_ret : value;
}

let make_ctx ~stmt_cost ~quantum ~max_depth =
  {
    cx_cost = stmt_cost;
    cx_quantum = quantum;
    cx_acc = 0;
    cx_stmts = 0;
    cx_max_depth = max_depth;
    cx_ret = VUnit;
  }

(* Charge CPU time for an interpreted statement, flushed in quanta so that
   a busy loop advances virtual time (an infinite loop must not freeze the
   simulation, and must be observable as non-progress). *)
let[@inline] charge_stmt c =
  c.cx_stmts <- c.cx_stmts + 1;
  let acc = c.cx_acc + c.cx_cost in
  if acc >= c.cx_quantum then begin
    c.cx_acc <- 0;
    Wd_sim.Sched.sleep (Int64.of_int acc)
  end
  else c.cx_acc <- acc

let charge c cost =
  if Int64.compare cost 0x2000_0000_0000_0000L >= 0 then begin
    (* degenerate huge cost: flush directly, with int64 precision *)
    let acc = Int64.add (Int64.of_int c.cx_acc) cost in
    c.cx_acc <- 0;
    Wd_sim.Sched.sleep acc
  end
  else begin
    let acc = c.cx_acc + Int64.to_int cost in
    if acc >= c.cx_quantum then begin
      c.cx_acc <- 0;
      Wd_sim.Sched.sleep (Int64.of_int acc)
    end
    else c.cx_acc <- acc
  end

(* One [Op] statement of a compiled program. [os_id] is dense per
   compiled program (ops and [Sync]s share the numbering), so an
   interpreter can keep what it resolves for the site in an array; the
   reference walker, which has no compiled form, passes [-1]. *)
type op_site = {
  os_id : int;
  os_loc : Loc.t;
  os_kind : op_kind;
  os_target : string;
  os_desc : string;
}

type 'i rt = {
  exec_op0 : 'i -> op_site -> value;
  exec_op1 : 'i -> op_site -> value -> value;
  exec_op2 : 'i -> op_site -> value -> value -> value;
  exec_opn : 'i -> op_site -> value list -> value;
  exec_sync :
    'i -> site:int -> Loc.t -> lock:string -> desc:string -> (unit -> unit) -> unit;
  exec_hook : 'i -> int -> (string, int) Hashtbl.t -> value array -> unit;
}

(* Frame slots are always "bound" to something; reads of a name the program
   never assigned must still raise the tree-walker's unbound violation. A
   single private block, tested by physical equality, marks empty slots —
   program values can never be physically equal to it. It must never leak
   into program-visible state: [Var] reads and hook captures check it. *)
let unbound : value = VStr "\x00wd:unbound\x00"

let vtrue = VBool true
let vfalse = VBool false

(* Raise helpers shared by both engines: the single source of truth for
   violation payloads, and never inlined so no error string is formatted
   before the raise decision. *)
let[@inline never] verr loc vkind msg = raise (Violation { loc; vkind; msg })

let[@inline never] err_unbound loc x =
  verr loc "unbound" (Fmt.str "unbound variable %s" x)

let[@inline never] err_cond loc v =
  verr loc "type" (Fmt.str "condition not bool: %a" pp_value v)

let[@inline never] err_logic loc v =
  verr loc "type" (Fmt.str "logic op on %a" pp_value v)

let[@inline never] err_int_op loc va vb =
  verr loc "type" (Fmt.str "int op on %a, %a" pp_value va pp_value vb)

let[@inline never] err_cmp loc va vb =
  verr loc "type" (Fmt.str "comparison on %a, %a" pp_value va pp_value vb)

let[@inline never] err_concat loc va vb =
  verr loc "type" (Fmt.str "concat on %a, %a" pp_value va pp_value vb)

let[@inline never] err_not loc v = verr loc "type" (Fmt.str "not: %a" pp_value v)
let[@inline never] err_neg loc v = verr loc "type" (Fmt.str "neg: %a" pp_value v)
let[@inline never] err_len loc v = verr loc "type" (Fmt.str "len: %a" pp_value v)
let[@inline never] err_fst loc v = verr loc "type" (Fmt.str "fst: %a" pp_value v)
let[@inline never] err_snd loc v = verr loc "type" (Fmt.str "snd: %a" pp_value v)

let[@inline never] err_foreach loc v =
  verr loc "type" (Fmt.str "foreach over %a" pp_value v)

let[@inline never] err_prim loc m = verr loc "prim" m

let[@inline never] err_depth n =
  verr Loc.dummy "depth" (Fmt.str "call depth > %d" n)

let[@inline never] err_call_arity fname =
  verr Loc.dummy "arity" (Fmt.str "call %s arity" fname)

let op_desc kind target = op_kind_name kind ^ "(" ^ target ^ ")"

(* --- slot resolution --- *)

type fenv = { slots : (string, int) Hashtbl.t; mutable next : int }

let slot fenv x =
  match Hashtbl.find_opt fenv.slots x with
  | Some i -> i
  | None ->
      let i = fenv.next in
      fenv.next <- i + 1;
      Hashtbl.add fenv.slots x i;
      i

(* --- compiled form --- *)

(* A statement / continuation: instance, context, frame, call depth. *)
type 'i kont = 'i -> ctx -> value array -> int -> unit

let halt : 'i kont = fun _ _ _ _ -> ()

(* The terminator of a *function body* (as opposed to the [halt] of inner
   extents — loop/try/sync interiors): falling off the end of a function
   yields [VUnit] through the return slot. A [Return] compiled directly
   against this terminator (i.e. in tail position of the body, including
   through tail [If] branches) writes the slot instead of raising —
   [Return_exn] is only paid by non-tail returns escaping an inner extent. *)
let kfin : 'i kont = fun _ c _ _ -> c.cx_ret <- VUnit

type 'i cfunc = {
  cf_src : func; (* identity of the first binding; pass 2 compiles only it *)
  cf_arity : int;
  mutable cf_param_slots : int array;
  mutable cf_nslots : int;
  mutable cf_body : 'i kont; (* raises Return_exn *)
  (* Frame pool: slot arrays recycled across calls. A frame is popped for
     the duration of one activation (including any suspension inside it),
     so concurrent fibers always hold distinct frames; frames abandoned to
     an escaping exception are simply not returned. Single-domain use only,
     like every other mutable compiled-form structure. *)
  mutable cf_pool : value array list;
  mutable cf_pool_len : int;
  mutable cf_pool_hits : int;
}

type 'i t = {
  cp_prog : program;
  cp_funcs : (string, 'i cfunc) Hashtbl.t;
  cp_sites : int; (* op and sync sites, numbered from 0 *)
}

let pool_cap = 32

let frame_get cf =
  match cf.cf_pool with
  | nf :: rest ->
      cf.cf_pool <- rest;
      cf.cf_pool_len <- cf.cf_pool_len - 1;
      cf.cf_pool_hits <- cf.cf_pool_hits + 1;
      Array.fill nf 0 (Array.length nf) unbound;
      nf
  | [] -> Array.make cf.cf_nslots unbound

let frame_put cf nf =
  if cf.cf_pool_len < pool_cap then begin
    cf.cf_pool <- nf :: cf.cf_pool;
    cf.cf_pool_len <- cf.cf_pool_len + 1
  end

(* --- call-site inline caches ---

   Each compiled call site owns one monomorphic cache of its callee's
   mutable compiled fields ([cf_body] / [cf_param_slots] are re-bound by
   pass 2 and by recompilation). The cache is validated against the global
   compile epoch on every call: one immediate comparison on the hot path,
   a re-read of the callee handle when stale. *)

type 'i site = {
  s_cf : 'i cfunc;
  mutable s_epoch : int;
  mutable s_body : 'i kont;
  mutable s_params : int array;
}

let ic_refills = Atomic.make 0
let ic_refill_count () = Atomic.get ic_refills

let refill site =
  Atomic.incr ic_refills;
  site.s_body <- site.s_cf.cf_body;
  site.s_params <- site.s_cf.cf_param_slots;
  site.s_epoch <- current_epoch ()

(* Flattened left-to-right argument evaluation: no [List.map] closure per
   execution for the common small arities. *)
let cargs cs : value array -> value list =
  match cs with
  | [] -> fun _ -> []
  | [ a ] -> fun f -> [ a f ]
  | [ a; b ] ->
      fun f ->
        let va = a f in
        let vb = b f in
        [ va; vb ]
  | [ a; b; c ] ->
      fun f ->
        let va = a f in
        let vb = b f in
        let vc = c f in
        [ va; vb; vc ]
  | [ a; b; c; d ] ->
      fun f ->
        let va = a f in
        let vb = b f in
        let vc = c f in
        let vd = d f in
        [ va; vb; vc; vd ]
  | cs -> fun f -> List.map (fun c -> c f) cs

(* A [Prim] node is bound to its implementation here, once: a call is the
   arguments, left to right, then a direct call — no argument list, no
   name dispatch; a variadic primitive gets the argument list. Unknown
   names and wrong arities go through [Prims.apply], which raises exactly
   as it does for the tree-walker. *)
let cprim loc name cs : value array -> value =
  match (Prims.find name, cs) with
  | Some (Prims.A0 p), [] -> (
      fun _ -> try p () with Prims.Prim_error m -> err_prim loc m)
  | Some (Prims.A1 p), [ a ] -> (
      fun f ->
        let va = a f in
        try p va with Prims.Prim_error m -> err_prim loc m)
  | Some (Prims.A2 p), [ a; b ] -> (
      fun f ->
        let va = a f in
        let vb = b f in
        try p va vb with Prims.Prim_error m -> err_prim loc m)
  | Some (Prims.A3 p), [ a; b; c ] -> (
      fun f ->
        let va = a f in
        let vb = b f in
        let vc = c f in
        try p va vb vc with Prims.Prim_error m -> err_prim loc m)
  | Some (Prims.An p), _ -> (
      let k = cargs cs in
      fun f ->
        let vs = k f in
        try p vs with Prims.Prim_error m -> err_prim loc m)
  | _ -> (
      let k = cargs cs in
      fun f ->
        let vs = k f in
        try Prims.apply name vs with Prims.Prim_error m -> err_prim loc m)

(* --- expression compilation (pure: closures take only the frame) --- *)

let rec cexpr fenv loc e : value array -> value =
  match e with
  | Const v -> fun _ -> v
  | Var x ->
      let i = slot fenv x in
      fun f ->
        let v = Array.unsafe_get f i in
        if v == unbound then err_unbound loc x else v
  | Binop (op, a, b) -> cbinop fenv loc op a b
  | Unop (Not, e1) -> (
      let c = cexpr fenv loc e1 in
      fun f -> match c f with VBool b -> VBool (not b) | v -> err_not loc v)
  | Unop (Neg, e1) -> (
      let c = cexpr fenv loc e1 in
      fun f -> match c f with VInt i -> VInt (-i) | v -> err_neg loc v)
  | Unop (Len, e1) -> (
      let c = cexpr fenv loc e1 in
      fun f ->
        match c f with
        | VStr s -> VInt (String.length s)
        | VBytes b -> VInt (Bytes.length b)
        | VList l -> VInt (List.length l)
        | VMap m -> VInt (List.length m)
        | v -> err_len loc v)
  | Pair (a, b) ->
      let ca = cexpr fenv loc a in
      let cb = cexpr fenv loc b in
      fun f ->
        let va = ca f in
        let vb = cb f in
        VPair (va, vb)
  | Fst e1 -> (
      let c = cexpr fenv loc e1 in
      fun f -> match c f with VPair (a, _) -> a | v -> err_fst loc v)
  | Snd e1 -> (
      let c = cexpr fenv loc e1 in
      fun f -> match c f with VPair (_, b) -> b | v -> err_snd loc v)
  | Prim (name, args) -> cprim loc name (List.map (cexpr fenv loc) args)

(* Operand-shape specialisation: loop-dominant arithmetic and comparison
   shapes (Var/Const and Var/Var int operands) compile to flat slot reads
   with no inner closure calls. Error order matches the generic path
   exactly: left operand's unbound check, right operand's unbound check,
   then the type violation with both evaluated values. *)
and cbinop fenv loc op a b : value array -> value =
  match op with
  | And ->
      (* Short-circuit; a non-bool left side is a type violation before the
         right side is touched. The right side's raw value is the result,
         unchecked — exactly the tree-walker. *)
      let ca = cbool fenv loc (fun v -> err_logic loc v) a in
      let cb = cexpr fenv loc b in
      fun f -> if ca f then cb f else vfalse
  | Or ->
      let ca = cbool fenv loc (fun v -> err_logic loc v) a in
      let cb = cexpr fenv loc b in
      fun f -> if ca f then vtrue else cb f
  | Add -> (
      match (a, b) with
      | Var x, Const (VInt n) ->
          let i = slot fenv x in
          let vb = VInt n in
          fun f -> (
            match Array.unsafe_get f i with
            | VInt v -> VInt (v + n)
            | va ->
                if va == unbound then err_unbound loc x
                else err_int_op loc va vb)
      | Var x, Var y ->
          let i = slot fenv x in
          let j = slot fenv y in
          fun f ->
            let va = Array.unsafe_get f i in
            if va == unbound then err_unbound loc x;
            let vb = Array.unsafe_get f j in
            if vb == unbound then err_unbound loc y;
            (match (va, vb) with
            | VInt p, VInt q -> VInt (p + q)
            | _ -> err_int_op loc va vb)
      | Const (VInt n), Var y ->
          let j = slot fenv y in
          let va = VInt n in
          fun f -> (
            match Array.unsafe_get f j with
            | VInt v -> VInt (n + v)
            | vb ->
                if vb == unbound then err_unbound loc y
                else err_int_op loc va vb)
      | _ ->
          let ca = cexpr fenv loc a in
          let cb = cexpr fenv loc b in
          fun f -> (
            let va = ca f in
            let vb = cb f in
            match (va, vb) with
            | VInt x, VInt y -> VInt (x + y)
            | _ -> err_int_op loc va vb))
  | Sub -> (
      match (a, b) with
      | Var x, Const (VInt n) ->
          let i = slot fenv x in
          let vb = VInt n in
          fun f -> (
            match Array.unsafe_get f i with
            | VInt v -> VInt (v - n)
            | va ->
                if va == unbound then err_unbound loc x
                else err_int_op loc va vb)
      | Var x, Var y ->
          let i = slot fenv x in
          let j = slot fenv y in
          fun f ->
            let va = Array.unsafe_get f i in
            if va == unbound then err_unbound loc x;
            let vb = Array.unsafe_get f j in
            if vb == unbound then err_unbound loc y;
            (match (va, vb) with
            | VInt p, VInt q -> VInt (p - q)
            | _ -> err_int_op loc va vb)
      | _ ->
          let ca = cexpr fenv loc a in
          let cb = cexpr fenv loc b in
          fun f -> (
            let va = ca f in
            let vb = cb f in
            match (va, vb) with
            | VInt x, VInt y -> VInt (x - y)
            | _ -> err_int_op loc va vb))
  | Mul ->
      let ca = cexpr fenv loc a in
      let cb = cexpr fenv loc b in
      fun f -> (
        let va = ca f in
        let vb = cb f in
        match (va, vb) with
        | VInt x, VInt y -> VInt (x * y)
        | _ -> err_int_op loc va vb)
  | Div ->
      let ca = cexpr fenv loc a in
      let cb = cexpr fenv loc b in
      fun f -> (
        let va = ca f in
        let vb = cb f in
        match (va, vb) with
        | VInt x, VInt y ->
            if y = 0 then verr loc "arith" "division by zero" else VInt (x / y)
        | _ -> err_int_op loc va vb)
  | Mod ->
      let ca = cexpr fenv loc a in
      let cb = cexpr fenv loc b in
      fun f -> (
        let va = ca f in
        let vb = cb f in
        match (va, vb) with
        | VInt x, VInt y ->
            if y = 0 then verr loc "arith" "mod by zero" else VInt (x mod y)
        | _ -> err_int_op loc va vb)
  | Eq ->
      let ca = cexpr fenv loc a in
      let cb = cexpr fenv loc b in
      fun f ->
        let va = ca f in
        let vb = cb f in
        if value_equal va vb then vtrue else vfalse
  | Ne ->
      let ca = cexpr fenv loc a in
      let cb = cexpr fenv loc b in
      fun f ->
        let va = ca f in
        let vb = cb f in
        if value_equal va vb then vfalse else vtrue
  | (Lt | Le | Gt | Ge) as op ->
      let c = ccmp fenv loc op a b in
      fun f -> if c f then vtrue else vfalse
  | Concat ->
      let ca = cexpr fenv loc a in
      let cb = cexpr fenv loc b in
      fun f -> (
        let va = ca f in
        let vb = cb f in
        match (va, vb) with
        | VStr x, VStr y -> VStr (x ^ y)
        | _ -> err_concat loc va vb)

and ccmp fenv loc op a b : value array -> bool =
  (* [cmp_vc]/[cmp_vv] specialise the Var/Const-int and Var/Var shapes that
     dominate loop conditions; the generic closure pair remains for
     everything else (including string comparison). *)
  let generic op =
    let ca = cexpr fenv loc a in
    let cb = cexpr fenv loc b in
    match op with
    | `Lt ->
        fun f -> (
          let va = ca f in
          let vb = cb f in
          match (va, vb) with
          | VInt x, VInt y -> x < y
          | VStr x, VStr y -> String.compare x y < 0
          | _ -> err_cmp loc va vb)
    | `Le ->
        fun f -> (
          let va = ca f in
          let vb = cb f in
          match (va, vb) with
          | VInt x, VInt y -> x <= y
          | VStr x, VStr y -> String.compare x y <= 0
          | _ -> err_cmp loc va vb)
    | `Gt ->
        fun f -> (
          let va = ca f in
          let vb = cb f in
          match (va, vb) with
          | VInt x, VInt y -> x > y
          | VStr x, VStr y -> String.compare x y > 0
          | _ -> err_cmp loc va vb)
    | `Ge ->
        fun f -> (
          let va = ca f in
          let vb = cb f in
          match (va, vb) with
          | VInt x, VInt y -> x >= y
          | VStr x, VStr y -> String.compare x y >= 0
          | _ -> err_cmp loc va vb)
  in
  match (a, b) with
  | Var x, Const (VInt n) -> (
      let i = slot fenv x in
      let vb = VInt n in
      let bad va =
        if va == unbound then err_unbound loc x else err_cmp loc va vb
      in
      match op with
      | Lt -> (
          fun f ->
            match Array.unsafe_get f i with VInt v -> v < n | va -> bad va)
      | Le -> (
          fun f ->
            match Array.unsafe_get f i with VInt v -> v <= n | va -> bad va)
      | Gt -> (
          fun f ->
            match Array.unsafe_get f i with VInt v -> v > n | va -> bad va)
      | Ge -> (
          fun f ->
            match Array.unsafe_get f i with VInt v -> v >= n | va -> bad va)
      | _ -> assert false)
  | Var x, Var y -> (
      let i = slot fenv x in
      let j = slot fenv y in
      let pair f =
        let va = Array.unsafe_get f i in
        if va == unbound then err_unbound loc x;
        let vb = Array.unsafe_get f j in
        if vb == unbound then err_unbound loc y;
        (va, vb)
      in
      match op with
      | Lt -> (
          fun f ->
            match pair f with
            | VInt p, VInt q -> p < q
            | VStr p, VStr q -> String.compare p q < 0
            | va, vb -> err_cmp loc va vb)
      | Le -> (
          fun f ->
            match pair f with
            | VInt p, VInt q -> p <= q
            | VStr p, VStr q -> String.compare p q <= 0
            | va, vb -> err_cmp loc va vb)
      | Gt -> (
          fun f ->
            match pair f with
            | VInt p, VInt q -> p > q
            | VStr p, VStr q -> String.compare p q > 0
            | va, vb -> err_cmp loc va vb)
      | Ge -> (
          fun f ->
            match pair f with
            | VInt p, VInt q -> p >= q
            | VStr p, VStr q -> String.compare p q >= 0
            | va, vb -> err_cmp loc va vb)
      | _ -> assert false)
  | _ -> (
      match op with
      | Lt -> generic `Lt
      | Le -> generic `Le
      | Gt -> generic `Gt
      | Ge -> generic `Ge
      | Add | Sub | Mul | Div | Mod | Eq | Ne | And | Or | Concat ->
          assert false)

(* Compile an expression used as a condition, producing a bare [bool].
   [bad] is the violation to raise when the expression's *value* turns out
   non-bool; it differs by context ("condition not bool" under
   If/While/Assert, "logic op" under And/Or), matching the tree-walker's
   [truthy]-vs-[eval_binop] split. Comparison/equality shapes skip the
   check entirely — they cannot produce non-bools. *)
and cbool fenv loc (bad : value -> bool) e : value array -> bool =
  match e with
  | Const (VBool true) -> fun _ -> true
  | Const (VBool false) -> fun _ -> false
  | Binop (Eq, a, b) ->
      let ca = cexpr fenv loc a in
      let cb = cexpr fenv loc b in
      fun f ->
        let va = ca f in
        let vb = cb f in
        value_equal va vb
  | Binop (Ne, a, b) ->
      let ca = cexpr fenv loc a in
      let cb = cexpr fenv loc b in
      fun f ->
        let va = ca f in
        let vb = cb f in
        not (value_equal va vb)
  | Binop (((Lt | Le | Gt | Ge) as op), a, b) -> ccmp fenv loc op a b
  | Binop (And, a, b) ->
      let ca = cbool fenv loc (fun v -> err_logic loc v) a in
      let cb = cbool fenv loc bad b in
      fun f -> if ca f then cb f else false
  | Binop (Or, a, b) ->
      let ca = cbool fenv loc (fun v -> err_logic loc v) a in
      let cb = cbool fenv loc bad b in
      fun f -> if ca f then true else cb f
  | Unop (Not, e1) ->
      let c = cbool fenv loc (fun v -> err_not loc v) e1 in
      fun f -> not (c f)
  | e -> (
      let c = cexpr fenv loc e in
      fun f -> match c f with VBool b -> b | v -> bad v)

let clist fenv loc args = cargs (List.map (cexpr fenv loc) args)

(* Where an [Op] or [Call] result goes: its bound variable's slot, or
   nowhere. *)
let cbind fenv bind : value array -> value -> unit =
  match bind with
  | None -> fun _f _v -> ()
  | Some x ->
      let i = slot fenv x in
      fun f v -> Array.unsafe_set f i v

(* --- statement and program compilation --- *)

let compile ~rt prog =
  let funcs = Hashtbl.create (2 * List.length prog.funcs) in
  (* Pass 1: one handle per name (first binding wins, like [find_func]), so
     call sites — including forward and mutual references — resolve to the
     handle now and read the body through it at run time. *)
  List.iter
    (fun f ->
      if not (Hashtbl.mem funcs f.fname) then
        Hashtbl.add funcs f.fname
          {
            cf_src = f;
            cf_arity = List.length f.params;
            cf_param_slots = [||];
            cf_nslots = 0;
            cf_body = (fun _ _ _ _ -> assert false);
            cf_pool = [];
            cf_pool_len = 0;
            cf_pool_hits = 0;
          })
    prog.funcs;
  let sites = ref 0 in
  let new_site () =
    let id = !sites in
    incr sites;
    id
  in
  (* [cstmt fenv st k] compiles one statement against its continuation:
     the returned closure does the statement's work, then tail-calls [k].
     [cblock] folds a block into one such chain. *)
  let rec cstmt fenv (st : stmt) k =
    let loc = st.loc in
    match st.node with
    | Let (x, e) | Assign (x, e) ->
        let i = slot fenv x in
        let ce = cexpr fenv loc e in
        fun t c f d ->
          charge_stmt c;
          Array.unsafe_set f i (ce f);
          k t c f d
    | Op { kind; target; args; bind } -> (
        (* Arguments are passed by arity: the common 0-2 argument ops
           build no argument list. No op takes three or more, so that
           shape only reaches the arity violation, inside the probe
           bracket, through [exec_opn]. *)
        let site =
          {
            os_id = new_site ();
            os_loc = loc;
            os_kind = kind;
            os_target = target;
            os_desc = op_desc kind target;
          }
        in
        let cs = List.map (cexpr fenv loc) args in
        let store = cbind fenv bind in
        match cs with
        | [] ->
            fun t c f d ->
              charge_stmt c;
              store f (rt.exec_op0 t site);
              k t c f d
        | [ a0 ] ->
            fun t c f d ->
              charge_stmt c;
              let v0 = a0 f in
              store f (rt.exec_op1 t site v0);
              k t c f d
        | [ a0; a1 ] ->
            fun t c f d ->
              charge_stmt c;
              let v0 = a0 f in
              let v1 = a1 f in
              store f (rt.exec_op2 t site v0 v1);
              k t c f d
        | cs ->
            let ka = cargs cs in
            fun t c f d ->
              charge_stmt c;
              let vs = ka f in
              store f (rt.exec_opn t site vs);
              k t c f d)
    | Call { func; args; bind } -> ccall fenv loc func args bind k
    | If (cnd, th, el) ->
        let cc = cbool fenv loc (fun v -> err_cond loc v) cnd in
        let cth = cblock fenv th k in
        let cel = cblock fenv el k in
        fun t c f d ->
          charge_stmt c;
          if cc f then cth t c f d else cel t c f d
    | While (cnd, body) ->
        (* Charged once per statement entry, not per iteration — as in the
           tree-walker. The body runs to [halt] each iteration so a [Try]
           inside it cannot capture the loop's continuation. *)
        let cc = cbool fenv loc (fun v -> err_cond loc v) cnd in
        let cb = cblock fenv body halt in
        fun t c f d ->
          charge_stmt c;
          while cc f do
            cb t c f d
          done;
          k t c f d
    | Foreach (x, e, body) ->
        let ce = cexpr fenv loc e in
        let i = slot fenv x in
        let cb = cblock fenv body halt in
        fun t c f d ->
          charge_stmt c;
          (match ce f with
          | VList items ->
              List.iter
                (fun item ->
                  Array.unsafe_set f i item;
                  cb t c f d)
                items
          | v -> err_foreach loc v);
          k t c f d
    | Sync (lockname, body) ->
        (* The interior runs to [halt] inside the lock's dynamic extent;
           the continuation runs after release. *)
        let cb = cblock fenv body halt in
        let desc = "lock(" ^ lockname ^ ")" in
        let site = new_site () in
        fun t c f d ->
          charge_stmt c;
          rt.exec_sync t ~site loc ~lock:lockname ~desc (fun () -> cb t c f d);
          k t c f d
    | Try (body, exn, handler) ->
        (* Interior and handler both run to [halt]; the continuation runs
           outside the catch, so a failure in a *later* statement can never
           be routed to this handler. *)
        let cb = cblock fenv body halt in
        let i = slot fenv exn in
        let ch = cblock fenv handler halt in
        fun t c f d ->
          charge_stmt c;
          (try cb t c f d with
          | Wd_env.Disk.Io_error m
          | Wd_env.Net.Net_error m
          | Wd_env.Memory.Out_of_memory m ->
              Array.unsafe_set f i (VStr m);
              ch t c f d
          | Wd_sim.Channel.Closed m ->
              Array.unsafe_set f i (VStr ("channel closed: " ^ m));
              ch t c f d);
          k t c f d
    | Return e ->
        let ce = cexpr fenv loc e in
        if k == kfin then
          fun _t c f _d ->
            charge_stmt c;
            c.cx_ret <- ce f
        else
          fun _t c f _d ->
            charge_stmt c;
            raise_notrace (Return_exn (ce f))
    | Assert (e, msg) ->
        let cc = cbool fenv loc (fun v -> err_cond loc v) e in
        fun t c f d ->
          charge_stmt c;
          if not (cc f) then verr loc "assert" msg;
          k t c f d
    | Compute { cost_ns; note = _ } ->
        fun t c f d ->
          charge_stmt c;
          charge c cost_ns;
          k t c f d
    | Hook id ->
        (* The function's name-to-slot layout, complete once it is
           compiled; the interpreter resolves a hook's captures against it
           on first fire. *)
        let layout = fenv.slots in
        fun t c f d ->
          charge_stmt c;
          rt.exec_hook t id layout f;
          k t c f d
  and cblock fenv block k = List.fold_right (cstmt fenv) block k
  and ccall fenv loc func args bind k =
    let store = cbind fenv bind in
    match Hashtbl.find_opt funcs func with
    | None ->
        (* Unknown target: compile the tree-walker's behaviour — arguments
           still evaluate, the depth guard still applies, then [find_func]
           raises the canonical [Ir_error]. *)
        let ka = clist fenv loc args in
        fun _t c f d ->
          charge_stmt c;
          ignore (ka f : value list);
          if d > c.cx_max_depth then err_depth c.cx_max_depth;
          ignore (find_func prog func : func);
          assert false
    | Some cf when List.compare_length_with args cf.cf_arity <> 0 ->
        let ka = clist fenv loc args in
        fun _t c f d ->
          charge_stmt c;
          ignore (ka f : value list);
          if d > c.cx_max_depth then err_depth c.cx_max_depth;
          err_call_arity func
    | Some cf -> (
        (* The site's inline cache snapshots [cf_body]/[cf_param_slots]
           (re-bound by pass 2: the callee may not be compiled yet on a
           forward reference) and revalidates against the compile epoch. *)
        let site = { s_cf = cf; s_epoch = -1; s_body = halt; s_params = [||] } in
        match List.map (cexpr fenv loc) args with
        | [] ->
            fun t c f d ->
              charge_stmt c;
              if d > c.cx_max_depth then err_depth c.cx_max_depth;
              if site.s_epoch <> Atomic.get epoch then refill site;
              let nf = frame_get cf in
              (match site.s_body t c nf (d + 1) with
              | () ->
                  frame_put cf nf;
                  store f c.cx_ret
              | exception Return_exn v ->
                  frame_put cf nf;
                  store f v);
              k t c f d
        | [ a0 ] ->
            fun t c f d ->
              charge_stmt c;
              let v0 = a0 f in
              if d > c.cx_max_depth then err_depth c.cx_max_depth;
              if site.s_epoch <> Atomic.get epoch then refill site;
              let nf = frame_get cf in
              Array.unsafe_set nf (Array.unsafe_get site.s_params 0) v0;
              (match site.s_body t c nf (d + 1) with
              | () ->
                  frame_put cf nf;
                  store f c.cx_ret
              | exception Return_exn v ->
                  frame_put cf nf;
                  store f v);
              k t c f d
        | [ a0; a1 ] ->
            fun t c f d ->
              charge_stmt c;
              let v0 = a0 f in
              let v1 = a1 f in
              if d > c.cx_max_depth then err_depth c.cx_max_depth;
              if site.s_epoch <> Atomic.get epoch then refill site;
              let nf = frame_get cf in
              let ps = site.s_params in
              Array.unsafe_set nf (Array.unsafe_get ps 0) v0;
              Array.unsafe_set nf (Array.unsafe_get ps 1) v1;
              (match site.s_body t c nf (d + 1) with
              | () ->
                  frame_put cf nf;
                  store f c.cx_ret
              | exception Return_exn v ->
                  frame_put cf nf;
                  store f v);
              k t c f d
        | [ a0; a1; a2 ] ->
            fun t c f d ->
              charge_stmt c;
              let v0 = a0 f in
              let v1 = a1 f in
              let v2 = a2 f in
              if d > c.cx_max_depth then err_depth c.cx_max_depth;
              if site.s_epoch <> Atomic.get epoch then refill site;
              let nf = frame_get cf in
              let ps = site.s_params in
              Array.unsafe_set nf (Array.unsafe_get ps 0) v0;
              Array.unsafe_set nf (Array.unsafe_get ps 1) v1;
              Array.unsafe_set nf (Array.unsafe_get ps 2) v2;
              (match site.s_body t c nf (d + 1) with
              | () ->
                  frame_put cf nf;
                  store f c.cx_ret
              | exception Return_exn v ->
                  frame_put cf nf;
                  store f v);
              k t c f d
        | cs ->
            let carr = Array.of_list cs in
            let n = Array.length carr in
            fun t c f d ->
              charge_stmt c;
              let vs = Array.make n VUnit in
              for j = 0 to n - 1 do
                Array.unsafe_set vs j ((Array.unsafe_get carr j) f)
              done;
              if d > c.cx_max_depth then err_depth c.cx_max_depth;
              if site.s_epoch <> Atomic.get epoch then refill site;
              let nf = frame_get cf in
              let ps = site.s_params in
              for j = 0 to n - 1 do
                Array.unsafe_set nf (Array.unsafe_get ps j)
                  (Array.unsafe_get vs j)
              done;
              (match site.s_body t c nf (d + 1) with
              | () ->
                  frame_put cf nf;
                  store f c.cx_ret
              | exception Return_exn v ->
                  frame_put cf nf;
                  store f v);
              k t c f d)
  in
  (* Pass 2: compile bodies. Only the registered (first) binding of a name
     is compiled; later duplicates are unreachable, as in the tree-walker. *)
  List.iter
    (fun fdef ->
      let cf = Hashtbl.find funcs fdef.fname in
      if cf.cf_src == fdef then begin
        let fenv = { slots = Hashtbl.create 16; next = 0 } in
        let ps = Array.of_list (List.map (slot fenv) fdef.params) in
        let body = cblock fenv fdef.body kfin in
        cf.cf_param_slots <- ps;
        cf.cf_nslots <- fenv.next;
        cf.cf_body <- body
      end)
    prog.funcs;
  { cp_prog = prog; cp_funcs = funcs; cp_sites = !sites }

let program cp = cp.cp_prog
let sites cp = cp.cp_sites

let frame_pool_stats cp fname =
  Option.map
    (fun cf -> (cf.cf_pool_len, cf.cf_pool_hits))
    (Hashtbl.find_opt cp.cp_funcs fname)

(* Toplevel entry: the tree-walker's [exec_call t 0] with the depth guard
   elided (0 can never exceed the depth budget). *)
let call cp t c fname vargs =
  match Hashtbl.find_opt cp.cp_funcs fname with
  | None ->
      ignore (find_func cp.cp_prog fname : func);
      assert false
  | Some cf -> (
      if List.compare_length_with vargs cf.cf_arity <> 0 then
        err_call_arity fname;
      let nf = frame_get cf in
      let ps = cf.cf_param_slots in
      List.iteri (fun k v -> nf.(ps.(k)) <- v) vargs;
      match cf.cf_body t c nf 1 with
      | () ->
          frame_put cf nf;
          c.cx_ret
      | exception Return_exn v ->
          frame_put cf nf;
          v)
