(* Combinator DSL for constructing IR programs. Target systems are written
   against this module; [program] finalises the result by assigning unique,
   stable source locations to every statement. *)

open Ast

(* --- expressions --- *)

let i n = Const (VInt n)
let s str = Const (VStr str)
let bconst x = Const (VBool x)
let v name = Var name

module Infix = struct
  let ( +: ) a b = Binop (Add, a, b)
  let ( -: ) a b = Binop (Sub, a, b)
  let ( *: ) a b = Binop (Mul, a, b)
  let ( /: ) a b = Binop (Div, a, b)
  let ( %: ) a b = Binop (Mod, a, b)
  let ( =: ) a b = Binop (Eq, a, b)
  let ( <>: ) a b = Binop (Ne, a, b)
  let ( <: ) a b = Binop (Lt, a, b)
  let ( <=: ) a b = Binop (Le, a, b)
  let ( >: ) a b = Binop (Gt, a, b)
  let ( >=: ) a b = Binop (Ge, a, b)
  let ( &&: ) a b = Binop (And, a, b)
  let ( ||: ) a b = Binop (Or, a, b)
  let ( ^: ) a b = Binop (Concat, a, b)
end

include Infix

let not_ e = Unop (Not, e)
let neg e = Unop (Neg, e)
let len e = Unop (Len, e)
let pair a b = Pair (a, b)
let fst_ e = Fst e
let snd_ e = Snd e
let prim name args = Prim (name, args)

(* --- statements (locations filled in by [program]) --- *)

let mk node = { node; loc = Loc.dummy }

let let_ x e = mk (Let (x, e))
let assign x e = mk (Assign (x, e))
let op ?bind kind ~target args = mk (Op { kind; target; args; bind })
let call ?bind func args = mk (Call { func; args; bind })
let if_ c t e = mk (If (c, t, e))
let while_ c body = mk (While (c, body))
let while_true body = mk (While (Const (VBool true), body))
let foreach x e body = mk (Foreach (x, e, body))
let sync lock body = mk (Sync (lock, body))
let try_ body ~exn ~handler = mk (Try (body, exn, handler))
let return e = mk (Return e)
let return_unit = mk (Return (Const VUnit))
let assert_ e msg = mk (Assert (e, msg))
let compute ?(note = "compute") ns = mk (Compute { cost_ns = ns; note })
let compute_us ?(note = "compute") n = compute ~note (Wd_sim.Time.us n)

(* --- effect shortcuts --- *)

let disk_write ~disk ~path ~data = op Disk_write ~target:disk [ path; data ]
let disk_append ~disk ~path ~data = op Disk_append ~target:disk [ path; data ]
let disk_read ?bind ~disk ~path () = op ?bind Disk_read ~target:disk [ path ]
let disk_sync ~disk = op Disk_sync ~target:disk []
let disk_delete ~disk ~path = op Disk_delete ~target:disk [ path ]
let disk_exists ?bind ~disk ~path () = op ?bind Disk_exists ~target:disk [ path ]
let disk_list ?bind ~disk ~prefix () = op ?bind Disk_list ~target:disk [ prefix ]

let net_send ~net ~dst ~payload = op Net_send ~target:net [ dst; payload ]

let net_recv ?bind ~net ~timeout_ms () =
  op ?bind Net_recv ~target:net [ i timeout_ms ]

let queue_put ~queue ~data = op Queue_put ~target:queue [ data ]
let queue_get ?bind ~queue ~timeout_ms () =
  op ?bind Queue_get ~target:queue [ i timeout_ms ]

let mem_alloc ~pool ~size = op Mem_alloc ~target:pool [ size ]
let mem_free ~pool ~size = op Mem_free ~target:pool [ size ]

let state_get ~bind ~global = op ~bind State_get ~target:global []
let state_set ~global ~value = op State_set ~target:global [ value ]

let sleep_ms n = op Sleep_op ~target:"clock" [ i n ]
let log msg = op Log_op ~target:"log" [ msg ]

(* --- functions, entries, programs --- *)

let func ?(annots = []) fname ~params body = { fname; params; body; annots }

let entry ?(args = []) entry_name entry_func =
  { entry_name; entry_func; entry_args = args }

(* Assign unique locations to every statement of every function. *)
let finalize_locs funcs =
  let uid = ref 0 in
  let next () =
    let u = !uid in
    incr uid;
    u
  in
  let rec fix_block fname path block =
    List.mapi
      (fun idx st ->
        let p = path @ [ idx ] in
        let loc = Loc.make ~func:fname ~path:p ~uid:(next ()) in
        let node =
          match st.node with
          | If (c, t, e) -> If (c, fix_block fname (p @ [ 0 ]) t, fix_block fname (p @ [ 1 ]) e)
          | While (c, body) -> While (c, fix_block fname (p @ [ 0 ]) body)
          | Foreach (x, e, body) -> Foreach (x, e, fix_block fname (p @ [ 0 ]) body)
          | Sync (l, body) -> Sync (l, fix_block fname (p @ [ 0 ]) body)
          | Try (body, exn, handler) ->
              Try (fix_block fname (p @ [ 0 ]) body, exn, fix_block fname (p @ [ 1 ]) handler)
          | (Let _ | Assign _ | Op _ | Call _ | Return _ | Assert _ | Compute _ | Hook _)
            as node ->
              node
        in
        { node; loc })
      block
  in
  List.map (fun f -> { f with body = fix_block f.fname [] f.body }) funcs

let program pname ~funcs ~entries =
  { pname; funcs = finalize_locs funcs; entries }
