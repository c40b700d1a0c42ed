(** Vulnerable-operation classification (§4.1 step 2).

    Selects the operations worth monitoring at runtime: those that can fail
    in production due to environment issues or bugs — I/O, synchronisation,
    resource and communication invocations — plus developer-annotated
    functions. Dedup keys carry a statically-propagated operand prefix so
    writes to different path families on one device stay distinct. *)

open Wd_ir.Ast

type config = {
  io_vulnerable : bool;
  comm_vulnerable : bool;
  sync_vulnerable : bool;
  resource_vulnerable : bool;
  queue_vulnerable : bool;
  extra_kinds : op_kind list;
  annotated_funcs : string list;
}

val default : config

val kind_vulnerable : config -> op_kind -> bool

type vop = {
  vloc : Wd_ir.Loc.t;
  vdesc : string;
  vkey : string;  (** dedup key: ["kind:target:operand-prefix"] *)
  vnode : stmt_node;
  enclosing_sync : string option;
}

val track_binding : (string, string) Hashtbl.t -> string -> expr -> unit
val op_key :
  (string, string) Hashtbl.t -> kind:op_kind -> target:string -> args:expr list -> string
val sync_key : string -> string

val collect_in_func : config -> func -> vop list
val count_in_program : config -> program -> int
