(** Long-running region identification (§4.1 step 1).

    A region is code that may execute continuously in production: the body
    of a loop inside a function reachable from a program entry, or the whole
    body of a function annotated [Long_running]. Initialisation code —
    everything outside such loops — is excluded from checking. *)

type t = {
  region_id : string;
  root_func : string;
  loop_loc : Wd_ir.Loc.t option;  (** [None] for annotated whole-function regions *)
  body : Wd_ir.Ast.block;
  reachable : string list;        (** functions callable from [body] *)
}

val find : Wd_ir.Ast.program -> t list
