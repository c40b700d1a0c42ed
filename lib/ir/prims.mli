(** Pure primitives callable from IR expressions via [Prim (name, args)].

    All primitives are deterministic functions of their arguments. Effects
    live exclusively in [Op] statements so the vulnerability analysis sees
    every one of them.

    Each primitive is defined once, as an implementation of its arity. The
    compiled engine binds a [Prim] node to it at compile time ({!find});
    {!apply} and {!known} are derived from the same table. *)

exception Prim_error of string

(** A primitive's implementation. An ill-shaped argument raises
    {!Prim_error} with the same text {!apply} gives. [An] takes any
    number of arguments. *)
type impl =
  | A0 of (unit -> Ast.value)
  | A1 of (Ast.value -> Ast.value)
  | A2 of (Ast.value -> Ast.value -> Ast.value)
  | A3 of (Ast.value -> Ast.value -> Ast.value -> Ast.value)
  | An of (Ast.value list -> Ast.value)

val find : string -> impl option
(** The implementation of a primitive, [None] for an unknown name. *)

val apply : string -> Ast.value list -> Ast.value
(** Evaluate primitive [name] on the given arguments.
    Raises {!Prim_error} on unknown names, a wrong arity
    (["unknown primitive name/arity"]) or ill-typed arguments. *)

val known : string list
(** Names accepted by {!apply}, in table order; the validator checks
    against this list. *)

val is_known : string -> bool
