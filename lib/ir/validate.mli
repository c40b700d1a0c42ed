(** Whole-program static validation.

    Run after construction and again after instrumentation; catches dangling
    calls, arity mismatches, unknown primitives, unbound variables, duplicate
    function names and broken entries. Scoping matches the interpreter: one
    flat frame per function call. *)

type problem = { where : string; what : string }

val check : Ast.program -> (unit, problem list) result

val check_exn : Ast.program -> unit
(** Raises {!Ast.Ir_error} listing every problem found. *)
