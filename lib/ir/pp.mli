(** Pretty-printer for IR programs, in a pseudo-Java style so reduction
    demos read like the paper's Figures 2 and 3. *)

val pp_block : indent:int -> Format.formatter -> Ast.block -> unit
val func_to_string : Ast.func -> string
val program_to_string : Ast.program -> string
