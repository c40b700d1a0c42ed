(** Combinator DSL for constructing IR programs.

    Target systems are written against this module; {!program} finalises
    the result by assigning unique, stable source locations to every
    statement. Expressions are pure; all effects go through the [Op]
    shortcuts so the vulnerability analysis sees them. *)

open Ast

(** {1 Expressions} *)

val i : int -> expr
val s : string -> expr
val bconst : bool -> expr
val v : string -> expr

(** The binary operators, for [open Builder.Infix]. *)
module Infix : sig
  val ( +: ) : expr -> expr -> expr
  val ( -: ) : expr -> expr -> expr
  val ( *: ) : expr -> expr -> expr
  val ( /: ) : expr -> expr -> expr
  val ( %: ) : expr -> expr -> expr
  val ( =: ) : expr -> expr -> expr
  val ( <>: ) : expr -> expr -> expr
  val ( <: ) : expr -> expr -> expr
  val ( <=: ) : expr -> expr -> expr
  val ( >: ) : expr -> expr -> expr
  val ( >=: ) : expr -> expr -> expr
  val ( &&: ) : expr -> expr -> expr
  val ( ||: ) : expr -> expr -> expr

  val ( ^: ) : expr -> expr -> expr
  (** String concatenation. *)
end

include module type of Infix

val not_ : expr -> expr
val neg : expr -> expr
val len : expr -> expr
val pair : expr -> expr -> expr
val fst_ : expr -> expr
val snd_ : expr -> expr

val prim : string -> expr list -> expr
(** A pure primitive from {!Prims}. *)

(** {1 Statements}

    Locations are dummies until {!program} assigns them. *)

val let_ : string -> expr -> stmt
val assign : string -> expr -> stmt
val op : ?bind:string -> op_kind -> target:string -> expr list -> stmt
val call : ?bind:string -> string -> expr list -> stmt
val if_ : expr -> block -> block -> stmt
val while_ : expr -> block -> stmt
val while_true : block -> stmt
val foreach : string -> expr -> block -> stmt
val sync : string -> block -> stmt
(** [sync lock body]: Java-style [synchronized (lock) { body }]. *)

val try_ : block -> exn:string -> handler:block -> stmt
(** Catches environment errors (I/O, network, memory, closed channels),
    binding the message to [exn]. *)

val return : expr -> stmt
val return_unit : stmt
val assert_ : expr -> string -> stmt
val compute : ?note:string -> int64 -> stmt
(** Pure CPU work of the given duration. *)

val compute_us : ?note:string -> int -> stmt

(** {1 Effect shortcuts} *)

val disk_write : disk:string -> path:expr -> data:expr -> stmt
val disk_append : disk:string -> path:expr -> data:expr -> stmt
val disk_read : ?bind:string -> disk:string -> path:expr -> unit -> stmt
val disk_sync : disk:string -> stmt
val disk_delete : disk:string -> path:expr -> stmt
val disk_exists : ?bind:string -> disk:string -> path:expr -> unit -> stmt
val disk_list : ?bind:string -> disk:string -> prefix:expr -> unit -> stmt

val net_send : net:string -> dst:expr -> payload:expr -> stmt

val net_recv : ?bind:string -> net:string -> timeout_ms:int -> unit -> stmt
(** Binds a map [{ok; src; payload; corrupted}] ([{ok=false}] on timeout). *)

val queue_put : queue:string -> data:expr -> stmt
val queue_get : ?bind:string -> queue:string -> timeout_ms:int -> unit -> stmt
(** Binds a map [{ok; payload}] ([{ok=false}] on timeout). *)

val mem_alloc : pool:string -> size:expr -> stmt
val mem_free : pool:string -> size:expr -> stmt

val state_get : bind:string -> global:string -> stmt
val state_set : global:string -> value:expr -> stmt

val sleep_ms : int -> stmt
val log : expr -> stmt

(** {1 Functions, entries, programs} *)

val func : ?annots:annot list -> string -> params:string list -> block -> func
val entry : ?args:value list -> string -> string -> entry
(** [entry name func]: spawn [func] as the daemon task [name] at boot. *)

val program : string -> funcs:func list -> entries:entry list -> program
(** Assemble and finalise: every statement receives a unique location. *)
