(** Shared client-facing request/reply plumbing for IR targets.

    Clients enqueue request maps carrying a fresh reply id; the target's IR
    pushes replies (tagged with that id) onto a well-known replies queue; a
    dispatcher task routes each reply to the per-request queue the client
    blocks on. This is the API surface probe checkers exercise. *)

type t

val create :
  sched:Wd_sim.Sched.t ->
  res:Wd_ir.Runtime.resources ->
  request_queue:string ->
  replies_queue:string ->
  t

val spawn_dispatcher : t -> Wd_sim.Sched.task

val reply : Wd_ir.Ast.expr -> Wd_ir.Ast.expr
(** The IR expression for a reply carrying [data], tagged with the
    request's id (the IR variable ["reply"]): what a target pushes onto its
    replies queue. *)

val request :
  ?timeout:int64 ->
  t ->
  (string * Wd_ir.Ast.value) list ->
  [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ]
(** Issue one request (a ["reply"] field is added) and wait for its reply.
    Must be called from inside a running task. *)
