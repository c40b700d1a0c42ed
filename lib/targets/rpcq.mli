(** Shared client-facing request/reply plumbing for IR targets.

    Clients enqueue request maps carrying a fresh reply id; the target's IR
    pushes replies (tagged with that id) onto a well-known replies queue; a
    dispatcher task routes each reply to the mailbox the client blocks on.
    This is the API surface probe checkers exercise.

    Mailboxes are recycled: a handle keeps a free list of slots (reply,
    cond, predicate), so a request builds no reply channel. Reply ids are
    [<replies_queue>/r<seq>], with [seq] counted per handle from 1. *)

type t

val create :
  sched:Wd_sim.Sched.t ->
  res:Wd_ir.Runtime.resources ->
  request_queue:string ->
  replies_queue:string ->
  t

val sibling : t -> request_queue:string -> t
(** A handle sending to another request queue but waiting on the same
    replies queue: it shares [t]'s table of in-flight reply ids, so [t]'s
    dispatcher answers it too. Its [seq] counts from 0 on its own. *)

val spawn_dispatcher : t -> Wd_sim.Sched.task
(** The task routing replies to the waiting requests of every handle on
    the replies queue. A reply whose id is not in flight (its request
    timed out or was killed) is dropped. *)

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
    Must be called from inside a running task. Raises [Invalid_argument]
    if a request on the same replies queue already waits on the same reply
    id. *)
