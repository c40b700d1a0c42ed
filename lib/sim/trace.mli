(** Execution tracing: a bounded ring buffer of scheduler events. Each
    scheduler owns at most one, created by the first {!Sched.trace} call.
    The recent window before a watchdog detection is a ready-made
    postmortem timeline.

    Besides scheduler events, Main-mode interpreters emit operation-level
    events ([Op_start]/[Op_end]/[Op_fail]) for every environment operation
    and lock acquisition, keyed ["kind:target:operand-prefix"]. These are
    the observations the trace miner ({!Wd_infer}) turns into timing
    envelopes and ordering invariants.

    Storage is columnar (struct-of-arrays) with interned op identifiers:
    the zero-allocation recorders below take {!Site.id}s and plain fields;
    the boxed {!event} view ({!recent}, {!dump}) is materialised only on
    read, byte-identical to what the recorders were given, and a
    {!cursor} reads op slots in place.

    Consumers read the ring through cursors. The ring never overwrites an
    event a registered cursor has not read: just before it would, it
    drains that cursor. A ring with no cursor overwrites its oldest event
    and keeps the newest [capacity] for {!recent} and {!dump}. *)

type kind =
  | Spawned
  | Blocked of string  (** the suspend reason *)
  | Resumed
  | Finished of string
  | Op_start of { op : string; node : string; func : string }
      (** operation began; [op] is the runtime key
          ["kind:target:operand-prefix"], [func] the enclosing function *)
  | Op_end of { op : string; node : string; func : string; dur : int64 }
      (** operation completed after [dur] virtual ns *)
  | Op_fail of { op : string; node : string; func : string; err : string }
      (** operation raised; the enclosing task may still handle it *)

type event = { at : int64; task_id : int; task_name : string; kind : kind }

type t

val create : capacity:int -> t

val record : t -> at:int64 -> task_id:int -> task_name:string -> kind -> unit
(** Boxed-kind entry point (tests, synthetic traces); op identifier strings
    are interned on the way in. *)

(** {2 Zero-allocation recorders}

    Used by the scheduler and interpreter hot paths. String arguments are
    stored by pointer (no copy); [at]/[dur] must fit a native int. *)

val spawned : t -> at:int64 -> task_id:int -> task_name:string -> unit
val resumed : t -> at:int64 -> task_id:int -> task_name:string -> unit

val blocked :
  t -> at:int64 -> task_id:int -> task_name:string -> reason:string -> unit

val finished :
  t -> at:int64 -> task_id:int -> task_name:string -> how:string -> unit

val op_start :
  t ->
  at:int64 ->
  task_id:int ->
  task_name:string ->
  op:Site.id ->
  node:Site.id ->
  func:Site.id ->
  unit

val op_end :
  t ->
  at:int64 ->
  task_id:int ->
  task_name:string ->
  op:Site.id ->
  node:Site.id ->
  func:Site.id ->
  dur:int64 ->
  unit

val op_fail :
  t ->
  at:int64 ->
  task_id:int ->
  task_name:string ->
  op:Site.id ->
  node:Site.id ->
  func:Site.id ->
  err:string ->
  unit

val total : t -> int

val recent : t -> int -> event list
(** Most recent [n] events, oldest first. *)

(** {2 Cursors} *)

type op_tag = Start | End | Fail

type op_fold =
  op_tag ->
  at:int ->
  task_id:int ->
  op:Site.id ->
  node:Site.id ->
  func:Site.id ->
  dur:int ->
  note:string ->
  unit
(** A consumer's per-event callback. [at] and [dur] are virtual ns; [dur]
    is meaningful on [End] only and [note] (the error) on [Fail] only. *)

type cursor

val cursor : t -> op_fold -> cursor
(** Register a consumer at the ring's head. Its fold sees every op event
    pushed from now on exactly once, oldest first, skipping scheduler
    events: on {!drain}, or from inside the push that would otherwise
    overwrite the oldest event it has not read. The fold must not push
    (asserted). *)

val drain : cursor -> unit
(** Fold every op event the cursor has not read. Allocates nothing. *)

val kind_name : kind -> string
val dump : ?n:int -> Format.formatter -> t -> unit
