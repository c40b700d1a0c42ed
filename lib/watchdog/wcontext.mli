(** Watchdog context table (§3.1 state synchronisation).

    Hooks in the main program push live values in — one-way, the main
    program never reads the table — and the driver checks readiness and
    fetches arguments before running a checker. Context replication
    (checkers never alias mutable main-program memory) is implemented
    copy-on-write: persistent values are shared, bytes-containing values
    are copied on read with the copy cached against a per-slot version
    stamp. Observably identical to deep-copying on every fetch. *)

type t

val create : unit -> t

val register_unit : t -> unit_id:string -> params:string list -> unit
(** Declare a checker's context: its ordered parameter list. A unit with no
    parameters is always {!ready}. *)

val bind_hook :
  t -> hook_id:int -> unit_id:string -> captures:(string * string) list -> unit
(** [captures] maps (context param, temporary variable captured in main). *)

type capture
(** A hook resolved against the table: the unit it feeds and the slot each
    of its captured variables writes. *)

val capture : t -> hook_id:int -> vars:string list -> capture option
(** Resolve hook [hook_id], whose captured temporaries are [vars] in
    order, once. [None] when the hook is not bound or its unit is not
    registered. A variable that feeds no param of the unit is ignored on
    delivery. Resolve after the unit and the binding are registered: the
    capture holds the unit's slots as they are then. *)

val deliver : capture -> now:int64 -> Wd_ir.Ast.value option array -> unit
(** One hook fire: index [j] holds the value of the [j]-th variable, or
    [None] when it was unbound. Each value is stored in its slot (stamped
    [now], version bumped) and the unit's update count goes up by one. *)

val ready : t -> string -> bool
(** All parameters have been captured at least once. *)

val args : t -> string -> Wd_ir.Ast.value list option
(** Ordered argument list, observably a deep copy; [None] until ready. *)

val snapshot : t -> string -> (string * Wd_ir.Ast.value) list
(** Captured (param, value) pairs, for failure-report payloads. *)

val staleness : t -> now:int64 -> string -> int64 option
(** Age of the stalest slot: how long since the main program last passed
    the corresponding hook. *)

val updates : t -> string -> int
val total_updates : t -> int

val version : t -> string -> int
(** The unit's monotone context version (bumped once per hook delivery).
    An unchanged version means every slot holds exactly what a previous
    reader saw, so it is the dedup key an adaptive scheduler pairs with a
    checker id; the per-slot COW cache then makes co-scheduled readers of
    one version share one snapshot instead of re-copying. *)
