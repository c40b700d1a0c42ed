(** Persistent work-sharing OCaml 5 domain pool with a [map]/[map_reduce]
    API, built for embarrassingly parallel simulation campaigns.

    Every simulation in this repository is a self-contained deterministic
    world (its own scheduler, fault registry and resources; the ambient
    scheduler is domain-local), so independent runs can execute on separate
    domains with no shared state. [map] preserves input order and re-raises
    the first (by input position) exception a task raised, which makes a
    parallel campaign observationally identical to its sequential
    counterpart — only faster.

    A width-W pool is W-1 worker domains plus the submitting domain: during
    [map] the caller drains the batch alongside the workers instead of
    blocking, so the pool never oversubscribes the host. Batch cells are
    handed out by an atomic cursor — one fetch-and-add per cell, no lock on
    the hot path — and submission costs one queue entry per worker, not one
    per cell. Idle pools cost nothing but parked domains, so the intended
    shape is the process-wide {!global} pool, created once and reused by
    every batch; worker domains then keep their domain-local analysis and
    compile caches warm across batches. *)

type t

val create : jobs:int -> t
(** Build a pool of width [max 1 jobs]: [width - 1] worker domains sharing
    one work queue, the caller being the remaining lane during [map]. With
    [jobs <= 1] no domains are spawned and [map] degenerates to [List.map]
    in the calling domain. *)

val jobs : t -> int
(** Parallelism width the pool was created with (>= 1). *)

val shutdown : t -> unit
(** Drain and join the worker domains. Idempotent. Submitting work to a
    pool after shutdown raises [Invalid_argument]. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] applies [f] to every element, distributing the calls
    across the pool's worker domains and the calling domain itself.
    Results come back in input order. If any call raises, the exception of
    the lowest-indexed failing element is re-raised in the caller (with its
    backtrace) after all tasks settle. Not re-entrant: [f] must not itself
    call [map] on the same pool. *)

val map_reduce :
  t -> map:('a -> 'b) -> reduce:('c -> 'b -> 'c) -> init:'c -> 'a list -> 'c
(** Parallel map, then a sequential left fold in the calling domain — the
    reduction order is the input order, keeping the result deterministic
    regardless of completion order. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** Run [f] with a transient pool, shutting it down on exit (also on
    exceptions). [jobs] defaults to {!default_jobs}. Prefer {!global} /
    {!run_map} for campaign workloads — a transient pool pays domain spawn
    and join on every call and starts with cold domain-local caches. *)

val global : ?jobs:int -> unit -> t
(** The process-wide persistent pool, created on first use and reused by
    every subsequent call (and by {!run_map}). [jobs] defaults to
    {!default_jobs} and is clamped to [Domain.recommended_domain_count ()]:
    running more domains than cores is a measured net loss (OCaml 5 minor
    GCs are stop-the-world across domains), and results are identical at
    any width, so the clamp only changes wall-clock. Asking for a different
    effective width than the live pool's shuts the old one down and spawns
    a replacement, so repro/bench flag handling stays cheap and the steady
    state is zero spawns per batch. Shut down automatically at process
    exit; calling {!shutdown} on it earlier is safe — the next [global]
    call revives it. *)

val run_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map] over the {!global} persistent pool. *)

val default_jobs : unit -> int
(** The [WD_JOBS] environment variable if set, otherwise
    [Domain.recommended_domain_count ()]. Counts the submitting domain:
    width N means N-1 spawned workers. Fails on a malformed [WD_JOBS] (see
    {!parse_jobs}). *)

val parse_jobs : string option -> (int option, string) result
(** Parse a [WD_JOBS] value: unset or empty is [Ok None], a positive
    integer (surrounding blanks allowed) is [Ok (Some n)], anything else an
    [Error] naming [WD_JOBS]. *)
