(** Shared campaign-wide CLI flags ([--jobs], [--seed]) for
    both front ends: cmdliner terms for [bin/repro], a plain argv scan for
    [bench] (bechamel owns its argv). One module so the flags' names,
    parsing and application cannot drift apart. *)

(** {2 cmdliner terms} *)

val jobs_arg : int option Cmdliner.Term.t
(** [--jobs]/[-j]: domain-pool width. Tables are byte-identical at any
    width; the flag only changes wall-clock. *)

val seed_arg : int option Cmdliner.Term.t
(** [--seed]/[-s]: base seed for seed-fanned experiments (default 42). *)

val apply_jobs : int option -> unit
val apply_seed : int option -> unit
(** Apply a parsed flag (no-op on [None]) to the process-wide experiment
    knobs in {!Experiments}. *)

(** {2 plain argv scan} *)

type opts = { o_jobs : int option; o_seed : int option }

val no_opts : opts

val scan : string list -> (opts, string) result
(** Pick the shared flags out of an argv tail, ignoring everything else
    (e.g. bench's [--json]); errors only on a malformed value. *)

val apply_opts : opts -> unit
