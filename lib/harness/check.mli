(** The repo's hard gates, evaluated once ([repro check]).

    Every gate family is a pure function over an experiment's result
    record and returns one verdict per condition, so a test can doctor a
    record and watch a gate trip. {!evaluate} over {!families} runs the
    gated experiments at their fixed sizes and checks every gate; a
    failing gate never hides the gates after it. *)

type gate = {
  name : string;
  measured : string;
  bound : string;
  pass : bool;
}

val render : gate -> string
(** One line: name, measured value, bound, [PASS]/[FAIL]. *)

(** {2 Runs across domain-pool widths} *)

type 'a width_run = {
  wr_jobs : int;  (** requested width *)
  wr_effective : int;  (** width the pool really ran at (clamped to cores) *)
  wr_secs : float;  (** host wall seconds *)
  wr_result : 'a;
}

val identical : string -> 'a width_run list -> gate
(** The results are equal at every width. *)

val jobs_curve : 'a width_run list -> gate list
(** The E2 jobs curve, whose first point is width 1: some point ran at
    effective width >= 2, and every such point is >= 1.2x faster than
    width 1. *)

(** {2 Gates over experiment results} *)

val race : Experiments.e21_result -> digest_w1:string -> gate list
(** E21: the mining digest equals [digest_w1] (a width-1 mining pass);
    the inferred-only deployment's [inferred] family has no false
    positive and detects at least half the catalog. *)

val load : Experiments.e22_result -> gate list
(** E22: zkmini and cstore each complete >= 10^6 requests and field
    wd-off, wd-on and inferred-on rows with ok ratio >= 0.99, nothing shed
    and (except wd-off) a detection latency; the fleet rows are present
    with the same ok/shed floor; single-node wd-on p50/p99 ratios are
    exactly 1. *)

val alloc : Experiments.e22_alloc_row list -> gate list
(** wd-off and wd-on rows each drive requests and allocate at most
    30,000 B per request. *)

val frontier : Experiments.e23_row list -> gate list
(** E23: fixed, adaptive and adaptive-relaxed rows are present; adaptive
    cuts scheduling events by >= 30%, detects at least as many scenarios
    as fixed, has a worst-case detection latency within 2x fixed (both
    present), and deduplicates at least one run. *)

(** {2 Running every gate} *)

val families : jobs:int -> (string * (unit -> gate list)) list
(** The gated experiments, one thunk per family: the E2 campaign and a
    1000-world E20 sweep at widths [sort_uniq [1; 2; 4; jobs]] (each from
    cold analysis and compile caches), E21, E22 at 350,000 requests per
    row, the allocation rows (inline on the calling domain) and E23 at its
    default budget. *)

val evaluate :
  (string * (unit -> gate list)) list -> (gate -> unit) -> gate list
(** Run every family in order and return all its gates, passing each to
    the callback as soon as its family is done. A family that raises
    yields one failing gate named after it; the remaining families still
    run. *)
