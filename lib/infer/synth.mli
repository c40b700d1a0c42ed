(** Invariant synthesizer (stage 2): fit timing envelopes, liveness gaps,
    never-fail signatures and ordering/exclusion invariants to mined
    observations, with support thresholds that reject coincidental
    invariants. Deterministic: same observations (and config) produce an
    identical, canonically sorted model with a stable {!digest}. *)

type body =
  | Envelope of { p99 : int64; deadline : int64 }
      (** in flight or completed beyond [deadline] = liveness finding *)
  | Gap of { max_gap : int64; budget : int64 }
      (** silence beyond [budget] after the key was first seen = hang *)
  | Never_fail  (** any runtime failure of this key = error signature *)
  | Precedes of { first : string }
      (** the invariant's key must never occur unless [first] occurred *)
  | Never_concurrent of { other : string }
      (** same-target exclusion: overlap with [other] in flight = finding *)

type invariant = {
  ikey : string;
  ibody : body;
  isupport : int;
  iruns : int;
  iloc : Wd_ir.Loc.t option;
}

type config = {
  min_samples : int;
  min_runs : int;
  safety_factor : int;
  min_deadline : int64;
  gap_factor : int;
  min_gap_budget : int64;
  max_gap_budget : int64;
  concurrent_min_samples : int;
  max_concurrent_pairs : int;
}

val default_config : config

type model = {
  m_system : string;
  m_runs : int;
  m_config : config;
  m_invariants : invariant list;
}

val synthesize :
  ?config:config ->
  ?locate:(string -> Wd_ir.Loc.t option) ->
  system:string ->
  Mine.observations ->
  model
(** [locate] resolves a runtime op key to a static location (typically via
    {!Wd_analysis.Vulnerable} keys) for report pinpointing. *)

val family_name : body -> string
val family_counts : model -> (string * int) list
val to_canonical : model -> string
val digest : model -> string
