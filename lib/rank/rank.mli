(** Evidence-driven ranking of PD candidates.

    Every verification of a candidate [(p, u)] costs a switched
    re-execution, but the paper's verifier orders candidates statically
    and learns nothing across runs.  This module turns the verdicts a
    run has already produced into a per-predicate posterior yield and
    uses it to (a) order each expansion's candidates so high-yield
    predicates verify first and (b) cut the low-yield tail of a
    predicate's instances once enough evidence has accumulated (the
    early-exit policy).

    Determinism contract: a scorer's output is a pure function of the
    static features it was created with and the sequence of
    {!observe} calls — no wall-clock, no randomness, no job-count or
    cache-state dependence.  All scores are rounded to 4 decimals
    before they are compared or recorded, so ties (and therefore
    orders) are byte-stable across platforms.

    The optional prior comes from a [corpus mine] feature table (the
    ["exom.corpus.mine"] v1 JSON): the located rate of the size and
    predicate-density buckets matching the program under analysis
    seeds the posterior before any local evidence exists. *)

(** A parsed [corpus mine] table, reduced to the bucket statistics the
    prior uses. *)
type model

(** The mined table's size bucket of a program with [stmts]
    statements, e.g. ["stmts11-20"].  [Exom_corpus.Mine] buckets its
    rows with this key, so the prior lookup always finds them. *)
val size_key : int -> string

(** The predicate-density bucket (predicates per statement), e.g.
    ["density10-20"]; shared with [Exom_corpus.Mine] like
    {!size_key}. *)
val density_key : stmts:int -> predicates:int -> string

(** Strict parser for the ["exom.corpus.mine"] v1 document.  Anything
    else — corrupt or truncated JSON, a foreign schema, an unsupported
    version, missing buckets — is an [Error] with a one-line reason;
    this function never raises. *)
val model_of_string : string -> (model, string) result

(** [load_model path]: {!model_of_string} over the file's contents;
    unreadable files are an [Error], never an exception. *)
val load_model : string -> (model, string) result

type config = {
  alpha : float;
      (** pseudo-observation weight of the prior (Laplace-style
          smoothing); higher = slower to move off the prior *)
  base_prior : float;  (** prior yield when no model bucket applies *)
  cut_threshold : float;
      (** posterior yield below which a predicate's extra instances are
          cut (its best instance always survives) *)
  min_obs : int;
      (** observations of a predicate required before the cut may
          apply at all *)
  model : model option;  (** optional mined prior *)
}

val default_config : config

(** The mutable scorer state for one localization run. *)
type t

(** [create ?stmts ?predicates config] — the static features, when
    given, select the model's size and density buckets for the prior. *)
val create : ?stmts:int -> ?predicates:int -> config -> t

(** The prior yield in effect (model bucket blend or [base_prior]). *)
val prior : t -> float

(** Feed one verdict for static predicate [sid].  Call on the
    coordinator, in ledger order, with the verdicts {e returned} by a
    batch — those are identical whether they came from a live run, the
    store, or a resume replay, which is what keeps ranking warm/cold
    and kill/resume invariant. *)
val observe : t -> sid:int -> verdict:[ `Strong_id | `Id | `Not_id ] -> unit

(** Observations recorded for [sid] so far. *)
val observations : t -> sid:int -> int

(** The posterior yield of [sid], rounded to 4 decimals:
    [(2·strong + id + alpha·prior) / (2·strong + id + not_id + alpha)]. *)
val score : t -> sid:int -> float

(** One ranked candidate: kept candidates verify in list order; cut
    ones are skipped by this expansion (and recorded as such in the
    ledger's [rank] event). *)
type decision = { d_idx : int; d_sid : int; d_score : float; d_kept : bool }

(** [plan t candidates] ranks an expansion's candidates
    [(instance idx, sid)]: descending score, ties in ascending idx (so
    a run with no evidence reproduces the static order exactly).  A
    predicate's first-ranked instance is always kept; its later
    instances are cut iff it has at least [min_obs] observations and
    its score is below [cut_threshold]. *)
val plan : t -> (int * int) list -> decision list
