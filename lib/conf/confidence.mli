(** Confidence analysis (PLDI'06 [19]): the likelihood that a statement
    instance produced a correct value, derived from which correct
    outputs its value (transitively) feeds and how invertible the
    computations in between are.

    [C = 1] instances are pruned from fault candidate sets; [C = 0]
    instances have no evidence of correctness.  See the module source
    for the propagation rules; the alt sets are computed by concrete
    re-evaluation ({!Reval}) over profiled value ranges. *)

module Vset : Set.S with type elt = Exom_interp.Value.t

type t

(** [compute info profile trace ~correct ~benign ~implicit]:
    [correct] are the instance indices of correct outputs, [benign] the
    instances the programmer (or the oracle standing in for them) vouched
    for, and [implicit] the verified implicit dependence edges
    [(switched predicate, target)] added to the graph so far. *)
val compute :
  Exom_cfg.Proginfo.t ->
  Exom_interp.Profile.t ->
  Exom_interp.Trace.t ->
  correct:int list ->
  benign:int list ->
  implicit:(int * int) list ->
  t

(** [refine prev ~benign ~implicit] is [compute] over [prev]'s benign
    marks and implicit edges plus [benign] and [implicit], warm-started
    from [prev]: only the new marks, and the new edges whose target
    [prev] already vouches for, seed the worklist.  Alt sets and
    confidence values are identical to the from-scratch [compute] over
    the union.  [prev] is unchanged. *)
val refine : t -> benign:int list -> implicit:(int * int) list -> t

val confidence : t -> int -> float
val alt_set : t -> int -> Vset.t option
