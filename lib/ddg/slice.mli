(** Dynamic slices: backward transitive closure over the dynamic
    dependence graph encoded in a trace (data dependences from recorded
    def-use pairs, dynamic control dependences from control parents).

    The [extra] hook supplies additional predecessor edges — the
    mechanism by which relevant slicing (potential dependences) and the
    demand-driven algorithm (verified implicit dependences) extend the
    graph.  Slice sizes are reported both as dynamic (# instances) and
    static (# unique statements), matching Table 2 of the paper. *)

module Iset : Set.S with type elt = int

type t

val compute :
  ?extra:(int -> int list) ->
  Exom_interp.Trace.t ->
  criteria:int list ->
  t

(** [extend ?extra trace t ~edges]: [t] grown by the predecessor edges
    [(p, target)] added to the graph since [t] was computed.  [extra]
    must already include [edges]; the result equals {!compute} with it
    over [t]'s criteria. *)
val extend :
  ?extra:(int -> int list) ->
  Exom_interp.Trace.t ->
  t ->
  edges:(int * int) list ->
  t

(** A slice-shaped value from an explicit instance set (negative indices
    are ignored). *)
val of_instances : Exom_interp.Trace.t -> int list -> t

val members : t -> Iset.t
val mem : t -> int -> bool
val mem_sid : t -> int -> bool
val dynamic_size : t -> int
val static_size : t -> int
val to_list : t -> int list
val sids : t -> int list

(** Explicit dependence predecessors of one instance. *)
val explicit_preds : Exom_interp.Trace.t -> int -> int list

(** Shortest backward dependence chain from the [criterion] to any
    instance of [from_sids]; returns it source-first.  This is the
    paper's OS — the failure-inducing dependence chain of Table 3. *)
val shortest_chain :
  ?extra:(int -> int list) ->
  Exom_interp.Trace.t ->
  criterion:int ->
  from_sids:int list ->
  int list option
