(** Value profiles: the per-statement value domains collected by running
    the program over a passing test suite.  The paper's confidence
    analysis [19] approximates the range of a definition "by the value
    profile"; ranges feed the confidence formula
    [C = 1 - log(|alt|)/log(|range|)]. *)

type t

(** [collect code inputs] runs [code] untraced on every input and
    accumulates the int values each statement produced. *)
val collect : Interp.program -> int list list -> t

(** Profiled int domain of a statement, with [observed] (the value seen
    in the failing run) always included.  Sorted, duplicate-free. *)
val range : t -> int -> observed:Value.t -> int list

val runs : t -> int
