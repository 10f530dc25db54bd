(** Static memory locations and per-statement def/use sets.

    A location is either a scoped variable or an array alias class.
    Def/use sets include the transitive effects of calls (a statement
    that calls [f] inherits [f]'s global/array summary), computed by a
    fixpoint over the call graph — this is the conservatism that makes
    relevant slices large, exactly as the paper describes. *)

type loc =
  | Lvar of string option * string
      (** defining scope ([None] = global) and name *)
  | Larr of int  (** array alias class *)

val loc_to_string : loc -> string

module Lset : Set.S with type elt = loc

type t

val build : Exom_lang.Ast.program -> Alias.t -> t

(** Full def/use sets by statement id (callee summaries included). *)
val defs : t -> int -> Lset.t

val uses : t -> int -> Lset.t
val def_summary : t -> string -> Lset.t
val defines : t -> int -> loc -> bool
val loc_of_var : t -> fname:string option -> string -> loc

(** The array classes a statement reads (used to map dynamic
    array-element cells back to static locations). *)
val array_uses : t -> int -> loc list
