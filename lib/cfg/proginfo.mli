(** One-stop static program information: CFGs for the global initializer
    sequence and every function, alias classes, def/use locations, and
    cached static control dependence. *)

type t

val build : Exom_lang.Ast.program -> t
val program : t -> Exom_lang.Ast.program
val alias : t -> Alias.t
val locs : t -> Locs.t

(** CFG of a function ([None] = global initializers). *)
val cfg_of : t -> string option -> Cfg.t

(** These raise [Invalid_argument] on unknown sids. *)
val stmt_of_sid : t -> int -> Exom_lang.Ast.stmt

val func_of_sid : t -> int -> string option

(** Direct static control dependences of a statement (predicate sids of
    the same function). *)
val control_deps : t -> int -> int list

val is_predicate : t -> int -> bool
val line_of_sid : t -> int -> int
