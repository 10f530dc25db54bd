(** Per-function control-flow graphs over MCL statements.

    Node 0 is the entry, node 1 the exit; every statement (including
    [if]/[while] predicates) gets one node.  Predicate out-edges are
    labelled [Lthen]/[Lelse] so the analyses can ask for the successor of
    the *untaken* branch — condition (iv) of the paper's Definition 1. *)

type label = Lseq | Lthen | Lelse

type t = {
  fname : string option;  (** [None] for the global-initializer CFG *)
  entry : int;
  exit_ : int;
  nnodes : int;
  stmt_of : Exom_lang.Ast.stmt option array;
  succ : (int * label) list array;
  pred : (int * label) list array;
  node_of_sid : (int, int) Hashtbl.t;
}

val build : fname:string option -> Exom_lang.Ast.block -> t
val of_func : Exom_lang.Ast.func -> t
val of_globals : Exom_lang.Ast.block -> t

(** Raises [Invalid_argument] if the statement is not in this CFG. *)
val node_of : t -> int -> int

val sid_at : t -> int -> int option
val successors : t -> int -> (int * label) list
val predecessors : t -> int -> (int * label) list

(** [branch_successor t n b] is the node control reaches when predicate
    [n] evaluates to [b]; [None] if [n] is not a predicate node. *)
val branch_successor : t -> int -> bool -> int option

val is_predicate_node : t -> int -> bool
val iter_nodes : (int -> unit) -> t -> unit
