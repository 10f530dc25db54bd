(** Static support for potential dependences (relevant slicing,
    Definition 1 of the paper): condition (iv), "a different definition
    could potentially reach [u] if [p] were to evaluate differently".

    Every fact a query combines is a set of CFG nodes of one function:
    the nodes only the untaken branch reaches, the nodes defining a
    location, the nodes from which a definition reaches the use
    def-clear, and (with an evidence filter) the nodes witnessed
    reaching the use.  Each set is a bitset built at most once per [t],
    so a query is a word-wise AND.  The conservatism (alias classes,
    callee summaries, no interprocedural kills) is what makes relevant
    slices over-sized — the behaviour the paper's Table 2 quantifies. *)

type t

(** [create ?observed info]: [observed] is an optional evidence filter
    (the paper's union dependence graph): a candidate definition
    statement then qualifies only if some test run witnessed one of its
    values reaching the use statement.  Without it, condition (iv) is
    purely static. *)
val create :
  ?observed:(def_sid:int -> use_sid:int -> bool) -> Proginfo.t -> t

(** [could_reach_differently t ~pred_sid ~taken ~use_sid ~loc]: given
    that predicate [pred_sid] evaluated to [taken], could a different
    definition of [loc] reach [use_sid] along the untaken branch?
    Raises [Invalid_argument] on a sid outside the program. *)
val could_reach_differently :
  t -> pred_sid:int -> taken:bool -> use_sid:int -> loc:Locs.loc -> bool
