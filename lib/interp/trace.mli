(** Execution traces: the dynamic dependence information the technique
    consumes.

    A trace is a sequence of statement *instances* in execution-start
    order.  Each instance records its static statement id ([sid]), its
    occurrence count ([occ], 1-based: the [occ]-th execution of [sid]),
    its *control parent* (the instance index of the predicate / call
    instance whose region structurally encloses it; [-1] for top level),
    the cells it read together with their defining instances and observed
    values, the cells it defined, and its principal value (assigned
    value, printed value, branch outcome, or return value).

    Because instance slots are reserved when a statement *starts*
    executing, a statement containing calls appears in the trace before
    its callees' instances — matching the trace layout of Figure 2 of
    the paper — and its [uses] may reference later instances (return
    cells).  An instance is reserved only while its control parent is
    still executing, so a trace is a preorder of its control-parent
    forest: every region is an interval of indices. *)

type ikind =
  | Kassign
  | Kpredicate of bool  (** branch outcome, after any switching *)
  | Koutput
  | Kcall  (** a statement that (also) passes parameters to a callee *)
  | Kreturn
  | Kother

type instance = {
  idx : int;
  sid : int;
  occ : int;
  parent : int;
  kind : ikind;
  uses : (Cell.t * int * Value.t) list;
      (** cell read, defining instance index ([-1] if the cell was never
          written, e.g. a fresh array element), value observed *)
  defs : (Cell.t * Value.t) list;
  value : Value.t;
}
(** Records are immutable, so traces can share them: a switched run
    takes over the failing run's records below the switch point (see
    {!share_prefix}). *)

type t

val create : unit -> t
val length : t -> int
val get : t -> int -> instance

(** Reserve the next instance slot for the [occ]-th execution of [sid]
    and return its index; [fill] completes it once the statement finishes
    evaluating. *)
val reserve : t -> sid:int -> occ:int -> parent:int -> int

(** [fill] replaces the reserved slot with a fresh, complete record. *)
val fill :
  t ->
  int ->
  kind:ikind ->
  uses:(Cell.t * int * Value.t) list ->
  defs:(Cell.t * Value.t) list ->
  value:Value.t ->
  unit

(** [abandon t idx] fills slot [idx] with the empty [Kother] record of
    an instance an abort cut off before it could record what it had
    read: a loop predicate whose condition's call crashed or ran out of
    budget.  Such a record holds less than its instance read, so a run
    sharing [t] as its prefix stops short of it (see {!shareable}). *)
val abandon : t -> int -> unit

(** How many leading records of [t] a run may take over as its prefix:
    the length, or the first abandoned record if an abort left one.
    Every record below it that an abort cut short still begins with
    everything its instance read up to the cut. *)
val shareable : t -> int

(** [share_prefix t ~prefix n] appends the first [n] records of
    [prefix] ([n <= shareable prefix]) to the empty trace [t] by
    reference. *)
val share_prefix : t -> prefix:t -> int -> unit

(** [set_occurrences t counts] hands [t] its occurrence counts
    ([counts.(sid)] = executions of [sid]), once, when the run that
    built it ends.  The array is taken over, not copied. *)
val set_occurrences : t -> int array -> unit

(** Sets the occurrence counts from the records themselves, for a trace
    built record by record ({!Trace_io}). *)
val recount : t -> unit

(** One past the largest sid the occurrence counts cover: every sid
    with an instance lies in [\[0, sid_range t)]. *)
val sid_range : t -> int

(** Number of executed instances of a statement. *)
val occurrences : t -> int -> int

val iter : (instance -> unit) -> t -> unit
val find_instance : t -> sid:int -> occ:int -> instance option

val is_predicate : instance -> bool
val branch_of : instance -> bool option
val pp_instance : instance Fmt.t
