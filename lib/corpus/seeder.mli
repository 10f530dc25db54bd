(** Mechanical execution-omission fault seeding.

    Every fault class is an {e expression-level} mutation of a single
    statement, so statement counts — and therefore statement ids — are
    preserved between the correct and faulty programs: the oracle can
    align the two runs and the mutated statement's line is the ground
    truth the locator is scored against (the same invariant the
    hand-written benchmarks in [lib/bench] rely on).

    A candidate fault is kept only when validation shows a {e true
    omission error} on some input: both runs terminate normally, the
    outputs diverge at an output produced by the same print statement
    in both runs (so a failure can be anchored), and at least one
    statement executes strictly fewer times in the faulty run — the
    faulty run omits execution the correct run performs. *)

type fault_class =
  | Stmt_delete
      (** [x = e] becomes the no-op [x = x]: the update is omitted *)
  | Guard_strengthen
      (** [if]/[while] condition [c] becomes [(c) && false]: the
          then-branch / loop body is never entered *)
  | Guard_weaken
      (** [if] condition [c] (with a non-empty else) becomes
          [(c) || true]: the else-branch is never entered *)
  | Call_drop
      (** guard-strengthen on an [if] whose then-branch calls a user
          procedure: the call is dropped *)
  | Flag_init
      (** an [int] initializer feeding a predicate is replaced by a
          different constant: downstream guards flip *)

val all_classes : fault_class list
val class_to_string : fault_class -> string
val class_of_string : string -> fault_class option

(** Candidate seeding sites of a program: [(class, sid)] pairs in
    deterministic (class-major, statement-order) order. *)
val sites : Exom_lang.Ast.program -> (fault_class * int) list

(** [apply prog cls sid] mutates statement [sid] according to [cls] and
    returns the re-parsed (typechecked, sids assigned) faulty program,
    or [None] when the class does not apply to that statement. *)
val apply :
  Exom_lang.Ast.program -> fault_class -> int -> Exom_lang.Ast.program option

(** A validated seeded fault. *)
type seeded = {
  sd_class : fault_class;
  sd_sid : int;  (** the mutated statement *)
  sd_root_line : int;  (** 1-based line of the mutated statement *)
  sd_root_sids : int list;  (** every sid on that line *)
  sd_correct : Exom_lang.Ast.program;
  sd_faulty : Exom_lang.Ast.program;
  sd_correct_src : string;
  sd_faulty_src : string;
  sd_input : int list;  (** the validated failing input *)
}

(** Does [input] expose [faulty] as a true omission error against
    [correct]?  All four conditions must hold, every run under the
    same deterministic step budget:
    + {b termination}: both runs terminate normally (no crash, budget
      not exhausted);
    + {b divergence}: {!Exom_core.Session.classify_outputs} finds a
      failure in the faulty outputs against the correct output values;
    + {b omission}: some statement runs strictly fewer times in the
      faulty run than in the correct run;
    + {b same-statement anchor}: the first divergent output is
      produced by the same print statement in both runs.

    The checks run in that order, cheapest first.  An untraced faulty
    run decides termination (the faulty run is checked before the
    correct one) and divergence, so a rejected candidate is never
    traced; only a candidate that passes both is re-run traced for the
    omission and anchor checks.  Tracing does not change a run's
    outcome, step count or output values, so this order accepts
    exactly the candidates an all-traced validation accepts. *)
val validates :
  correct:Exom_lang.Ast.program ->
  faulty:Exom_lang.Ast.program ->
  input:int list ->
  bool

(** [search ~prog ~sites ~inputs] tries [sites] in order, mutating
    [prog] at each and validating the mutant against [inputs] in
    order, and returns the first validated fault.  The correct
    program is compiled once and runs at most once per input for the
    whole search; each mutant is compiled once for all its runs. *)
val search :
  prog:Exom_lang.Ast.program ->
  sites:(fault_class * int) list ->
  inputs:int list list ->
  seeded option

(** [seed_fault ?classes ~seed ~prog ~input ()] tries the candidate
    sites of [prog] in a seed-determined order, validating each against
    [input] first and then against a few seed-derived alternates, and
    returns the first validated fault.  Deterministic in
    [(classes, seed, prog, input)]. *)
val seed_fault :
  ?classes:fault_class list ->
  seed:int ->
  prog:Exom_lang.Ast.program ->
  input:int list ->
  unit ->
  seeded option
