(** The instrumented MCL interpreter: the substitute for the paper's
    valgrind-based online tracing component.

    A program is {!compile}d once into a tree of closures in which every
    name is already resolved: a local to a slot of its frame's value
    array (MCL forbids shadowing, so a name in a function is one of its
    locals or a global), a global to a slot of one global array, a
    callee to its compiled body.  A compiled program is immutable and is
    shared freely, also across domains: each {!exec} allocates its own
    state.  [exec] may be called any number of times on it.

    A run executes global initializers then [main], producing:
    - an execution {!Trace.t} (unless [tracing:false], the "Plain" mode
      timed in Table 4),
    - the output stream with the producing instance of each value,
    - an outcome: normal termination, step-budget exhaustion (the
      substitute for the paper's verification timer), or a crash
      (runtime error / input exhaustion).

    Tracing keeps the last defining instance of every cell in int
    arrays beside the values (per local slot, per global, per frame's
    return cell, per array element), so a use is recorded without a
    lookup.

    {b Predicate switching}: pass [switch] to flip the branch outcome of
    the [switch_occ]-th dynamic instance of predicate [switch_sid] — the
    paper's core mechanism for exposing implicit dependences. *)

type switch_spec = { switch_sid : int; switch_occ : int }

(** Value perturbation (§5 of the paper): override the value produced by
    the [vswitch_occ]-th execution of assignment [vswitch_sid]. *)
type value_switch_spec = {
  vswitch_sid : int;
  vswitch_occ : int;
  vswitch_value : Value.t;
}

type abort = Budget_exhausted | Crashed of string

type run = {
  trace : Trace.t option;
  outputs : (int * int) list;
      (** (producing instance index, printed value), in output order;
          the index is [-1] when tracing is off *)
  outcome : (unit, abort) result;
  steps : int;  (** executed statement instances *)
  switch_fired : bool;
      (** whether the switched predicate instance was actually reached *)
}

val default_budget : int

(** A program compiled for {!exec}. *)
type program

(** [compile prog] resolves names and callees of a typechecked program
    once.  With [obs], it counts [interp.compiles] and records an
    [interp.compile] span.  Behaviour on programs that did not pass
    {!Exom_lang.Typecheck} is unspecified (may raise
    [Invalid_argument]). *)
val compile : ?obs:Exom_obs.Obs.t -> Exom_lang.Ast.program -> program

(** [exec code ~input] runs a compiled program.  Raises nothing — all
    failures are reported through [outcome] — with one deliberate
    exception: a [chaos] spec whose fault is {!Chaos.Raise_at} raises
    {!Chaos.Injected}, modelling failure modes outside the interpreter's
    own abort machinery (the resilience layer above must contain it).

    {b Shared prefix}: [prefix] must be the trace of an unswitched,
    chaos-free run of the same program on the same [input] (any
    budget), built by this interpreter.  Until this run can differ from
    it, the run is in {e shared mode}: it keeps its def arrays and
    counts each instance's uses and defs, but builds no trace records
    and no use/def lists.  Shared mode ends at the first of: the branch
    or value switch firing, the run aborting, or the run reserving an
    instance beyond {!Trace.shareable}[ prefix].  The run then takes
    over [prefix]'s records for every instance reserved so far, by
    reference, and records normally from there on; an instance still
    open at that point (the switched predicate, a statement whose
    callee is running) gets a fresh record when it completes, whose
    lists begin with the counted head of its prefix record's.  The
    resulting trace is structurally equal to the one a fully traced run
    builds.  [prefix] is ignored when [tracing] is false or [chaos] is
    given (chaos acts by step number).  With [obs], the records taken
    over are counted as [interp.shared_records], next to
    [interp.trace_records].

    {b Observer}: [observe sid kind value] is called as each statement
    instance completes, with what its trace record would hold — also in
    an untraced run, which is how a value profile is gathered without a
    trace.  A crashed or budget-cut statement reports [Kother]. *)
val exec :
  ?obs:Exom_obs.Obs.t ->
  ?switch:switch_spec ->
  ?vswitch:value_switch_spec ->
  ?chaos:Chaos.t ->
  ?budget:int ->
  ?tracing:bool ->
  ?prefix:Trace.t ->
  ?observe:(int -> Trace.ikind -> Value.t -> unit) ->
  program ->
  input:int list ->
  run

(** [run prog ~input] is [exec (compile prog) ~input], passing [obs] to
    both. *)
val run :
  ?obs:Exom_obs.Obs.t ->
  ?switch:switch_spec ->
  ?vswitch:value_switch_spec ->
  ?chaos:Chaos.t ->
  ?budget:int ->
  ?tracing:bool ->
  ?prefix:Trace.t ->
  ?observe:(int -> Trace.ikind -> Value.t -> unit) ->
  Exom_lang.Ast.program ->
  input:int list ->
  run

(** Just the printed values. *)
val output_values : run -> int list
