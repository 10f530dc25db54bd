(** The programmer stand-in for the interactive pruning step: an
    instance is benign iff it aligns with the corrected program's run on
    the same input and carries the same value. *)

type t

(** One traced run of the corrected program on the failing input. *)
type reference

val reference :
  correct_prog:Exom_lang.Ast.program -> input:int list -> reference

(** The corrected run's output stream: the session's [expected]. *)
val reference_outputs : reference -> int list

(** The oracle for a failing run, aligned against the reference run. *)
val of_reference : reference -> faulty_trace:Exom_interp.Trace.t -> t

(** Output stream of the corrected program, from an untraced run, for a
    caller that needs no oracle. *)
val expected : correct_prog:Exom_lang.Ast.program -> input:int list -> int list

(** [of_reference (reference ~correct_prog ~input) ~faulty_trace]. *)
val create :
  faulty_trace:Exom_interp.Trace.t ->
  correct_prog:Exom_lang.Ast.program ->
  input:int list ->
  t

val benign : t -> int -> bool
