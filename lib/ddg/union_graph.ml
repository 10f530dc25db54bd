module Trace = Exom_interp.Trace
module Interp = Exom_interp.Interp

(* The paper's "union dependence graph": the union of all unique
   dependences exercised while executing a large number of test cases
   (§4, the static component).  The authors used it to compute potential
   dependences; here it serves as an alternative backend for condition
   (iv) of Definition 1 — a definition statement is considered able to
   reach a use statement only if some test run actually witnessed the
   def-use pair, instead of the purely static def-clear path analysis.

   Witnessed pairs are an under-approximation of feasible pairs (tests
   may miss paths) and an over-approximation of the failing run's pairs
   — exactly the hybrid character the paper ascribes to relevant
   slicing. *)

type t = {
  pairs : (int * int, unit) Hashtbl.t;  (* (def sid, use sid) *)
  executed : (int, unit) Hashtbl.t;  (* sids seen executing in any run *)
  mutable runs : int;
}

let create () =
  { pairs = Hashtbl.create 256; executed = Hashtbl.create 128; runs = 0 }

let add_trace t trace =
  t.runs <- t.runs + 1;
  Trace.iter
    (fun inst ->
      Hashtbl.replace t.executed inst.Trace.sid ();
      List.iter
        (fun (_, def_idx, _) ->
          if def_idx >= 0 then
            let def_sid = (Trace.get trace def_idx).Trace.sid in
            Hashtbl.replace t.pairs (def_sid, inst.Trace.sid) ())
        inst.Trace.uses)
    trace

let add_run t (run : Interp.run) =
  Option.iter (add_trace t) run.Interp.trace

let collect prog inputs =
  let t = create () in
  let code = Interp.compile prog in
  List.iter (fun input -> add_run t (Interp.exec code ~input)) inputs;
  t

let observed t ~def_sid ~use_sid = Hashtbl.mem t.pairs (def_sid, use_sid)

let executed t sid = Hashtbl.mem t.executed sid

(* The condition-(iv) evidence filter.  A definition that never executed
   in any test run cannot have been witnessed — and that is precisely
   the execution-omission situation, so absence of evidence must not
   disqualify it.  Among definitions that did execute, a def-use pair no
   run ever witnessed is discarded (the way the union graph prunes the
   static analysis's false pairs). *)
let evidence_filter t ~def_sid ~use_sid =
  observed t ~def_sid ~use_sid || not (executed t def_sid)

let size t = Hashtbl.length t.pairs
let runs t = t.runs
