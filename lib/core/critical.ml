module Interp = Exom_interp.Interp
module Trace = Exom_interp.Trace

(* The predecessor technique (Zhang-Gupta-Gupta, ICSE'06 [18], discussed
   in the paper's §6): switch each predicate instance in turn and call
   it *critical* when the switched run produces exactly the expected
   output.  The paper contrasts its own use of switching — exposing one
   implicit dependence at a time, with alignment and demand-driven
   selection — against this whole-output search, which needs one
   re-execution per candidate instance and fails entirely when no single
   branch flip can repair the output (e.g. Figure 1's gzip bug, where
   the flags bit and the name bytes sit under two different instances of
   the faulty condition). *)

type result = {
  critical : int list;  (* instance indices, in discovery order *)
  executions : int;
}

(* Candidate ordering: last-executed-first-switched, the heuristic of
   [18] (the latest decisions are the most likely culprits). *)
let candidates trace =
  let preds = ref [] in
  Trace.iter
    (fun inst ->
      if Trace.is_predicate inst then preds := inst.Trace.idx :: !preds)
    trace;
  !preds

let find ?(cap = max_int) ?(stop_at_first = true) (s : Session.t) ~expected =
  let trace = s.Session.trace in
  let critical = ref [] in
  let executions = ref 0 in
  let rec scan = function
    | [] -> ()
    | p :: rest ->
      if !executions < cap && ((not stop_at_first) || !critical = []) then begin
        let inst = Trace.get trace p in
        let switch =
          { Interp.switch_sid = inst.Trace.sid; switch_occ = inst.Trace.occ }
        in
        incr executions;
        let run =
          Interp.exec ~switch ~tracing:false ~budget:s.Session.budget
            s.Session.code ~input:s.Session.input
        in
        (match run.Interp.outcome with
        | Ok () when Interp.output_values run = expected ->
          critical := p :: !critical
        | Ok () | Error _ -> ());
        scan rest
      end
  in
  scan (candidates trace);
  { critical = List.rev !critical; executions = !executions }
