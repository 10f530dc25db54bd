(* Figure 4 of the paper: confidence analysis.

       10. a = ...        C = f(range(a)) ?
       20. b = a % 2      C = 1
       30. c = a + 2      C = 0
       40. print(b)       correct
       41. print(c)       wrong

   The correct output at 40 pins b to its observed value (C=1); the
   many-to-one a%2 leaves several values of a plausible, so a's
   confidence lies strictly between 0 and 1, computed against the value
   profile; c reaches only the wrong output and gets 0.

   Run with: dune exec examples/confidence_demo.exe *)

module Typecheck = Exom_lang.Typecheck
module Interp = Exom_interp.Interp
module Trace = Exom_interp.Trace
module Profile = Exom_interp.Profile
module Proginfo = Exom_cfg.Proginfo
module Confidence = Exom_conf.Confidence
module Prune = Exom_conf.Prune
module Slice = Exom_ddg.Slice

let src =
  {|
void main() {
  int a = input();
  int b = a % 2;
  int c = a + 2;
  print(b);
  print(c);
}
|}

let () =
  let prog = Typecheck.parse_and_check src in
  let info = Proginfo.build prog in
  let run = Interp.run prog ~input:[ 5 ] in
  let trace = match run.Interp.trace with Some t -> t | None -> assert false in
  (* value profile over a passing test suite: range(a) = {1,2,3,4,6} + 5 *)
  let profile =
    Profile.collect (Interp.compile prog) [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ]; [ 6 ] ]
  in
  (* the user observes: print(b) correct, print(c) wrong *)
  let correct = [ fst (List.nth run.Interp.outputs 0) ] in
  let wrong = fst (List.nth run.Interp.outputs 1) in
  let conf =
    Confidence.compute info profile trace ~correct ~benign:[] ~implicit:[]
  in
  Printf.printf "input a = 5; outputs: b = %d (correct), c = %d (wrong)\n\n"
    (snd (List.nth run.Interp.outputs 0))
    (snd (List.nth run.Interp.outputs 1));
  Trace.iter
    (fun inst ->
      let line = Proginfo.line_of_sid info inst.Trace.sid in
      let alt =
        match Confidence.alt_set conf inst.Trace.idx with
        | None -> "unconstrained"
        | Some s ->
          Printf.sprintf "{%s}"
            (String.concat ","
               (List.map Exom_interp.Value.to_string
                  (Confidence.Vset.elements s)))
      in
      Printf.printf "line %d  value %-5s  confidence %.3f  alt = %s\n" line
        (Exom_interp.Value.to_string inst.Trace.value)
        (Confidence.confidence conf inst.Trace.idx)
        alt)
    trace;
  print_newline ();
  let slice = Slice.compute trace ~criteria:[ wrong ] in
  let ps = Prune.compute trace ~slice ~conf ~criterion:wrong in
  Printf.printf
    "pruned slice of the wrong output (%d of %d instances), ranked:\n"
    (Prune.size ps) (Slice.dynamic_size slice);
  List.iter
    (fun e ->
      Printf.printf "  line %d (confidence %.3f, distance %d)\n"
        (Proginfo.line_of_sid info (Trace.get trace e.Prune.idx).Trace.sid)
        e.Prune.confidence e.Prune.distance)
    (Prune.entries ps)
