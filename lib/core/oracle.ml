module Align = Exom_align.Align
module Ast = Exom_lang.Ast
module Interp = Exom_interp.Interp
module Region = Exom_align.Region
module Trace = Exom_interp.Trace
module Value = Exom_interp.Value

(* The stand-in for the programmer in the interactive pruning step of
   Algorithm 2 ("the programmer gives feedback to the system if he
   considers the presented statement instance contains benign program
   state").

   The oracle runs the corrected program on the same input, aligns its
   execution with the failing one, and deems an instance benign iff its
   aligned counterpart exists and carries the same value — i.e. the
   instance's program state is untouched by the fault.  Alignment works
   across the two program versions because faults are expression-level
   mutations: statement ids and region shapes coincide, only values and
   branch outcomes differ. *)

type t = int -> bool

type reference = { correct_trace : Trace.t; outputs : int list }

(* One traced run of the corrected program serves both the session's
   expected outputs and, once the failing run exists, the oracle. *)
let reference ~correct_prog ~input =
  let run = Interp.run correct_prog ~input in
  match run.Interp.trace with
  | Some correct_trace ->
    { correct_trace; outputs = Interp.output_values run }
  | None -> invalid_arg "Oracle.reference: tracing disabled"

let reference_outputs r = r.outputs

(* The output stream alone needs no trace. *)
let expected ~correct_prog ~input =
  Interp.output_values (Interp.run ~tracing:false correct_prog ~input)

let of_reference { correct_trace; _ } ~faulty_trace =
  let reg_faulty = Region.build faulty_trace in
  let reg_correct = Region.build correct_trace in
  let cache = Hashtbl.create 256 in
  (* Inspectable values only: array references and unit say nothing a
     programmer could compare. *)
  let comparable v =
    match v with Value.Vint _ | Value.Vbool _ -> true
    | Value.Varr _ | Value.Vunit -> false
  in
  let values_agree va vb =
    (not (comparable va)) || (not (comparable vb)) || Value.equal va vb
  in
  let benign idx =
    match Hashtbl.find_opt cache idx with
    | Some b -> b
    | None ->
      let b =
        match Align.to_option (Align.match_root reg_faulty reg_correct ~u:idx) with
        | None -> false
        | Some idx' ->
          (* The instance's observable state is benign only if every
             value it touched agrees with the corrected run: its
             principal value, everything it read, and everything it
             defined (a call statement's own value is unit, but the
             arguments it passes are program state too). *)
          let a = Trace.get faulty_trace idx in
          let b = Trace.get correct_trace idx' in
          values_agree a.Trace.value b.Trace.value
          && List.length a.Trace.uses = List.length b.Trace.uses
          && List.for_all2
               (fun (_, _, va) (_, _, vb) -> values_agree va vb)
               a.Trace.uses b.Trace.uses
          && List.length a.Trace.defs = List.length b.Trace.defs
          && List.for_all2
               (fun (_, va) (_, vb) -> values_agree va vb)
               a.Trace.defs b.Trace.defs
      in
      Hashtbl.replace cache idx b;
      b
  in
  benign

let create ~faulty_trace ~correct_prog ~input =
  of_reference (reference ~correct_prog ~input) ~faulty_trace

let benign t idx = t idx
