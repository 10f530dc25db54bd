module Iset = Set.Make (Int)

type t = {
  values : (int, Iset.t) Hashtbl.t;  (* sid -> int values produced *)
  bools : (int, bool list) Hashtbl.t;  (* sid -> distinct outcomes *)
  mutable runs : int;
}

let create () = { values = Hashtbl.create 64; bools = Hashtbl.create 16; runs = 0 }

let add_value t sid n =
  let set = Option.value ~default:Iset.empty (Hashtbl.find_opt t.values sid) in
  Hashtbl.replace t.values sid (Iset.add n set)

let add_bool t sid b =
  let seen = Option.value ~default:[] (Hashtbl.find_opt t.bools sid) in
  if not (List.mem b seen) then Hashtbl.replace t.bools sid (b :: seen)

let record_trace t trace =
  Trace.iter
    (fun inst ->
      match inst.Trace.kind with
      | Trace.Kpredicate b -> add_bool t inst.Trace.sid b
      | Trace.Kassign | Trace.Koutput | Trace.Kreturn -> (
        match inst.Trace.value with
        | Value.Vint n -> add_value t inst.Trace.sid n
        | Value.Vbool b -> add_bool t inst.Trace.sid b
        | Value.Varr _ | Value.Vunit -> ())
      | Trace.Kcall | Trace.Kother -> ())
    trace

let add_run t (run : Interp.run) =
  t.runs <- t.runs + 1;
  Option.iter (record_trace t) run.Interp.trace

let collect prog inputs =
  let t = create () in
  List.iter (fun input -> add_run t (Interp.run prog ~input)) inputs;
  t

let int_range t sid =
  Option.value ~default:Iset.empty (Hashtbl.find_opt t.values sid)

(* The value domain of a statement, as the paper approximates it "by the
   value profile".  The observed value is always included so that a range
   is never empty for a statement that executed in the failing run. *)
let range t sid ~observed =
  let base = int_range t sid in
  match observed with
  | Value.Vint n -> Iset.elements (Iset.add n base)
  | Value.Vbool _ | Value.Varr _ | Value.Vunit -> Iset.elements base

let runs t = t.runs
