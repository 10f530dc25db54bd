module Iset = Set.Make (Int)

type t = {
  values : (int, Iset.t) Hashtbl.t;  (* sid -> int values produced *)
  mutable runs : int;
}

let add_value t sid n =
  let set = Option.value ~default:Iset.empty (Hashtbl.find_opt t.values sid) in
  Hashtbl.replace t.values sid (Iset.add n set)

(* The int values a completed instance produced: assignments, outputs
   and returns.  Predicate outcomes and bool values have no int range. *)
let observe t sid kind value =
  match (kind, value) with
  | (Trace.Kassign | Trace.Koutput | Trace.Kreturn), Value.Vint n ->
    add_value t sid n
  | _ -> ()

(* Profile runs are untraced: the observer sees every completed
   instance, which is all the profile needs. *)
let collect code inputs =
  let t = { values = Hashtbl.create 64; runs = 0 } in
  List.iter
    (fun input ->
      t.runs <- t.runs + 1;
      ignore (Interp.exec ~tracing:false ~observe:(observe t) code ~input))
    inputs;
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
