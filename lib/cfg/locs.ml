module Ast = Exom_lang.Ast
module Builtin = Exom_lang.Builtin

type loc =
  | Lvar of string option * string  (* defining scope, name *)
  | Larr of int  (* array alias class *)

let loc_to_string = function
  | Lvar (None, x) -> x
  | Lvar (Some f, x) -> Printf.sprintf "%s.%s" f x
  | Larr c -> Printf.sprintf "arr-class#%d" c

module Lset = Set.Make (struct
  type t = loc

  let compare = compare
end)

type t = {
  alias : Alias.t;
  scopes : Scopes.t;
  defs : (int, Lset.t) Hashtbl.t;
  uses : (int, Lset.t) Hashtbl.t;
  def_sum : (string, Lset.t) Hashtbl.t;
  use_sum : (string, Lset.t) Hashtbl.t;
}

let loc_of_var t ~fname x = Lvar (Scopes.resolve t.scopes ~fname x, x)

let arr_loc t ~fname x =
  match Alias.class_of t.alias ~fname x with
  | Some c -> Some (Larr c)
  | None -> None

(* Direct uses of an expression: variables read, array classes indexed,
   plus the set of user functions called (for summary expansion). *)
let rec expr_effects t ~fname expr (uses, calls) =
  match expr.Ast.edesc with
  | Ast.Eint _ | Ast.Ebool _ -> (uses, calls)
  | Ast.Evar x -> (Lset.add (loc_of_var t ~fname x) uses, calls)
  | Ast.Eindex (a, e) ->
    let uses = Lset.add (loc_of_var t ~fname a) uses in
    let uses =
      match arr_loc t ~fname a with
      | Some l -> Lset.add l uses
      | None -> uses
    in
    expr_effects t ~fname e (uses, calls)
  | Ast.Eunop (_, e) -> expr_effects t ~fname e (uses, calls)
  | Ast.Ebinop (_, e1, e2) ->
    expr_effects t ~fname e2 (expr_effects t ~fname e1 (uses, calls))
  | Ast.Ecall (f, args) ->
    let acc = List.fold_left (fun acc a -> expr_effects t ~fname a acc) (uses, calls) args in
    let uses, calls = acc in
    (* [len] depends on the allocation of its argument's class *)
    let uses =
      match (Builtin.of_name f, args) with
      | Some Builtin.Len, [ { Ast.edesc = Ast.Evar a; _ } ] -> (
        match arr_loc t ~fname a with
        | Some l -> Lset.add l uses
        | None -> uses)
      | _ -> uses
    in
    let calls = if Builtin.of_name f = None then f :: calls else calls in
    (uses, calls)

(* Direct defs/uses of one statement, without callee summaries. *)
let direct_effects t ~fname stmt =
  let empty = (Lset.empty, []) in
  let of_expr e = expr_effects t ~fname e empty in
  let of_expr_opt = function Some e -> of_expr e | None -> empty in
  match stmt.Ast.skind with
  | Ast.Sdecl (_, x, init) ->
    let uses, calls = of_expr_opt init in
    (Lset.singleton (loc_of_var t ~fname x), uses, calls)
  | Ast.Sassign (x, e) ->
    let uses, calls = of_expr e in
    (Lset.singleton (loc_of_var t ~fname x), uses, calls)
  | Ast.Sstore (a, i, e) ->
    let acc = expr_effects t ~fname i empty in
    let uses, calls = expr_effects t ~fname e acc in
    let uses = Lset.add (loc_of_var t ~fname a) uses in
    let defs =
      match arr_loc t ~fname a with
      | Some l -> Lset.singleton l
      | None -> Lset.empty
    in
    (defs, uses, calls)
  | Ast.Sif (c, _, _) | Ast.Swhile (c, _) ->
    let uses, calls = of_expr c in
    (Lset.empty, uses, calls)
  | Ast.Sreturn e_opt ->
    let uses, calls = of_expr_opt e_opt in
    (Lset.empty, uses, calls)
  | Ast.Sexpr e ->
    let uses, calls = of_expr e in
    (Lset.empty, uses, calls)
  | Ast.Sbreak | Ast.Scontinue -> (Lset.empty, Lset.empty, [])

(* Only globals and array classes survive into a function's summary. *)
let summarizable = function
  | Lvar (None, _) | Larr _ -> true
  | Lvar (Some _, _) -> false

let build prog alias =
  let scopes = Alias.scopes alias in
  let t =
    {
      alias;
      scopes;
      defs = Hashtbl.create 64;
      uses = Hashtbl.create 64;
      def_sum = Hashtbl.create 16;
      use_sum = Hashtbl.create 16;
    }
  in
  (* Direct per-statement effects and per-function call lists. *)
  let stmt_calls = Hashtbl.create 64 in
  let fn_direct = Hashtbl.create 16 in
  let record_stmt ~fname s =
    let defs, uses, calls = direct_effects t ~fname s in
    Hashtbl.replace t.defs s.Ast.sid defs;
    Hashtbl.replace t.uses s.Ast.sid uses;
    Hashtbl.replace stmt_calls s.Ast.sid calls
  in
  List.iter (record_stmt ~fname:None) prog.Ast.globals;
  List.iter
    (fun fn ->
      let fname = Some fn.Ast.fname in
      let fdefs = ref Lset.empty and fuses = ref Lset.empty and fcalls = ref [] in
      Ast.iter_stmts
        (fun s ->
          record_stmt ~fname s;
          fdefs := Lset.union !fdefs (Lset.filter summarizable (Hashtbl.find t.defs s.Ast.sid));
          fuses := Lset.union !fuses (Lset.filter summarizable (Hashtbl.find t.uses s.Ast.sid));
          fcalls := Hashtbl.find stmt_calls s.Ast.sid @ !fcalls)
        fn.Ast.fbody;
      Hashtbl.replace fn_direct fn.Ast.fname (!fdefs, !fuses, List.sort_uniq compare !fcalls))
    prog.Ast.funcs;
  (* Transitive summaries: fixpoint over the (possibly cyclic) call graph. *)
  List.iter
    (fun fn ->
      let d, u, _ = Hashtbl.find fn_direct fn.Ast.fname in
      Hashtbl.replace t.def_sum fn.Ast.fname d;
      Hashtbl.replace t.use_sum fn.Ast.fname u)
    prog.Ast.funcs;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun fn ->
        let _, _, calls = Hashtbl.find fn_direct fn.Ast.fname in
        let grow tbl =
          let cur = Hashtbl.find tbl fn.Ast.fname in
          let ext =
            List.fold_left
              (fun acc g ->
                match Hashtbl.find_opt tbl g with
                | Some s -> Lset.union acc s
                | None -> acc)
              cur calls
          in
          if not (Lset.equal ext cur) then begin
            Hashtbl.replace tbl fn.Ast.fname ext;
            changed := true
          end
        in
        grow t.def_sum;
        grow t.use_sum)
      prog.Ast.funcs
  done;
  (* Fold callee summaries into per-statement effects. *)
  Hashtbl.iter
    (fun sid calls ->
      let fold tbl sum_tbl =
        let cur = Hashtbl.find tbl sid in
        let ext =
          List.fold_left
            (fun acc g ->
              match Hashtbl.find_opt sum_tbl g with
              | Some s -> Lset.union acc s
              | None -> acc)
            cur calls
        in
        Hashtbl.replace tbl sid ext
      in
      fold t.defs t.def_sum;
      fold t.uses t.use_sum)
    stmt_calls;
  t

let defs t sid = Option.value ~default:Lset.empty (Hashtbl.find_opt t.defs sid)
let uses t sid = Option.value ~default:Lset.empty (Hashtbl.find_opt t.uses sid)

let def_summary t fname =
  Option.value ~default:Lset.empty (Hashtbl.find_opt t.def_sum fname)

let defines t sid loc = Lset.mem loc (defs t sid)

let array_uses t sid =
  Lset.fold
    (fun l acc -> match l with Larr _ -> l :: acc | Lvar _ -> acc)
    (uses t sid) []
