module Ast = Exom_lang.Ast

type label = Lseq | Lthen | Lelse

type t = {
  fname : string option;
  entry : int;
  exit_ : int;
  nnodes : int;
  stmt_of : Ast.stmt option array;
  succ : (int * label) list array;
  pred : (int * label) list array;
  node_of_sid : (int, int) Hashtbl.t;
}

let node_of t sid =
  match Hashtbl.find_opt t.node_of_sid sid with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Cfg.node_of: sid %d not in this CFG" sid)

let sid_at t node =
  match t.stmt_of.(node) with Some s -> Some s.Ast.sid | None -> None

let build ~fname block =
  let node_of_sid = Hashtbl.create 32 in
  let count = ref 2 in
  Ast.iter_stmts
    (fun s ->
      Hashtbl.replace node_of_sid s.Ast.sid !count;
      incr count)
    block;
  let nnodes = !count in
  let entry = 0 and exit_ = 1 in
  let stmt_of = Array.make nnodes None in
  Ast.iter_stmts
    (fun s -> stmt_of.(Hashtbl.find node_of_sid s.Ast.sid) <- Some s)
    block;
  let succ = Array.make nnodes [] in
  let pred = Array.make nnodes [] in
  let add_edge src dst label =
    succ.(src) <- (dst, label) :: succ.(src);
    pred.(dst) <- (src, label) :: pred.(dst)
  in
  (* Wire statements back to front so each statement knows its successor.
     [brk] and [cont] are the targets of break/continue in the current
     loop ([None] outside loops; the typechecker guarantees they are set
     when needed). *)
  let rec wire_block block ~follow ~brk ~cont =
    List.fold_right
      (fun stmt next -> wire_stmt stmt ~follow:next ~brk ~cont)
      block follow
  and wire_stmt stmt ~follow ~brk ~cont =
    let n = Hashtbl.find node_of_sid stmt.Ast.sid in
    (match stmt.Ast.skind with
    | Ast.Sdecl _ | Ast.Sassign _ | Ast.Sstore _ | Ast.Sexpr _ ->
      add_edge n follow Lseq
    | Ast.Sreturn _ -> add_edge n exit_ Lseq
    | Ast.Sbreak -> add_edge n (Option.get brk) Lseq
    | Ast.Scontinue -> add_edge n (Option.get cont) Lseq
    | Ast.Sif (_, then_blk, else_blk) ->
      let t1 = wire_block then_blk ~follow ~brk ~cont in
      let t2 = wire_block else_blk ~follow ~brk ~cont in
      add_edge n t1 Lthen;
      add_edge n t2 Lelse
    | Ast.Swhile (_, body) ->
      let body_first =
        wire_block body ~follow:n ~brk:(Some follow) ~cont:(Some n)
      in
      add_edge n body_first Lthen;
      add_edge n follow Lelse);
    n
  in
  let first = wire_block block ~follow:exit_ ~brk:None ~cont:None in
  add_edge entry first Lseq;
  { fname; entry; exit_; nnodes; stmt_of; succ; pred; node_of_sid }

let of_func fn = build ~fname:(Some fn.Ast.fname) fn.Ast.fbody
let of_globals globals = build ~fname:None globals

let successors t n = t.succ.(n)
let predecessors t n = t.pred.(n)

(* The successor reached when predicate [n] evaluates to [branch]. *)
let branch_successor t n branch =
  let want = if branch then Lthen else Lelse in
  List.find_map (fun (s, l) -> if l = want then Some s else None) t.succ.(n)

let is_predicate_node t n =
  match t.stmt_of.(n) with
  | Some s -> Ast.is_predicate s
  | None -> false

let iter_nodes f t =
  for n = 0 to t.nnodes - 1 do
    f n
  done
