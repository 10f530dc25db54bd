(* Condition (iv) of the paper's Definition 1: given that predicate [p]
   evaluated to [taken], could a *different* definition of location [loc]
   reach use [u] if [p] had evaluated to [not taken]?

   Checked statically on the CFG of [p]'s function.  A candidate
   definition node D of [loc] qualifies when:
   - D is reachable from the untaken successor of [p] but NOT from the
     taken one, along paths that do not re-traverse [p] itself (a
     definition reaching the use on both branches is not a *different*
     definition — e.g. the paper's S6, which executes whichever way S4
     goes, does not put S4 in PD of S10; but paths that re-enter the
     predicate belong to *later* instances of it, so they must not
     disqualify a loop-guarded definition);
   - same function only: some successor of D starts a
     [loc]-definition-clear path to [u] (otherwise the definition is
     killed before the use, the paper's condition-(iii) illustration);
     across functions kill information is not tracked (conservative).

   Each condition is a set of nodes of [p]'s CFG, kept as a bitset built
   at most once per [t], so a query ANDs words: the untaken-only nodes,
   the nodes defining [loc], the nodes reaching [u] def-clear (same
   function only) and, under [observed], the nodes witnessed reaching
   [u].

   Still deliberately conservative overall (calls inherit callee def
   summaries, array classes collapse all elements): the source of the
   over-approximation that inflates relevant slices in Table 2. *)

(* Node sets, 63 nodes to a word. *)
let bits n = Array.make ((n + 62) / 63) 0
let add b i = b.(i / 63) <- b.(i / 63) lor (1 lsl (i mod 63))
let mem b i = b.(i / 63) land (1 lsl (i mod 63)) <> 0

type fn = {
  cfg : Cfg.t;
  full : int array;  (* every node: the operand of an absent condition *)
  diffs : (int array * int array) Lazy.t array;
      (* predicate node -> the untaken-only nodes when it took true, and
         when it took false *)
  defs : (Locs.loc, int array * (int, int array) Hashtbl.t) Hashtbl.t;
      (* loc -> its defining nodes, and by use node the nodes with a
         successor that starts a loc-def-clear path to the use *)
  witnessed : (int, int array) Hashtbl.t;  (* use sid -> [observed] nodes *)
}

type t = {
  observed : (def_sid:int -> use_sid:int -> bool) option;
      (* evidence filter, e.g. the union dependence graph: a candidate
         definition qualifies only if some test run witnessed its value
         reaching the use statement *)
  fn_of : int array;  (* sid -> index of its function in [fns] *)
  node_of : int array;  (* sid -> its node in that function's CFG *)
  fns : fn Lazy.t array;
}

let memo tbl key build =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = build () in
    Hashtbl.replace tbl key v;
    v

(* Forward reachability that never traverses *through* [avoid] (the
   queried predicate): nodes only reachable by re-entering the predicate
   belong to later dynamic instances of it. *)
let reachable cfg start ~avoid =
  let seen = bits cfg.Cfg.nnodes in
  let rec visit n =
    if not (mem seen n) then begin
      add seen n;
      if n <> avoid then List.iter (fun (s, _) -> visit s) (Cfg.successors cfg n)
    end
  in
  visit start;
  seen

let minus = Array.map2 (fun a b -> a land lnot b)

let make_fn info cfg =
  let n = cfg.Cfg.nnodes in
  let diffs =
    Array.init n (fun p ->
        lazy
          (match (Cfg.branch_successor cfg p true, Cfg.branch_successor cfg p false) with
          | Some s_then, Some s_else ->
            let r_then = reachable cfg s_then ~avoid:p in
            let r_else = reachable cfg s_else ~avoid:p in
            (minus r_else r_then, minus r_then r_else)
          | _ -> (bits n, bits n) (* not a predicate *)))
  in
  let defs = Hashtbl.create 16 in
  Cfg.iter_nodes
    (fun node ->
      Option.iter
        (fun sid ->
          Locs.Lset.iter
            (fun loc ->
              add (fst (memo defs loc (fun () -> (bits n, Hashtbl.create 8)))) node)
            (Locs.defs (Proginfo.locs info) sid))
        (Cfg.sid_at cfg node))
    cfg;
  { cfg; full = Array.make (Array.length (bits n)) (-1); diffs; defs;
    witnessed = Hashtbl.create 16 }

let create ?observed info =
  let prog = Proginfo.program info in
  let nsids = Exom_lang.Ast.stmt_count prog in
  let fn_of = Array.make nsids 0 and node_of = Array.make nsids 0 in
  let fn i fname =
    let cfg = Proginfo.cfg_of info fname in
    Cfg.iter_nodes
      (fun n ->
        Option.iter
          (fun sid ->
            fn_of.(sid) <- i;
            node_of.(sid) <- n)
          (Cfg.sid_at cfg n))
      cfg;
    lazy (make_fn info cfg)
  in
  let fnames = None :: List.map (fun f -> Some f.Exom_lang.Ast.fname) prog.funcs in
  { observed; fn_of; node_of; fns = Array.of_list (List.mapi fn fnames) }

(* The nodes one of whose successors starts a path to [use_node] that
   defines the loc nowhere before [use_node]: the predecessors of every
   node of the backward def-clear closure from [use_node]. *)
let into_clear f (defs, by_use) use_node =
  memo by_use use_node @@ fun () ->
  let clear = bits f.cfg.Cfg.nnodes and into = bits f.cfg.Cfg.nnodes in
  let rec visit m =
    List.iter
      (fun (p, _) ->
        add into p;
        if not (mem clear p || mem defs p) then begin
          add clear p;
          visit p
        end)
      (Cfg.predecessors f.cfg m)
  in
  add clear use_node;
  visit use_node;
  into

let witnessed f observed ~use_sid =
  memo f.witnessed use_sid @@ fun () ->
  let b = bits f.cfg.Cfg.nnodes in
  Cfg.iter_nodes
    (fun n ->
      match Cfg.sid_at f.cfg n with
      | Some def_sid when observed ~def_sid ~use_sid -> add b n
      | _ -> ())
    f.cfg;
  b

let could_reach_differently t ~pred_sid ~taken ~use_sid ~loc =
  let f = Lazy.force t.fns.(t.fn_of.(pred_sid)) in
  match Hashtbl.find_opt f.defs loc with
  | None -> false
  | Some ((defs, _) as sets) ->
    let if_true, if_false = Lazy.force f.diffs.(t.node_of.(pred_sid)) in
    let diff = if taken then if_true else if_false in
    let clear =
      if t.fn_of.(use_sid) = t.fn_of.(pred_sid) then
        into_clear f sets t.node_of.(use_sid)
      else f.full
    in
    let wit =
      match t.observed with
      | None -> f.full
      | Some observed -> witnessed f observed ~use_sid
    in
    let rec meet i =
      i >= 0
      && (diff.(i) land defs.(i) land clear.(i) land wit.(i) <> 0 || meet (i - 1))
    in
    meet (Array.length diff - 1)
