(* The reference interpreter for the differential tests: the AST
   walker that [Interp.compile] replaced, kept as the plain statement
   of MCL's semantics.  Every variable is looked up by name, every
   cell's last definition lives in one [Cell.t]-keyed table, and every
   traced run records every instance — it has no shared mode, because
   a shared run must equal the fully traced one.  Its runs are
   [Interp.run] values, so the tests compare them field by field. *)

module Ast = Exom_lang.Ast
module Builtin = Exom_lang.Builtin
module Vec = Exom_util.Vec
module Interp = Exom_interp.Interp
module Trace = Exom_interp.Trace
module Value = Exom_interp.Value
module Cell = Exom_interp.Cell
module Chaos = Exom_interp.Chaos

open Interp

exception Brk
exception Cont
exception Ret_exn of Value.t
exception Abort_exn of abort

(* A local is a mutable slot: one lookup serves a read or a write. *)
type frame = { fid : int; vars : (string, Value.t ref) Hashtbl.t }

type scope = Gscope | Fscope of frame

type state = {
  funcs : (string, Ast.func) Hashtbl.t;
  globals : (string, Value.t) Hashtbl.t;
  arrays : (int, int array) Hashtbl.t;
  mutable next_array : int;
  mutable next_frame : int;
  mutable input : int list;
  outputs : (int * int) Vec.t;  (* instance idx (-1 when untraced), value *)
  trace : Trace.t option;
  tracing : bool;  (* [trace <> None], tested per use/def without a compare *)
  count_occ : bool;
      (* occurrence numbers are read only by the trace and the switches;
         an untraced, unswitched run skips [occ_tbl] altogether *)
  def_tbl : (Cell.t, int) Hashtbl.t;  (* cell -> last defining instance *)
  arr_origin : (int, int) Hashtbl.t;  (* array id -> allocating instance *)
  occ_tbl : (int, int) Hashtbl.t;  (* sid -> executions so far *)
  switch : switch_spec option;
  vswitch : value_switch_spec option;
  observe : (int -> Trace.ikind -> Value.t -> unit) option;
  chaos : Chaos.t option;
  mutable chaos_corrupted : bool;  (* Corrupt_value fires once per run *)
  mutable switch_fired : bool;
  mutable steps : int;
  budget : int;
}

(* Per-statement-instance recording context. *)
type ictx = {
  idx : int;  (* -1 when tracing is off *)
  sid : int;
  occ : int;  (* 0 when occurrences are not counted *)
  mutable uses : (Cell.t * int * Value.t) list;  (* reversed *)
  mutable defs : (Cell.t * Value.t) list;  (* reversed *)
}

let crash fmt = Fmt.kstr (fun msg -> raise (Abort_exn (Crashed msg))) fmt

let reserve st ~sid ~parent =
  st.steps <- st.steps + 1;
  if st.steps > st.budget then raise (Abort_exn Budget_exhausted);
  (match Chaos.action st.chaos ~step:st.steps with
  | `Continue -> ()
  | `Crash msg -> raise (Abort_exn (Crashed msg)));
  let occ =
    if st.count_occ then begin
      let occ =
        1 + Option.value ~default:0 (Hashtbl.find_opt st.occ_tbl sid)
      in
      Hashtbl.replace st.occ_tbl sid occ;
      occ
    end
    else 0
  in
  let idx =
    match st.trace with
    | None -> -1
    | Some tr -> Trace.reserve tr ~sid ~occ ~parent
  in
  { idx; sid; occ; uses = []; defs = [] }

let fill st ctx ~kind ~value =
  (match st.observe with None -> () | Some f -> f ctx.sid kind value);
  match st.trace with
  | Some tr ->
    Trace.fill tr ctx.idx ~kind ~uses:(List.rev ctx.uses)
      ~defs:(List.rev ctx.defs) ~value
  | _ -> ()

(* An abort inside a loop condition (a call in it crashed or ran out of
   budget) leaves the predicate instance reserved but unfilled. *)
let unfilled st ctx =
  match st.trace with Some tr -> Trace.abandon tr ctx.idx | None -> ()

let record_use st ctx cell value =
  if st.tracing then begin
    let def = Option.value ~default:(-1) (Hashtbl.find_opt st.def_tbl cell) in
    ctx.uses <- (cell, def, value) :: ctx.uses
  end

(* A use of an array-element (or the pseudo length cell [Elem (id, -1)])
   falls back to the allocating instance when the element was never
   stored to: the value flowed from [new_array]. *)
let record_elem_use st ctx arr_id index value =
  if st.tracing then begin
    let cell = Cell.Elem (arr_id, index) in
    let def =
      match Hashtbl.find_opt st.def_tbl cell with
      | Some d -> d
      | None ->
        Option.value ~default:(-1) (Hashtbl.find_opt st.arr_origin arr_id)
    in
    ctx.uses <- (cell, def, value) :: ctx.uses
  end

let use_global st ctx x =
  match Hashtbl.find_opt st.globals x with
  | Some v ->
    record_use st ctx (Cell.Global x) v;
    v
  | None -> crash "variable '%s' read before initialization" x

(* Read variable [x] — a local of the current frame, else a global —
   and record the use of its cell. *)
let use_var st ctx scope x =
  match scope with
  | Gscope -> use_global st ctx x
  | Fscope f -> (
    match Hashtbl.find_opt f.vars x with
    | Some r ->
      let v = !r in
      record_use st ctx (Cell.Local (f.fid, x)) v;
      v
    | None -> use_global st ctx x)

let write_cell st ctx cell value =
  if st.tracing then begin
    ctx.defs <- (cell, value) :: ctx.defs;
    Hashtbl.replace st.def_tbl cell ctx.idx
  end

let write_global st ctx x value =
  Hashtbl.replace st.globals x value;
  write_cell st ctx (Cell.Global x) value

let write_var st ctx scope x value =
  match scope with
  | Gscope -> write_global st ctx x value
  | Fscope f -> (
    match Hashtbl.find_opt f.vars x with
    | Some r ->
      r := value;
      write_cell st ctx (Cell.Local (f.fid, x)) value
    | None -> write_global st ctx x value)

let get_array st id =
  if id < 0 then crash "null array dereference";
  match Hashtbl.find_opt st.arrays id with
  | Some a -> a
  | None -> crash "unknown array #%d" id

let check_bounds a i =
  if i < 0 || i >= Array.length a then
    crash "array index %d out of bounds [0, %d)" i (Array.length a)

let apply_binop loc op v1 v2 =
  ignore loc;
  let int_op f = Value.Vint (f (Value.as_int v1) (Value.as_int v2)) in
  let cmp_op f = Value.Vbool (f (Value.as_int v1) (Value.as_int v2)) in
  match op with
  | Ast.Add -> int_op ( + )
  | Ast.Sub -> int_op ( - )
  | Ast.Mul -> int_op ( * )
  | Ast.Div ->
    if Value.as_int v2 = 0 then crash "division by zero";
    int_op ( / )
  | Ast.Mod ->
    if Value.as_int v2 = 0 then crash "modulo by zero";
    int_op (fun a b -> a mod b)
  | Ast.Lt -> cmp_op ( < )
  | Ast.Le -> cmp_op ( <= )
  | Ast.Gt -> cmp_op ( > )
  | Ast.Ge -> cmp_op ( >= )
  | Ast.Eq -> Value.Vbool (Value.equal v1 v2)
  | Ast.Ne -> Value.Vbool (not (Value.equal v1 v2))
  | Ast.And | Ast.Or -> assert false (* short-circuited in eval *)

let rec eval st scope ctx expr =
  match expr.Ast.edesc with
  | Ast.Eint n -> Value.Vint n
  | Ast.Ebool b -> Value.Vbool b
  | Ast.Evar x -> use_var st ctx scope x
  | Ast.Eindex (a, idx_expr) ->
    let av = use_var st ctx scope a in
    let arr = get_array st (Value.as_array av) in
    let i = Value.as_int (eval st scope ctx idx_expr) in
    check_bounds arr i;
    let v = Value.Vint arr.(i) in
    record_elem_use st ctx (Value.as_array av) i v;
    v
  | Ast.Eunop (Ast.Neg, e) -> Value.Vint (-Value.as_int (eval st scope ctx e))
  | Ast.Eunop (Ast.Not, e) ->
    Value.Vbool (not (Value.as_bool (eval st scope ctx e)))
  | Ast.Ebinop (Ast.And, e1, e2) ->
    if Value.as_bool (eval st scope ctx e1) then eval st scope ctx e2
    else Value.Vbool false
  | Ast.Ebinop (Ast.Or, e1, e2) ->
    if Value.as_bool (eval st scope ctx e1) then Value.Vbool true
    else eval st scope ctx e2
  | Ast.Ebinop (op, e1, e2) ->
    let v1 = eval st scope ctx e1 in
    let v2 = eval st scope ctx e2 in
    apply_binop expr.Ast.eloc op v1 v2
  | Ast.Ecall (fname, args) -> eval_call st scope ctx fname args

and eval_call st scope ctx fname args =
  match Builtin.of_name fname with
  | Some Builtin.Input -> (
    match st.input with
    | [] -> crash "input exhausted"
    | n :: rest ->
      st.input <- rest;
      Value.Vint n)
  | Some Builtin.New_array ->
    let n = Value.as_int (eval st scope ctx (List.hd args)) in
    if n < 0 then crash "new_array with negative size %d" n;
    let id = st.next_array in
    st.next_array <- id + 1;
    Hashtbl.replace st.arrays id (Array.make n 0);
    Hashtbl.replace st.arr_origin id ctx.idx;
    Value.Varr id
  | Some Builtin.Len ->
    let av = eval st scope ctx (List.hd args) in
    let arr = get_array st (Value.as_array av) in
    let v = Value.Vint (Array.length arr) in
    (* The length flowed from the allocation: use the pseudo-cell. *)
    record_elem_use st ctx (Value.as_array av) (-1) v;
    v
  | Some Builtin.Print ->
    (* Returns the printed value; [print] has type void so the result is
       only observable by the [Sexpr] case of [exec_stmt], which records
       it as the output instance's principal value. *)
    let v = eval st scope ctx (List.hd args) in
    Vec.push st.outputs (ctx.idx, Value.as_int v);
    v
  | None -> (
    let fn =
      match Hashtbl.find_opt st.funcs fname with
      | Some fn -> fn
      | None -> crash "unknown function '%s'" fname
    in
    let argv = List.map (eval st scope ctx) args in
    let fid = st.next_frame in
    st.next_frame <- fid + 1;
    let frame = { fid; vars = Hashtbl.create 8 } in
    List.iter2
      (fun (_, x) v ->
        Hashtbl.replace frame.vars x (ref v);
        write_cell st ctx (Cell.Local (fid, x)) v)
      fn.Ast.fparams argv;
    match exec_block st (Fscope frame) ~parent:ctx.idx fn.Ast.fbody with
    | () -> Value.Vunit  (* fell off the end of a void function *)
    | exception Ret_exn v ->
      (* The return statement defined [Ret fid]; read it back so the
         caller's use points at the return instance. *)
      let cell = Cell.Ret fid in
      record_use st ctx cell v;
      v)

and exec_block st scope ~parent block =
  List.iter (exec_stmt st scope ~parent) block

and exec_stmt st scope ~parent stmt =
  let sid = stmt.Ast.sid in
  match stmt.Ast.skind with
  | Ast.Swhile (cond, body) ->
    (* Each evaluation of the loop predicate is its own instance; the
       first nests under the enclosing region and each subsequent one
       under its predecessor, so one loop *entry* forms one region
       (Definition 3 / Figure 2 of the paper). *)
    let rec iterate pred_parent =
      let pctx = reserve st ~sid ~parent:pred_parent in
      let b =
        try Value.as_bool (eval st scope pctx cond)
        with Abort_exn _ as e ->
          unfilled st pctx;
          raise e
      in
      let b = maybe_switch st pctx sid b in
      fill st pctx ~kind:(Trace.Kpredicate b) ~value:(Value.Vbool b);
      if b then begin
        (try exec_block st scope ~parent:pctx.idx body with Cont -> ());
        iterate pctx.idx
      end
    in
    (try iterate parent with Brk -> ())
  | _ -> exec_simple_stmt st scope ~parent stmt

and exec_simple_stmt st scope ~parent stmt =
  let sid = stmt.Ast.sid in
  let ctx = reserve st ~sid ~parent in
  (* A crash or budget exhaustion mid-statement leaves the reserved
     instance unfilled; record what was already read so that the crash
     point can anchor slicing (crash-failure sessions). *)
  try exec_reserved st scope ctx stmt
  with Abort_exn _ as e ->
    fill st ctx ~kind:Trace.Kother ~value:Value.Vunit;
    raise e

and exec_reserved st scope ctx stmt =
  let sid = stmt.Ast.sid in
  match stmt.Ast.skind with
  | Ast.Swhile _ -> assert false (* handled by exec_stmt *)
  | Ast.Sdecl (typ, x, init) ->
    let v =
      match init with
      | Some e -> eval st scope ctx e
      | None -> Value.default_of_typ typ
    in
    let v = maybe_value_switch st ctx sid v in
    let cell =
      match scope with
      | Gscope ->
        Hashtbl.replace st.globals x v;
        Cell.Global x
      | Fscope f ->
        Hashtbl.replace f.vars x (ref v);
        Cell.Local (f.fid, x)
    in
    write_cell st ctx cell v;
    fill st ctx ~kind:Trace.Kassign ~value:v
  | Ast.Sassign (x, e) ->
    let v = eval st scope ctx e in
    let v = maybe_value_switch st ctx sid v in
    write_var st ctx scope x v;
    fill st ctx ~kind:Trace.Kassign ~value:v
  | Ast.Sstore (a, idx_expr, e) ->
    let av = use_var st ctx scope a in
    let arr = get_array st (Value.as_array av) in
    let i = Value.as_int (eval st scope ctx idx_expr) in
    check_bounds arr i;
    let v = eval st scope ctx e in
    let v = maybe_value_switch st ctx sid v in
    arr.(i) <- Value.as_int v;
    write_cell st ctx (Cell.Elem (Value.as_array av, i)) v;
    fill st ctx ~kind:Trace.Kassign ~value:v
  | Ast.Sif (cond, then_blk, else_blk) ->
    let b = Value.as_bool (eval st scope ctx cond) in
    let b = maybe_switch st ctx sid b in
    fill st ctx ~kind:(Trace.Kpredicate b) ~value:(Value.Vbool b);
    exec_block st scope ~parent:ctx.idx (if b then then_blk else else_blk)
  | Ast.Sbreak ->
    fill st ctx ~kind:Trace.Kother ~value:Value.Vunit;
    raise Brk
  | Ast.Scontinue ->
    fill st ctx ~kind:Trace.Kother ~value:Value.Vunit;
    raise Cont
  | Ast.Sreturn e_opt ->
    let v =
      match e_opt with Some e -> eval st scope ctx e | None -> Value.Vunit
    in
    let fid = match scope with Fscope f -> f.fid | Gscope -> -1 in
    write_cell st ctx (Cell.Ret fid) v;
    fill st ctx ~kind:Trace.Kreturn ~value:v;
    raise (Ret_exn v)
  | Ast.Sexpr ({ Ast.edesc = Ast.Ecall (fname, _); _ } as e) ->
    let kind =
      if Builtin.of_name fname = Some Builtin.Print then Trace.Koutput
      else Trace.Kcall
    in
    let v = eval st scope ctx e in
    fill st ctx ~kind ~value:v
  | Ast.Sexpr e ->
    let v = eval st scope ctx e in
    fill st ctx ~kind:Trace.Kother ~value:v

and maybe_switch st ctx sid outcome =
  match st.switch with
  | Some { switch_sid; switch_occ }
    when switch_sid = sid && switch_occ = ctx.occ ->
    st.switch_fired <- true;
    not outcome
  | _ -> outcome

and maybe_value_switch st ctx sid value =
  let value =
    if st.chaos_corrupted then value
    else
      match Chaos.corrupt st.chaos ~step:st.steps value with
      | Some v ->
        st.chaos_corrupted <- true;
        v
      | None -> value
  in
  match st.vswitch with
  | Some { vswitch_sid; vswitch_occ; vswitch_value }
    when vswitch_sid = sid && vswitch_occ = ctx.occ ->
    st.switch_fired <- true;
    vswitch_value
  | _ -> value

let run ?switch ?vswitch ?chaos ?(budget = default_budget) ?(tracing = true)
    ?observe prog ~input =
  let funcs = Hashtbl.create 16 in
  List.iter (fun fn -> Hashtbl.replace funcs fn.Ast.fname fn) prog.Ast.funcs;
  let budget = Chaos.budget_cap chaos budget in
  let st =
    {
      funcs;
      globals = Hashtbl.create 16;
      arrays = Hashtbl.create 16;
      next_array = 0;
      next_frame = 0;
      input;
      outputs = Vec.create ~dummy:(-1, 0);
      trace = (if tracing then Some (Trace.create ()) else None);
      tracing;
      count_occ = tracing || switch <> None || vswitch <> None;
      def_tbl = Hashtbl.create 256;
      arr_origin = Hashtbl.create 16;
      occ_tbl = Hashtbl.create 64;
      switch;
      vswitch;
      observe;
      chaos;
      chaos_corrupted = false;
      switch_fired = false;
      steps = 0;
      budget;
    }
  in
  let outcome =
    try
      exec_block st Gscope ~parent:(-1) prog.Ast.globals;
      (match Ast.find_func prog "main" with
      | None -> crash "program has no main function"
      | Some fn ->
        let fid = st.next_frame in
        st.next_frame <- fid + 1;
        let frame = { fid; vars = Hashtbl.create 8 } in
        (try exec_block st (Fscope frame) ~parent:(-1) fn.Ast.fbody
         with Ret_exn _ -> ()));
      Ok ()
    with Abort_exn reason -> Error reason
  in
  (match st.trace with
  | Some tr ->
    let counts = Array.make (1 + Hashtbl.fold (fun sid _ m -> max sid m) st.occ_tbl (-1)) 0 in
    Hashtbl.iter (fun sid n -> counts.(sid) <- n) st.occ_tbl;
    Trace.set_occurrences tr counts
  | None -> ());
  {
    trace = st.trace;
    outputs = Vec.to_list st.outputs;
    outcome;
    steps = st.steps;
    switch_fired = st.switch_fired;
  }
