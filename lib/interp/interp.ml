module Ast = Exom_lang.Ast
module Builtin = Exom_lang.Builtin
module Vec = Exom_util.Vec
module Obs = Exom_obs.Obs

type switch_spec = { switch_sid : int; switch_occ : int }

(* Value perturbation (§5 of the paper): override the value produced by
   the [vswitch_occ]-th execution of assignment [vswitch_sid] — the
   alternative to branch switching for nested predicates that test the
   same definition, at the price of an integer- rather than binary-
   domain search. *)
type value_switch_spec = {
  vswitch_sid : int;
  vswitch_occ : int;
  vswitch_value : Value.t;
}

type abort = Budget_exhausted | Crashed of string

type run = {
  trace : Trace.t option;
  outputs : (int * int) list;
  outcome : (unit, abort) result;
  steps : int;
  switch_fired : bool;
}

exception Brk
exception Cont
exception Ret_exn of Value.t
exception Abort_exn of abort

let default_budget = 2_000_000

let crash fmt = Fmt.kstr (fun msg -> raise (Abort_exn (Crashed msg))) fmt

let vtrue = Value.Vbool true
let vfalse = Value.Vbool false
let of_bool b = if b then vtrue else vfalse

(* {1 Run state} *)

(* [Sharing]: tracing, but still taking the prefix's records over;
   [Recording]: tracing and building records. *)
type mode = Untraced | Sharing | Recording

(* Per-statement-instance recording context.  A context reserved while
   sharing only counts its uses and defs: what it read and wrote so far
   is the head of its prefix record's lists, which [fill] takes if the
   instance outlives the sharing. *)
type ictx = {
  idx : int;  (* -1 when tracing is off *)
  shared : bool;  (* reserved while sharing *)
  mutable uses : (Cell.t * int * Value.t) list;  (* reversed *)
  mutable defs : (Cell.t * Value.t) list;  (* reversed *)
  mutable nuses : int;  (* counted while sharing *)
  mutable ndefs : int;
}

(* The one context of an untraced run: nothing is ever written to it. *)
let untraced_ctx =
  { idx = -1; shared = false; uses = []; defs = []; nuses = 0; ndefs = 0 }

(* A stack frame: one slot per local, with the instance that last
   defined it beside the value when tracing. *)
type frame = {
  fid : int;
  vals : Value.t array;
  ldefs : int array;  (* [||] when tracing is off *)
  mutable ret_def : int;  (* the return instance, for the [Ret fid] cell *)
}

(* An MCL array, with the last defining instance of each element beside
   it when tracing (-1: none yet, the allocation defined it). *)
type arr = {
  cells : int array;
  edefs : int array;  (* [||] when tracing is off *)
  origin : int;  (* the allocating instance *)
}

type state = {
  gvals : Value.t array;
  gset : bool array;  (* initialized yet? *)
  gdefs : int array;
  mutable heap : arr array;  (* by array id *)
  mutable narrays : int;
  mutable next_frame : int;
  mutable input : int list;
  outputs : (int * int) Vec.t;  (* instance idx (-1 when untraced), value *)
  trace : Trace.t option;
  mutable mode : mode;
  prefix : Trace.t option;  (* the records shared while [Sharing] *)
  share_len : int;
  mutable next_idx : int;  (* records taken over so far *)
  occ : int array;  (* sid -> executions so far *)
  switch : switch_spec option;
  vswitch : value_switch_spec option;
  observe : (int -> Trace.ikind -> Value.t -> unit) option;
  chaos : Chaos.t option;
  mutable chaos_corrupted : bool;  (* Corrupt_value fires once per run *)
  mutable switch_fired : bool;
  mutable steps : int;
  budget : int;
}

(* Leave shared mode: take over the prefix's first [next_idx] records —
   every instance reserved so far.  A record still open here (the
   switched predicate, or a statement whose call is running) is
   replaced by a fresh one when it is filled. *)
let end_sharing st =
  match (st.mode, st.trace, st.prefix) with
  | Sharing, Some tr, Some prefix ->
    st.mode <- Recording;
    Trace.share_prefix tr ~prefix st.next_idx
  | _ -> ()

(* One executed statement instance: the step, the budget, chaos, and
   the occurrence number it returns. *)
let tick st sid =
  let steps = st.steps + 1 in
  st.steps <- steps;
  if steps > st.budget then raise (Abort_exn Budget_exhausted);
  (match st.chaos with
  | None -> ()
  | Some _ -> (
    match Chaos.action st.chaos ~step:steps with
    | `Continue -> ()
    | `Crash msg -> raise (Abort_exn (Crashed msg))));
  let occ = st.occ.(sid) + 1 in
  st.occ.(sid) <- occ;
  occ
[@@inline]

let fresh_ctx idx shared =
  { idx; shared; uses = []; defs = []; nuses = 0; ndefs = 0 }
[@@inline]

let recording_ctx st ~sid ~occ ~parent =
  match st.trace with
  | Some tr -> fresh_ctx (Trace.reserve tr ~sid ~occ ~parent) false
  | None -> untraced_ctx

let open_ctx st ~sid ~occ ~parent =
  match st.mode with
  | Untraced -> untraced_ctx
  | Recording -> recording_ctx st ~sid ~occ ~parent
  | Sharing ->
    let idx = st.next_idx in
    if idx < st.share_len then begin
      st.next_idx <- idx + 1;
      fresh_ctx idx true
    end
    else begin
      end_sharing st;
      recording_ctx st ~sid ~occ ~parent
    end

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let record st ctx kind value =
  match st.trace with
  | Some tr ->
    let uses, defs =
      if ctx.shared then
        (* the slot holds the prefix's record, or one filled since from
           it: either way its lists begin with what was counted *)
        let r = Trace.get tr ctx.idx in
        ( take ctx.nuses r.Trace.uses @ List.rev ctx.uses,
          take ctx.ndefs r.Trace.defs @ List.rev ctx.defs )
      else (List.rev ctx.uses, List.rev ctx.defs)
    in
    Trace.fill tr ctx.idx ~kind ~uses ~defs ~value
  | None -> ()

let fill st ctx sid kind value =
  (match st.observe with None -> () | Some f -> f sid kind value);
  match st.mode with Recording -> record st ctx kind value | _ -> ()
[@@inline]

(* An abort inside an [if]'s branch refills the [if]'s record as
   [Kother]: a prefix cut short by a crash or its budget holds such
   records for the [if]s around the cut.  A shared [if] whose branch
   is left other than by an abort after the sharing ended puts back
   the predicate record (without a second [observe] call: the instance
   was filled once). *)
let restore st ctx b =
  match (st.mode, st.trace) with
  | Recording, Some tr ->
    let r = Trace.get tr ctx.idx in
    if r.Trace.kind = Trace.Kother then
      Trace.fill tr ctx.idx ~kind:(Trace.Kpredicate b) ~uses:r.Trace.uses
        ~defs:r.Trace.defs ~value:(of_bool b)
  | _ -> ()

(* {2 Uses and defs} — nothing in an untraced run, counts while
   sharing, list entries when recording; the def arrays are kept in
   both traced modes. *)

let use_local st ctx fr slot x v =
  match st.mode with
  | Untraced -> ()
  | Sharing -> ctx.nuses <- ctx.nuses + 1
  | Recording ->
    ctx.uses <- (Cell.Local (fr.fid, x), fr.ldefs.(slot), v) :: ctx.uses
[@@inline]

let use_global st ctx g cell v =
  match st.mode with
  | Untraced -> ()
  | Sharing -> ctx.nuses <- ctx.nuses + 1
  | Recording -> ctx.uses <- (cell, st.gdefs.(g), v) :: ctx.uses
[@@inline]

(* An element never stored to (or the pseudo length cell [Elem (id,
   -1)]) was defined by the allocation. *)
let elem_def a i =
  let d = if i < 0 then -1 else a.edefs.(i) in
  if d >= 0 then d else a.origin

let use_elem st ctx id a i n =
  match st.mode with
  | Untraced -> ()
  | Sharing -> ctx.nuses <- ctx.nuses + 1
  | Recording ->
    ctx.uses <- (Cell.Elem (id, i), elem_def a i, Value.Vint n) :: ctx.uses
[@@inline]

let def_local st ctx fr slot x v =
  match st.mode with
  | Untraced -> ()
  | Sharing ->
    fr.ldefs.(slot) <- ctx.idx;
    ctx.ndefs <- ctx.ndefs + 1
  | Recording ->
    fr.ldefs.(slot) <- ctx.idx;
    ctx.defs <- (Cell.Local (fr.fid, x), v) :: ctx.defs
[@@inline]

let def_global st ctx g cell v =
  match st.mode with
  | Untraced -> ()
  | Sharing ->
    st.gdefs.(g) <- ctx.idx;
    ctx.ndefs <- ctx.ndefs + 1
  | Recording ->
    st.gdefs.(g) <- ctx.idx;
    ctx.defs <- (cell, v) :: ctx.defs
[@@inline]

let def_elem st ctx id a i v =
  match st.mode with
  | Untraced -> ()
  | Sharing ->
    a.edefs.(i) <- ctx.idx;
    ctx.ndefs <- ctx.ndefs + 1
  | Recording ->
    a.edefs.(i) <- ctx.idx;
    ctx.defs <- (Cell.Elem (id, i), v) :: ctx.defs
[@@inline]

let def_ret st ctx fr v =
  match st.mode with
  | Untraced -> ()
  | Sharing ->
    fr.ret_def <- ctx.idx;
    ctx.ndefs <- ctx.ndefs + 1
  | Recording ->
    fr.ret_def <- ctx.idx;
    ctx.defs <- (Cell.Ret fr.fid, v) :: ctx.defs
[@@inline]

let use_ret st ctx fr v =
  match st.mode with
  | Untraced -> ()
  | Sharing -> ctx.nuses <- ctx.nuses + 1
  | Recording -> ctx.uses <- (Cell.Ret fr.fid, fr.ret_def, v) :: ctx.uses
[@@inline]

let get_array st id =
  if id < 0 then crash "null array dereference";
  if id >= st.narrays then crash "unknown array #%d" id;
  Array.unsafe_get st.heap id

let check_bounds a i =
  let n = Array.length a.cells in
  if i < 0 || i >= n then crash "array index %d out of bounds [0, %d)" i n

let alloc_array st a =
  let id = st.narrays in
  if id = Array.length st.heap then begin
    let heap = Array.make (max 8 (2 * id)) a in
    Array.blit st.heap 0 heap 0 id;
    st.heap <- heap
  end;
  Array.unsafe_set st.heap id a;
  st.narrays <- id + 1;
  id

let maybe_switch st sid occ outcome =
  match st.switch with
  | Some { switch_sid; switch_occ } when switch_sid = sid && switch_occ = occ
    ->
    st.switch_fired <- true;
    end_sharing st;
    not outcome
  | _ -> outcome

let maybe_value_switch st sid occ value =
  let value =
    match st.chaos with
    | Some _ when not st.chaos_corrupted -> (
      match Chaos.corrupt st.chaos ~step:st.steps value with
      | Some v ->
        st.chaos_corrupted <- true;
        v
      | None -> value)
    | _ -> value
  in
  match st.vswitch with
  | Some { vswitch_sid; vswitch_occ; vswitch_value }
    when vswitch_sid = sid && vswitch_occ = occ ->
    st.switch_fired <- true;
    end_sharing st;
    vswitch_value
  | _ -> value

(* {1 The compiled program} *)

type cexpr = state -> frame -> ictx -> Value.t
type cstmt = state -> frame -> int -> unit  (* the int: control parent *)

type func = {
  new_vals : unit -> Value.t array;
      (* a fresh frame's slots: parameters first, then every local the
         body declares *)
  new_defs : unit -> int array;  (* and their last definitions *)
  pnames : string array;
  mutable body : cstmt array;  (* set once, by [compile] (recursion) *)
}

(* Frames of up to 8 slots are allocated inline rather than by
   [Array.make], a C call. *)
let new_vals n : unit -> Value.t array =
  let u = Value.Vunit in
  match n with
  | 0 -> fun () -> [||]
  | 1 -> fun () -> [| u |]
  | 2 -> fun () -> [| u; u |]
  | 3 -> fun () -> [| u; u; u |]
  | 4 -> fun () -> [| u; u; u; u |]
  | 5 -> fun () -> [| u; u; u; u; u |]
  | 6 -> fun () -> [| u; u; u; u; u; u |]
  | 7 -> fun () -> [| u; u; u; u; u; u; u |]
  | 8 -> fun () -> [| u; u; u; u; u; u; u; u |]
  | n -> fun () -> Array.make n u

let new_defs n : unit -> int array =
  match n with
  | 0 -> fun () -> [||]
  | 1 -> fun () -> [| -1 |]
  | 2 -> fun () -> [| -1; -1 |]
  | 3 -> fun () -> [| -1; -1; -1 |]
  | 4 -> fun () -> [| -1; -1; -1; -1 |]
  | 5 -> fun () -> [| -1; -1; -1; -1; -1 |]
  | 6 -> fun () -> [| -1; -1; -1; -1; -1; -1 |]
  | 7 -> fun () -> [| -1; -1; -1; -1; -1; -1; -1 |]
  | 8 -> fun () -> [| -1; -1; -1; -1; -1; -1; -1; -1 |]
  | n -> fun () -> Array.make n (-1)

type program = {
  ginit : cstmt array;  (* global initializers *)
  main : func option;
  nglobals : int;
  nsids : int;  (* one past the largest sid *)
}

let exec_block body st fr parent =
  for i = 0 to Array.length body - 1 do
    (Array.unsafe_get body i) st fr parent
  done

let value_eq a b =
  match (a, b) with
  | Value.Vint x, Value.Vint y -> x = y
  | Value.Vbool x, Value.Vbool y -> x = y
  | _ -> Value.equal a b

(* Where a name lives.  MCL forbids shadowing, so in a function a name
   is one of its locals (parameters and declarations anywhere in the
   body) or else a global; at top level it is a global. *)
type var = Local of int | Global of int * Cell.t

(* Compile-time name tables, keyed without polymorphic compare. *)
module Names = Hashtbl.Make (String)

type env = {
  locals : int Names.t;
  globals : int Names.t;  (* grows while compiling *)
  funcs : func Names.t;
}

let resolve env x =
  match Names.find_opt env.locals x with
  | Some slot -> Local slot
  | None ->
    let g =
      match Names.find_opt env.globals x with
      | Some g -> g
      | None ->
        let g = Names.length env.globals in
        Names.replace env.globals x g;
        g
    in
    Global (g, Cell.Global x)

let compile_read env x : cexpr =
  match resolve env x with
  | Local slot ->
    fun st fr ctx ->
      let v = Array.unsafe_get fr.vals slot in
      use_local st ctx fr slot x v;
      v
  | Global (g, cell) ->
    fun st _ ctx ->
      if not st.gset.(g) then crash "variable '%s' read before initialization" x;
      let v = st.gvals.(g) in
      use_global st ctx g cell v;
      v

let compile_write env x : state -> frame -> ictx -> Value.t -> unit =
  match resolve env x with
  | Local slot ->
    fun st fr ctx v ->
      Array.unsafe_set fr.vals slot v;
      def_local st ctx fr slot x v
  | Global (g, cell) ->
    fun st _ ctx v ->
      st.gvals.(g) <- v;
      st.gset.(g) <- true;
      def_global st ctx g cell v

let as_int = function Value.Vint n -> n | v -> Value.as_int v [@@inline]
let as_bool = function Value.Vbool b -> b | v -> Value.as_bool v [@@inline]

(* Expressions compile three ways, by the type their context needs:
   [compile_int] and [compile_bool] return unboxed results, so that a
   value is boxed only where it is stored, printed, passed or traced.
   Operands are always evaluated left to right. *)

(* Syntactically an int: an [==] with such an operand compares
   unboxed. *)
let is_int e =
  match e.Ast.edesc with
  | Ast.Eint _ | Ast.Eindex _ | Ast.Eunop (Ast.Neg, _)
  | Ast.Ebinop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod), _, _) ->
    true
  | Ast.Ecall (f, _) -> (
    match Builtin.of_name f with
    | Some (Builtin.Input | Builtin.Len) -> true
    | _ -> false)
  | _ -> false

let rec compile_expr env expr : cexpr =
  match expr.Ast.edesc with
  | Ast.Eint n ->
    let v = Value.Vint n in
    fun _ _ _ -> v
  | Ast.Ebool b ->
    let v = of_bool b in
    fun _ _ _ -> v
  | Ast.Evar x -> compile_read env x
  | Ast.Eindex _ | Ast.Eunop (Ast.Neg, _)
  | Ast.Ebinop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod), _, _) ->
    let i = compile_int env expr in
    fun st fr ctx -> Value.Vint (i st fr ctx)
  | Ast.Eunop (Ast.Not, _) | Ast.Ebinop _ ->
    let b = compile_bool env expr in
    fun st fr ctx -> of_bool (b st fr ctx)
  | Ast.Ecall (fname, args) -> compile_call env fname args

and compile_int env expr : state -> frame -> ictx -> int =
  match expr.Ast.edesc with
  | Ast.Eint n -> fun _ _ _ -> n
  | Ast.Evar x -> (
    match resolve env x with
    | Local slot ->
      fun st fr ctx ->
        let v = Array.unsafe_get fr.vals slot in
        use_local st ctx fr slot x v;
        as_int v
    | Global _ ->
      let e = compile_read env x in
      fun st fr ctx -> as_int (e st fr ctx))
  | Ast.Eindex (a, i) ->
    let a = compile_read env a and i = compile_int env i in
    fun st fr ctx ->
      let id = Value.as_array (a st fr ctx) in
      let arr = get_array st id in
      let i = i st fr ctx in
      check_bounds arr i;
      let n = Array.unsafe_get arr.cells i in
      use_elem st ctx id arr i n;
      n
  | Ast.Eunop (Ast.Neg, e) ->
    let e = compile_int env e in
    fun st fr ctx -> -e st fr ctx
  | Ast.Ebinop (Ast.Add, a, b) ->
    let a = compile_int env a and b = compile_int env b in
    fun st fr ctx ->
      let x = a st fr ctx in
      x + b st fr ctx
  | Ast.Ebinop (Ast.Sub, a, b) ->
    let a = compile_int env a and b = compile_int env b in
    fun st fr ctx ->
      let x = a st fr ctx in
      x - b st fr ctx
  | Ast.Ebinop (Ast.Mul, a, b) ->
    let a = compile_int env a and b = compile_int env b in
    fun st fr ctx ->
      let x = a st fr ctx in
      x * b st fr ctx
  | Ast.Ebinop (Ast.Div, a, b) ->
    let a = compile_int env a and b = compile_int env b in
    fun st fr ctx ->
      let x = a st fr ctx in
      let d = b st fr ctx in
      if d = 0 then crash "division by zero";
      x / d
  | Ast.Ebinop (Ast.Mod, a, b) ->
    let a = compile_int env a and b = compile_int env b in
    fun st fr ctx ->
      let x = a st fr ctx in
      let d = b st fr ctx in
      if d = 0 then crash "modulo by zero";
      x mod d
  | _ ->
    let e = compile_expr env expr in
    fun st fr ctx -> as_int (e st fr ctx)

and compile_bool env expr : state -> frame -> ictx -> bool =
  let ints a b = (compile_int env a, compile_int env b) in
  match expr.Ast.edesc with
  | Ast.Ebool b -> fun _ _ _ -> b
  | Ast.Eunop (Ast.Not, e) ->
    let e = compile_bool env e in
    fun st fr ctx -> not (e st fr ctx)
  | Ast.Ebinop (Ast.And, a, b) ->
    let a = compile_bool env a and b = compile_bool env b in
    fun st fr ctx -> a st fr ctx && b st fr ctx
  | Ast.Ebinop (Ast.Or, a, b) ->
    let a = compile_bool env a and b = compile_bool env b in
    fun st fr ctx -> a st fr ctx || b st fr ctx
  | Ast.Ebinop (Ast.Lt, a, b) ->
    let a, b = ints a b in
    fun st fr ctx ->
      let x = a st fr ctx in
      x < b st fr ctx
  | Ast.Ebinop (Ast.Le, a, b) ->
    let a, b = ints a b in
    fun st fr ctx ->
      let x = a st fr ctx in
      x <= b st fr ctx
  | Ast.Ebinop (Ast.Gt, a, b) ->
    let a, b = ints a b in
    fun st fr ctx ->
      let x = a st fr ctx in
      x > b st fr ctx
  | Ast.Ebinop (Ast.Ge, a, b) ->
    let a, b = ints a b in
    fun st fr ctx ->
      let x = a st fr ctx in
      x >= b st fr ctx
  | Ast.Ebinop (((Ast.Eq | Ast.Ne) as op), a, b) ->
    let eq =
      if is_int a || is_int b then
        let a, b = ints a b in
        fun st fr ctx ->
          let x = a st fr ctx in
          x = b st fr ctx
      else
        let a = compile_expr env a and b = compile_expr env b in
        fun st fr ctx ->
          let x = a st fr ctx in
          value_eq x (b st fr ctx)
    in
    if op = Ast.Eq then eq else fun st fr ctx -> not (eq st fr ctx)
  | _ ->
    let e = compile_expr env expr in
    fun st fr ctx -> as_bool (e st fr ctx)

and compile_call env fname args : cexpr =
  match Builtin.of_name fname with
  | Some Builtin.Input ->
    fun st _ _ -> (
      match st.input with
      | [] -> crash "input exhausted"
      | n :: rest ->
        st.input <- rest;
        Value.Vint n)
  | Some Builtin.New_array ->
    let e = compile_int env (List.hd args) in
    fun st fr ctx ->
      let n = e st fr ctx in
      if n < 0 then crash "new_array with negative size %d" n;
      let edefs =
        match st.mode with
        | Untraced -> [||]
        | Sharing | Recording -> Array.make n (-1)
      in
      Value.Varr
        (alloc_array st { cells = Array.make n 0; edefs; origin = ctx.idx })
  | Some Builtin.Len ->
    let e = compile_expr env (List.hd args) in
    fun st fr ctx ->
      let id = Value.as_array (e st fr ctx) in
      let arr = get_array st id in
      let n = Array.length arr.cells in
      (* the length flowed from the allocation: the pseudo cell *)
      use_elem st ctx id arr (-1) n;
      Value.Vint n
  | Some Builtin.Print ->
    (* Returns the printed value, which only the [Sexpr] case observes,
       as the output instance's principal value. *)
    let e = compile_expr env (List.hd args) in
    fun st fr ctx ->
      let v = e st fr ctx in
      Vec.push st.outputs (ctx.idx, as_int v);
      v
  | None -> (
    match Names.find_opt env.funcs fname with
    | None -> fun _ _ _ -> crash "unknown function '%s'" fname
    | Some f ->
      let args = Array.of_list (List.map (compile_expr env) args) in
      fun st fr ctx ->
        let vals = f.new_vals () in
        for i = 0 to Array.length args - 1 do
          vals.(i) <- args.(i) st fr ctx
        done;
        let fid = st.next_frame in
        st.next_frame <- fid + 1;
        let ldefs =
          match st.mode with
          | Untraced -> [||]
          | Sharing | Recording -> f.new_defs ()
        in
        let callee = { fid; vals; ldefs; ret_def = -1 } in
        (* the parameters are defined by the calling instance *)
        for i = 0 to Array.length args - 1 do
          def_local st ctx callee i f.pnames.(i) vals.(i)
        done;
        match exec_block f.body st callee ctx.idx with
        | () -> Value.Vunit  (* fell off the end of a void function *)
        | exception Ret_exn v ->
          (* the caller's use points at the return instance *)
          use_ret st ctx callee v;
          v)

(* A statement other than a loop: one instance, filled as [Kother] if
   a crash or the budget cuts it short, with what it read so far — the
   crash point anchors slicing in crash-failure sessions. *)
let simple sid (body : state -> frame -> ictx -> int -> unit) : cstmt =
 fun st fr parent ->
  let occ = tick st sid in
  let ctx =
    match st.mode with
    | Untraced -> untraced_ctx
    | _ -> open_ctx st ~sid ~occ ~parent
  in
  try body st fr ctx occ
  with Abort_exn _ as e ->
    end_sharing st;
    fill st ctx sid Trace.Kother Value.Vunit;
    raise e

let rec compile_block env block : cstmt array =
  Array.of_list (List.map (compile_stmt env) block)

and compile_stmt env stmt : cstmt =
  let sid = stmt.Ast.sid in
  match stmt.Ast.skind with
  | Ast.Swhile (cond, body) ->
    let cond = compile_bool env cond and body = compile_block env body in
    (* Each evaluation of the loop predicate is its own instance; the
       first nests under the enclosing region and each subsequent one
       under its predecessor, so one loop entry forms one region
       (Definition 3 / Figure 2 of the paper). *)
    let rec iterate st fr pred_parent =
      let occ = tick st sid in
      let pctx = open_ctx st ~sid ~occ ~parent:pred_parent in
      let b =
        try cond st fr pctx
        with Abort_exn _ as e ->
          end_sharing st;
          Option.iter (fun tr -> Trace.abandon tr pctx.idx) st.trace;
          raise e
      in
      let b = maybe_switch st sid occ b in
      fill st pctx sid (Trace.Kpredicate b) (of_bool b);
      if b then begin
        (try exec_block body st fr pctx.idx with Cont -> ());
        iterate st fr pctx.idx
      end
    in
    fun st fr parent -> ( try iterate st fr parent with Brk -> ())
  | Ast.Sdecl (typ, x, init) ->
    let init =
      match init with
      | Some e -> compile_expr env e
      | None ->
        let v = Value.default_of_typ typ in
        fun _ _ _ -> v
    in
    let write = compile_write env x in
    simple sid (fun st fr ctx occ ->
        let v = maybe_value_switch st sid occ (init st fr ctx) in
        write st fr ctx v;
        fill st ctx sid Trace.Kassign v)
  | Ast.Sassign (x, e) ->
    let e = compile_expr env e and write = compile_write env x in
    simple sid (fun st fr ctx occ ->
        let v = maybe_value_switch st sid occ (e st fr ctx) in
        write st fr ctx v;
        fill st ctx sid Trace.Kassign v)
  | Ast.Sstore (a, i, e) ->
    let a = compile_read env a
    and i = compile_int env i
    and e = compile_expr env e in
    simple sid (fun st fr ctx occ ->
        let id = Value.as_array (a st fr ctx) in
        let arr = get_array st id in
        let i = i st fr ctx in
        check_bounds arr i;
        let v = maybe_value_switch st sid occ (e st fr ctx) in
        Array.unsafe_set arr.cells i (as_int v);
        def_elem st ctx id arr i v;
        fill st ctx sid Trace.Kassign v)
  | Ast.Sif (cond, then_blk, else_blk) ->
    let cond = compile_bool env cond
    and then_blk = compile_block env then_blk
    and else_blk = compile_block env else_blk in
    simple sid (fun st fr ctx occ ->
        let b = maybe_switch st sid occ (cond st fr ctx) in
        fill st ctx sid (Trace.Kpredicate b) (of_bool b);
        let blk = if b then then_blk else else_blk in
        if not ctx.shared then exec_block blk st fr ctx.idx
        else
          (* the branch may leave by [break], [continue] or [return] *)
          match exec_block blk st fr ctx.idx with
          | () -> restore st ctx b
          | exception ((Brk | Cont | Ret_exn _) as e) ->
            restore st ctx b;
            raise e)
  | Ast.Sbreak ->
    simple sid (fun st _ ctx _ ->
        fill st ctx sid Trace.Kother Value.Vunit;
        raise Brk)
  | Ast.Scontinue ->
    simple sid (fun st _ ctx _ ->
        fill st ctx sid Trace.Kother Value.Vunit;
        raise Cont)
  | Ast.Sreturn e ->
    let e =
      match e with
      | Some e -> compile_expr env e
      | None -> fun _ _ _ -> Value.Vunit
    in
    simple sid (fun st fr ctx _ ->
        let v = e st fr ctx in
        def_ret st ctx fr v;
        fill st ctx sid Trace.Kreturn v;
        raise (Ret_exn v))
  | Ast.Sexpr e ->
    let kind =
      match e.Ast.edesc with
      | Ast.Ecall (fname, _) ->
        if Builtin.of_name fname = Some Builtin.Print then Trace.Koutput
        else Trace.Kcall
      | _ -> Trace.Kother
    in
    let e = compile_expr env e in
    simple sid (fun st fr ctx _ -> fill st ctx sid kind (e st fr ctx))

let compile_uninstrumented prog =
  let globals = Names.create 16 and funcs = Names.create 16 in
  let nsids = ref 0 in
  Ast.iter_program (fun s -> nsids := max !nsids (s.Ast.sid + 1)) prog;
  (* slots of each function, then bodies: a call site refers to its
     callee's record, whose body may not be compiled yet *)
  let compiled =
    List.map
      (fun fn ->
        let locals = Names.create 8 in
        let add x =
          if not (Names.mem locals x) then
            Names.replace locals x (Names.length locals)
        in
        List.iter (fun (_, x) -> add x) fn.Ast.fparams;
        Ast.iter_stmts
          (fun s ->
            match s.Ast.skind with Ast.Sdecl (_, x, _) -> add x | _ -> ())
          fn.Ast.fbody;
        let nslots = Names.length locals in
        let f =
          {
            new_vals = new_vals nslots;
            new_defs = new_defs nslots;
            pnames = Array.of_list (List.map snd fn.Ast.fparams);
            body = [||];
          }
        in
        Names.replace funcs fn.Ast.fname f;
        (fn, f, locals))
      prog.Ast.funcs
  in
  List.iter
    (fun (fn, f, locals) ->
      f.body <- compile_block { locals; globals; funcs } fn.Ast.fbody)
    compiled;
  let ginit =
    compile_block { locals = Names.create 1; globals; funcs } prog.Ast.globals
  in
  {
    ginit;
    main = Names.find_opt funcs "main";
    nglobals = Names.length globals;
    nsids = !nsids;
  }

let compile ?obs prog =
  match obs with
  | None -> compile_uninstrumented prog
  | Some obs ->
    Obs.incr obs "interp.compiles";
    Obs.with_span obs ~cat:"interp" "interp.compile" (fun () ->
        compile_uninstrumented prog)

(* {1 Running} *)

(* Returns the run and the number of records it took over from
   [prefix]. *)
let exec_uninstrumented ?switch ?vswitch ?chaos ?(budget = default_budget)
    ?(tracing = true) ?prefix ?observe code ~input =
  let mode =
    match (tracing, chaos, prefix) with
    | false, _, _ -> Untraced
    (* chaos acts by step number, so its run may leave the prefix
       anywhere *)
    | true, None, Some _ -> Sharing
    | true, _, _ -> Recording
  in
  let st =
    {
      gvals = Array.make code.nglobals Value.Vunit;
      gset = Array.make code.nglobals false;
      gdefs = Array.make code.nglobals (-1);
      heap = [||];
      narrays = 0;
      next_frame = 0;
      input;
      outputs = Vec.create ~dummy:(-1, 0);
      trace = (if tracing then Some (Trace.create ()) else None);
      mode;
      prefix = (if mode = Sharing then prefix else None);
      share_len = (match prefix with Some p -> Trace.shareable p | None -> 0);
      next_idx = 0;
      occ = Array.make code.nsids 0;
      switch;
      vswitch;
      observe;
      chaos;
      chaos_corrupted = false;
      switch_fired = false;
      steps = 0;
      budget = Chaos.budget_cap chaos budget;
    }
  in
  let top = { fid = -1; vals = [||]; ldefs = [||]; ret_def = -1 } in
  let outcome =
    try
      exec_block code.ginit st top (-1);
      (match code.main with
      | None -> crash "program has no main function"
      | Some f ->
        let fid = st.next_frame in
        st.next_frame <- fid + 1;
        let ldefs = if tracing then f.new_defs () else [||] in
        let frame = { fid; vals = f.new_vals (); ldefs; ret_def = -1 } in
        (try exec_block f.body st frame (-1) with Ret_exn _ -> ()));
      Ok ()
    with Abort_exn reason -> Error reason
  in
  end_sharing st;
  Option.iter (fun tr -> Trace.set_occurrences tr st.occ) st.trace;
  ( {
      trace = st.trace;
      outputs = Vec.to_list st.outputs;
      outcome;
      steps = st.steps;
      switch_fired = st.switch_fired;
    },
    st.next_idx )

(* Observability wrapper.  Nothing is recorded per interpreter step —
   the run reports its totals exactly once, on completion, so the hot
   path is identical with and without [obs]. *)
let exec ?obs ?switch ?vswitch ?chaos ?budget ?tracing ?prefix ?observe code
    ~input =
  let go () =
    exec_uninstrumented ?switch ?vswitch ?chaos ?budget ?tracing ?prefix
      ?observe code ~input
  in
  match obs with
  | None -> fst (go ())
  | Some obs ->
    let r, shared = Obs.with_span obs ~cat:"interp" "interp.run" go in
    Obs.incr obs "interp.runs";
    Obs.add obs "interp.steps" r.steps;
    (match r.trace with
    | Some tr ->
      Obs.add obs "interp.trace_records" (Trace.length tr);
      Obs.add obs "interp.shared_records" shared
    | None -> ());
    r

let run ?obs ?switch ?vswitch ?chaos ?budget ?tracing ?prefix ?observe prog
    ~input =
  exec ?obs ?switch ?vswitch ?chaos ?budget ?tracing ?prefix ?observe
    (compile ?obs prog) ~input

let output_values (r : run) = List.map snd r.outputs
