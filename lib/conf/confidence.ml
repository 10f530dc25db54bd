module Profile = Exom_interp.Profile
module Proginfo = Exom_cfg.Proginfo
module Slice = Exom_ddg.Slice
module Trace = Exom_interp.Trace
module Value = Exom_interp.Value

module Vset = Set.Make (struct
  type t = Value.t

  let compare = compare
end)

(* Confidence analysis (Zhang-Gupta-Gupta, PLDI'06 [19], as used by the
   paper).  Each instance's *alt set* is the set of values it could have
   produced while every correct output (and every instance the user
   marked benign) still observes its value.  Confidence is
   C = 1 - log|alt| / log|range|, with range approximated by the value
   profile: C = 1 means the instance provably produced a correct value
   (prunable), C = 0 means nothing vouches for it.

   Alt sets are propagated backward to a fixpoint:
   - a constrained consumer restricts its producers to the candidate
     values that re-evaluate into the consumer's alt set
     ({!Reval}, concrete one-step re-evaluation);
   - a correct output pins the branch outcomes of its control ancestors
     (its appearance at the aligned position vouches the whole control
     path to it).  Pinning deliberately does NOT flow from arbitrary
     value-pinned instances: an instance can carry a coincidentally
     correct value on a corrupted control path (e.g. a counter's first
     increment), and pinning its ancestors would prune the very
     predicates the demand-driven search must expand;
   - a verified *value-affecting* implicit dependence p -> t pins p's
     outcome once t's value is fully vouched — which is exactly why
     implicit edges, unlike blind potential edges, are safe to
     propagate confidence along (§3.2 of the paper).

   One solver serves both entry points.  [compute] runs it from the
   empty state; [refine] continues from a previous solution with more
   benign marks and implicit edges.  Every rule only intersects alt
   sets, and each is monotone: a smaller alt set for a consumer allows
   fewer values for its producers, and a vouched (singleton) target
   stays vouched.  A previous solution is therefore above the greatest
   fixpoint of the larger constraint set, every rule it does not
   satisfy involves a changed instance or a new edge, and continuing
   the iteration from it reaches exactly that greatest fixpoint. *)

type t = {
  info : Proginfo.t;
  profile : Profile.t;
  trace : Trace.t;
  ranges : Value.t array option array;
      (* memo of each instance's value range, shared by refinements *)
  implicit_preds : int list array;
      (* implicit_preds.(t) = switched predicates verified to reach t *)
  benign : Slice.Iset.t;
  alt : Vset.t option array;
  conf : float array;
}

let confidence t idx = t.conf.(idx)
let alt_set t idx = t.alt.(idx)

let value_range profile inst =
  let sid = inst.Trace.sid in
  match inst.Trace.kind with
  | Trace.Kpredicate _ -> [ Value.Vbool true; Value.Vbool false ]
  | _ -> (
    match inst.Trace.value with
    | Value.Vint _ as v ->
      List.map (fun n -> Value.Vint n)
        (Profile.range profile sid ~observed:v)
    | Value.Vbool _ -> [ Value.Vbool true; Value.Vbool false ]
    | Value.Varr _ | Value.Vunit -> [])

let range t idx =
  match t.ranges.(idx) with
  | Some r -> r
  | None ->
    let r = Array.of_list (value_range t.profile (Trace.get t.trace idx)) in
    t.ranges.(idx) <- Some r;
    r

let vouched alt idx =
  match alt.(idx) with Some s -> Vset.cardinal s <= 1 | None -> false

(* The fixpoint solver: continue from [prev] (whose own constraints
   already hold) after adding [correct] outputs, [benign] marks and
   [implicit] edges.  [prev] is not modified. *)
let solve prev ~correct ~benign ~implicit =
  let trace = prev.trace in
  let n = Trace.length trace in
  let alt = Array.copy prev.alt in
  let implicit_preds = Array.copy prev.implicit_preds in
  let touched = ref [] in
  let queue = Queue.create () in
  let constrain idx set =
    let next =
      match alt.(idx) with None -> set | Some cur -> Vset.inter cur set
    in
    let changed =
      match alt.(idx) with
      | None -> true
      | Some cur -> not (Vset.equal cur next)
    in
    if changed then begin
      alt.(idx) <- Some next;
      touched := idx :: !touched;
      Queue.add idx queue
    end
  in
  let pin_outcome idx =
    match Trace.branch_of (Trace.get trace idx) with
    | Some b -> constrain idx (Vset.singleton (Value.Vbool b))
    | None -> ()
  in
  (* A new edge into an already vouched target pins its predicate now:
     the target will not be dequeued again unless its alt set shrinks. *)
  List.iter
    (fun (p, t_) ->
      if p >= 0 && p < n && t_ >= 0 && t_ < n then begin
        implicit_preds.(t_) <- p :: implicit_preds.(t_);
        if vouched alt t_ then pin_outcome p
      end)
    implicit;
  let observed idx = (Trace.get trace idx).Trace.value in
  List.iter
    (fun o ->
      if o >= 0 && o < n then begin
        constrain o (Vset.singleton (observed o));
        (* the correct output's control path is vouched for *)
        let rec pin_ancestors idx =
          let parent = (Trace.get trace idx).Trace.parent in
          if parent >= 0 then begin
            pin_outcome parent;
            pin_ancestors parent
          end
        in
        pin_ancestors o
      end)
    correct;
  (* Benign instances pin their own value (or outcome), nothing more: a
     benign verdict vouches for the state the programmer inspected, not
     for the control decisions around it — pinning ancestors from benign
     marks lets constraint cascades assign confidence 1 to the very
     predicates the demand-driven search must expand (observed on the
     gzip decoder fault). *)
  let benign = List.filter (fun b -> b >= 0 && b < n) benign in
  List.iter
    (fun b ->
      match observed b with
      | (Value.Vint _ | Value.Vbool _) as v -> constrain b (Vset.singleton v)
      | Value.Varr _ | Value.Vunit -> pin_outcome b)
    benign;
  (* Fixpoint. *)
  let accepts u cell v' =
    let inst = Trace.get trace u in
    let stmt = Proginfo.stmt_of_sid prev.info inst.Trace.sid in
    match Reval.run stmt inst ~cell ~value:v' with
    | Reval.Unknown -> true
    | Reval.Rejected -> false
    | Reval.Known w -> (
      match alt.(u) with None -> true | Some s -> Vset.mem w s)
  in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    (* Only an instance whose value is fully vouched for (singleton alt)
       pins the predicates it was verified to implicitly depend on; a
       weak constraint certifies nothing about branch outcomes. *)
    if vouched alt u then List.iter pin_outcome implicit_preds.(u);
    let inst = Trace.get trace u in
    List.iter
      (fun (cell, def, v) ->
        if def >= 0 && Value.equal (Trace.get trace def).Trace.value v then begin
          (* Only values [def] may still take survive the
             intersection.  Its alt set lies inside its range plus its
             observed value [v]: every seed is an observed value or
             outcome, and every constraint is drawn from the range
             plus [v].  So once constrained, the alt set is the
             candidate list. *)
          let candidates =
            match alt.(def) with
            | Some cur -> Vset.elements cur
            | None -> Array.to_list (range prev def)
          in
          let allowed =
            candidates
            |> List.filter (fun v' -> accepts u cell v')
            |> Vset.of_list
          in
          (* the observed value always qualifies *)
          let allowed = Vset.add v allowed in
          constrain def allowed
        end)
      inst.Trace.uses
  done;
  (* Confidence values, for the instances whose inputs changed. *)
  let t =
    {
      prev with
      implicit_preds;
      benign =
        List.fold_left (fun s b -> Slice.Iset.add b s) prev.benign benign;
      alt;
      conf = Array.copy prev.conf;
    }
  in
  let update i =
    t.conf.(i) <-
      (if Slice.Iset.mem i t.benign then 1.0
       else
         match alt.(i) with
         | None -> 0.0
         | Some s ->
           let k = Vset.cardinal s in
           if k <= 1 then 1.0
           else
             let r = max (Array.length (range t i)) k in
             if r <= 1 then 1.0
             else
               max 0.0
                 (1.0 -. (log (float_of_int k) /. log (float_of_int r))))
  in
  List.iter update !touched;
  List.iter update benign;
  t

let compute info profile trace ~correct ~benign ~implicit =
  let n = Trace.length trace in
  let empty =
    {
      info;
      profile;
      trace;
      ranges = Array.make n None;
      implicit_preds = Array.make n [];
      benign = Slice.Iset.empty;
      alt = Array.make n None;
      conf = Array.make n 0.0;
    }
  in
  solve empty ~correct ~benign ~implicit

let refine prev ~benign ~implicit = solve prev ~correct:[] ~benign ~implicit
