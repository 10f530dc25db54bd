module Vec = Exom_util.Vec

type ikind =
  | Kassign
  | Kpredicate of bool
  | Koutput
  | Kcall
  | Kreturn
  | Kother

type instance = {
  idx : int;
  sid : int;
  occ : int;
  parent : int;
  kind : ikind;
  uses : (Cell.t * int * Value.t) list;
  defs : (Cell.t * Value.t) list;
  value : Value.t;
}

let dummy_instance =
  { idx = -1; sid = -1; occ = 0; parent = -1; kind = Kother; uses = [];
    defs = []; value = Value.Vunit }

type t = {
  instances : instance Vec.t;
  mutable occ_counts : int array;  (* sid -> instances; set once per run *)
  mutable abandoned : int;  (* first record an abort left empty, or max_int *)
}

let create () =
  { instances = Vec.create ~dummy:dummy_instance; occ_counts = [||];
    abandoned = max_int }

let length t = Vec.length t.instances

let get t idx = Vec.get t.instances idx

let reserve t ~sid ~occ ~parent =
  let idx = Vec.length t.instances in
  Vec.push t.instances
    { idx; sid; occ; parent; kind = Kother; uses = []; defs = [];
      value = Value.Vunit };
  idx

(* A slot is replaced, never mutated: its record may be shared with
   another trace (see [share_prefix]). *)
let fill t idx ~kind ~uses ~defs ~value =
  let inst = Vec.get t.instances idx in
  Vec.set t.instances idx { inst with kind; uses; defs; value }

let abandon t idx =
  fill t idx ~kind:Kother ~uses:[] ~defs:[] ~value:Value.Vunit;
  t.abandoned <- min t.abandoned idx

let shareable t = min (length t) t.abandoned

let share_prefix t ~prefix n =
  assert (length t = 0 && n <= shareable prefix);
  Vec.append_prefix t.instances prefix.instances n

let set_occurrences t counts = t.occ_counts <- counts

(* A trace built record by record (a parsed dump) counts its
   occurrences from the records: an instance's [occ] is the number of
   instances of its sid up to and including it. *)
let recount t =
  let n = Vec.fold_left (fun n i -> max n (i.sid + 1)) 0 t.instances in
  let counts = Array.make n 0 in
  Vec.iter
    (fun i -> if i.sid >= 0 then counts.(i.sid) <- max counts.(i.sid) i.occ)
    t.instances;
  t.occ_counts <- counts

let sid_range t = Array.length t.occ_counts

let occurrences t sid =
  if sid >= 0 && sid < Array.length t.occ_counts then t.occ_counts.(sid) else 0

let iter f t = Vec.iter f t.instances

let find_instance t ~sid ~occ =
  Vec.find_opt (fun i -> i.sid = sid && i.occ = occ) t.instances

let is_predicate inst =
  match inst.kind with Kpredicate _ -> true | _ -> false

let branch_of inst =
  match inst.kind with Kpredicate b -> Some b | _ -> None

let pp_instance ppf inst =
  let kind =
    match inst.kind with
    | Kassign -> "assign"
    | Kpredicate b -> Printf.sprintf "pred(%b)" b
    | Koutput -> "output"
    | Kcall -> "call"
    | Kreturn -> "return"
    | Kother -> "other"
  in
  Fmt.pf ppf "#%d s%d/%d %s parent=%d value=%a" inst.idx inst.sid inst.occ kind
    inst.parent Value.pp inst.value
