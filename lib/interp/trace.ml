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
  occ_counts : (int, int) Hashtbl.t;  (* sid -> number of instances so far *)
}

let create () =
  { instances = Vec.create ~dummy:dummy_instance; occ_counts = Hashtbl.create 64 }

let length t = Vec.length t.instances

let get t idx = Vec.get t.instances idx

let reserve t ~sid ~occ ~parent =
  Hashtbl.replace t.occ_counts sid occ;
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

let share_prefix t ~prefix n ~occ =
  assert (length t = 0);
  for idx = 0 to n - 1 do
    Vec.push t.instances (Vec.get prefix.instances idx)
  done;
  Hashtbl.iter (Hashtbl.replace t.occ_counts) occ

let occurrences t sid =
  Option.value ~default:0 (Hashtbl.find_opt t.occ_counts sid)

let iter f t = Vec.iter f t.instances

let find_instance t ~sid ~occ =
  Vec.find_opt (fun i -> i.sid = sid && i.occ = occ) t.instances

(* Children lists, in trace (= execution) order.  Instances with parent -1
   are roots. *)
let children t =
  let n = length t in
  let kids = Array.make (n + 1) [] in
  (* slot n is the virtual root *)
  for idx = n - 1 downto 0 do
    let inst = get t idx in
    let slot = if inst.parent < 0 then n else inst.parent in
    kids.(slot) <- idx :: kids.(slot)
  done;
  fun idx -> if idx < 0 then kids.(n) else kids.(idx)

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
