module Trace = Exom_interp.Trace

(* The region tree of an execution (Definition 3 of the paper): each
   instance heads the region formed by itself and the instances
   (transitively) control dependent on it.  The tree is precisely the
   control-parent forest recorded in the trace, with a virtual root
   (index -1) above the top-level instances.

   A trace lists instances in execution-start order, and an instance is
   reserved only while its control parent's region is open, so the
   trace is a preorder of the tree: the region headed by [r] is the
   index interval [\[r, last.(r)\]], its subregions start at [r + 1],
   and each one is followed by the next at [last.(c) + 1]. *)
type t = {
  trace : Trace.t;
  last : int array;  (* last instance of each region *)
  sids : int array;  (* what a sibling walk compares, read without a record *)
}

let root = -1

(* Children follow their parent, so one backward pass sees every
   region's descendants before the region itself. *)
let build trace =
  let n = Trace.length trace in
  let last = Array.init n Fun.id and sids = Array.make n 0 in
  for idx = n - 1 downto 0 do
    let inst = Trace.get trace idx in
    let p = inst.Trace.parent in
    sids.(idx) <- inst.Trace.sid;
    if p >= 0 && last.(idx) > last.(p) then last.(p) <- last.(idx)
  done;
  { trace; last; sids }

let length t = Array.length t.last
let get t idx = Trace.get t.trace idx

let parent t idx =
  if idx < 0 then invalid_arg "Region.parent: root has no parent"
  else (Trace.get t.trace idx).Trace.parent

let last t r = if r < 0 then Array.length t.last - 1 else t.last.(r)

(* Is instance [u] inside the region headed by [r] (heads included)?
   The virtual root contains everything. *)
let in_region t ~u ~r = r = root || (r <= u && u <= t.last.(r))

let first_subregion t r = if r < last t r then Some (r + 1) else None

let sibling t idx =
  let next = t.last.(idx) + 1 in
  if next <= last t (parent t idx) then Some next else None

let children t r =
  let stop = last t r in
  let rec walk c = if c > stop then [] else c :: walk (t.last.(c) + 1) in
  walk (r + 1)

let branch t idx = Trace.branch_of (Trace.get t.trace idx)
let sid t idx = t.sids.(idx)

(* Depth of an instance below the virtual root. *)
let depth t idx =
  let rec walk i acc = if i < 0 then acc else walk (parent t i) (acc + 1) in
  walk idx 0

(* Paper-style rendering: a region is its head's statement id followed
   by its subregions in brackets — "[6 7 8 [11 12] 6]". *)
let rec render_region ?(label = sid) t idx =
  let head = string_of_int (label t idx) in
  match children t idx with
  | [] -> head
  | kids ->
    Printf.sprintf "[%s %s]" head
      (String.concat " " (List.map (render_region ~label t) kids))

let render_forest ?label t =
  String.concat ", " (List.map (render_region ?label t) (children t root))
