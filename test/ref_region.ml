(* The Euler-tour region tree that {!Exom_align.Region} replaced, and
   the list-based alignment over it, kept as the reference the interval
   versions are tested against (test_reference). *)

module Trace = Exom_interp.Trace

(* Children lists, in trace (= execution) order.  Instances with parent -1
   are roots. *)
let trace_children t =
  let n = Trace.length t in
  let kids = Array.make (n + 1) [] in
  (* slot n is the virtual root *)
  for idx = n - 1 downto 0 do
    let inst = Trace.get t idx in
    let slot = if inst.Trace.parent < 0 then n else inst.Trace.parent in
    kids.(slot) <- idx :: kids.(slot)
  done;
  fun idx -> if idx < 0 then kids.(n) else kids.(idx)

type t = {
  trace : Trace.t;
  children : int -> int list;
  enter : int array;  (* Euler-tour intervals for O(1) subtree tests *)
  leave : int array;
  position : int array;  (* index of an instance in its parent's child list *)
}

let root = -1

let build trace =
  let n = Trace.length trace in
  let children = trace_children trace in
  let enter = Array.make n 0 in
  let leave = Array.make n 0 in
  let position = Array.make n 0 in
  let clock = ref 0 in
  (* Explicit stack: traces can nest deeply (long loops nest each
     iteration's predicate under the previous one). *)
  let stack = Stack.create () in
  List.iter (fun c -> Stack.push (`Enter c) stack)
    (List.rev (children root));
  while not (Stack.is_empty stack) do
    match Stack.pop stack with
    | `Enter idx ->
      enter.(idx) <- !clock;
      incr clock;
      Stack.push (`Leave idx) stack;
      List.iter (fun c -> Stack.push (`Enter c) stack)
        (List.rev (children idx))
    | `Leave idx ->
      leave.(idx) <- !clock;
      incr clock
  done;
  let fill_positions parent =
    List.iteri (fun i c -> position.(c) <- i) (children parent)
  in
  fill_positions root;
  for idx = 0 to n - 1 do
    fill_positions idx
  done;
  { trace; children; enter; leave; position }

let length t = Trace.length t.trace
let get t idx = Trace.get t.trace idx

let parent t idx =
  if idx < 0 then invalid_arg "Region.parent: root has no parent"
  else (Trace.get t.trace idx).Trace.parent

let children t idx = t.children idx

(* Is instance [u] inside the region headed by [r] (heads included)?
   The virtual root contains everything. *)
let in_region t ~u ~r =
  r = root || (t.enter.(r) <= t.enter.(u) && t.leave.(u) <= t.leave.(r))

let first_subregion t r =
  match t.children r with [] -> None | c :: _ -> Some c

let sibling t idx =
  let p = parent t idx in
  let sibs = t.children p in
  let pos = t.position.(idx) in
  List.nth_opt sibs (pos + 1)

let branch t idx = Trace.branch_of (Trace.get t.trace idx)
let sid t idx = (Trace.get t.trace idx).Trace.sid

let depth t idx =
  let rec walk i acc = if i < 0 then acc else walk (parent t i) (acc + 1) in
  walk idx 0

(* {2 Algorithm 1 over the child lists} *)

type verdict = Exom_align.Align.verdict = Found of int | Not_found

let rec match_inside r1 reg_r r2 reg_r' ~u =
  let rec scan subs subs' =
    match (subs, subs') with
    | [], _ -> Not_found  (* u must be here; defensive *)
    | _, [] -> Not_found  (* sibling exhaustion in the switched run *)
    | s :: rest, s' :: rest' ->
      if not (in_region reg_r ~u ~r:s) then
        if sid reg_r s <> sid reg_r' s' then Not_found
        else scan rest rest'
      else if sid reg_r s <> sid reg_r' s' then Not_found
      else if u = s then Found s'
      else if branch reg_r s <> branch reg_r' s' then Not_found
      else match_inside s reg_r s' reg_r' ~u
  in
  scan (children reg_r r1) (children reg_r' r2)

let match_from reg reg' ~p ~u =
  if u < p then if u < length reg' then Found u else Not_found
  else begin
    let rec climb r r' =
      if not (in_region reg ~u ~r) then
        if r = root then Not_found  (* cannot happen: root holds all *)
        else begin
          let pr = parent reg r in
          let pr' = parent reg' r' in
          climb pr pr'
        end
      else if r = root then match_inside r reg r' reg' ~u
      else if u = r then Found r'
      else match match_inside r reg r' reg' ~u with
        | Found v -> Found v
        | Not_found -> Not_found
    in
    if p < 0 || p >= length reg || p >= length reg' then
      Not_found
    else
      let start = (get reg p).Trace.parent in
      let start' = (get reg' p).Trace.parent in
      climb start start'
  end

let match_root reg reg' ~u = match_inside root reg root reg' ~u
