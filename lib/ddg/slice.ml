module Trace = Exom_interp.Trace
module Iset = Set.Make (Int)

type t = {
  members : Iset.t;  (* instance indices *)
  sids : Iset.t;  (* static statements covered *)
}

let members t = t.members
let mem t idx = Iset.mem idx t.members
let mem_sid t sid = Iset.mem sid t.sids
let dynamic_size t = Iset.cardinal t.members
let static_size t = Iset.cardinal t.sids
let to_list t = Iset.elements t.members
let sids t = Iset.elements t.sids

(* Dependence predecessors of an instance: the defining instances of its
   uses (data) and its control parent (dynamic control dependence). *)
let explicit_preds trace idx =
  let inst = Trace.get trace idx in
  let data =
    List.filter_map
      (fun (_, def, _) -> if def >= 0 then Some def else None)
      inst.Trace.uses
  in
  if inst.Trace.parent >= 0 then inst.Trace.parent :: data else data

(* [t] plus the backward transitive closure from [roots] over explicit
   dependences plus any [extra] predecessor edges (used for
   implicit/potential dependence edges by the callers). *)
let close ~extra trace t roots =
  let members = ref t.members and sids = ref t.sids in
  let rec visit idx =
    if idx >= 0 && (not (Iset.mem idx !members)) && idx < Trace.length trace
    then begin
      members := Iset.add idx !members;
      sids := Iset.add (Trace.get trace idx).Trace.sid !sids;
      List.iter visit (explicit_preds trace idx);
      List.iter visit (extra idx)
    end
  in
  List.iter visit roots;
  { members = !members; sids = !sids }

let compute ?(extra = fun _ -> []) trace ~criteria =
  close ~extra trace { members = Iset.empty; sids = Iset.empty } criteria

(* A path to the criteria takes only old edges after its last new edge
   p -> t, so t is already in the old slice.  Closing the old slice
   from the sources of the new edges whose target it holds, over all
   edges, therefore gives the slice of the grown graph. *)
let extend ?(extra = fun _ -> []) trace t ~edges =
  close ~extra trace t
    (List.filter_map (fun (p, t_) -> if mem t t_ then Some p else None) edges)

let of_instances trace idxs =
  let members = Iset.of_list (List.filter (fun i -> i >= 0) idxs) in
  let sids =
    Iset.fold
      (fun idx acc -> Iset.add (Trace.get trace idx).Trace.sid acc)
      members Iset.empty
  in
  { members; sids }

(* Shortest dependence path (in edges) from some instance of [from_sids]
   to the [criterion] instance, following explicit + extra dependence
   edges backwards from the criterion.  Returns the instance chain from
   the source to the criterion — the paper's OS, the failure-inducing
   dependence chain (Table 3). *)
let shortest_chain ?(extra = fun _ -> []) trace ~criterion ~from_sids =
  let n = Trace.length trace in
  if criterion < 0 || criterion >= n then None
  else begin
    let prev = Array.make n (-2) in
    (* -2 unvisited, -1 source of BFS *)
    let queue = Queue.create () in
    prev.(criterion) <- -1;
    Queue.add criterion queue;
    let found = ref None in
    while !found = None && not (Queue.is_empty queue) do
      let idx = Queue.pop queue in
      let inst = Trace.get trace idx in
      if List.mem inst.Trace.sid from_sids then found := Some idx
      else
        List.iter
          (fun p ->
            if p >= 0 && p < n && prev.(p) = -2 then begin
              prev.(p) <- idx;
              Queue.add p queue
            end)
          (explicit_preds trace idx @ extra idx)
    done;
    match !found with
    | None -> None
    | Some src ->
      let rec chain idx acc =
        if idx = -1 then acc
        else chain prev.(idx) (idx :: acc)
      in
      (* prev links point towards the criterion *)
      Some (List.rev (chain src []))
  end
