(* The set-based condition (iv) that {!Exom_cfg.Potential} replaced,
   kept as the reference the bitset version is tested against
   (test_reference): reachability and def-clear sets as [Set.Make (Int)],
   memoized in structurally keyed tables, and a relevant-slicing PD built
   on it exactly as {!Exom_ddg.Relevant} builds its own. *)

module Cfg = Exom_cfg.Cfg
module Locs = Exom_cfg.Locs
module Proginfo = Exom_cfg.Proginfo
module Trace = Exom_interp.Trace
module Slice = Exom_ddg.Slice
module Relevant = Exom_ddg.Relevant

module Iset = Set.Make (Int)

type t = {
  info : Proginfo.t;
  observed : (def_sid:int -> use_sid:int -> bool) option;
      (* evidence filter, e.g. the union dependence graph: a candidate
         definition qualifies only if some test run witnessed its value
         reaching the use statement *)
  reach_cache : (string option * int * int, Iset.t) Hashtbl.t;
      (* (function, start, avoided predicate) -> forward-reachable nodes *)
  clear_cache : (string option * int * Locs.loc, Iset.t) Hashtbl.t;
      (* (function, use node, loc) -> backward def-clear sources *)
  verdict_cache : (int * bool * int * Locs.loc, bool) Hashtbl.t;
}

let create ?observed info =
  {
    info;
    observed;
    reach_cache = Hashtbl.create 64;
    clear_cache = Hashtbl.create 64;
    verdict_cache = Hashtbl.create 256;
  }

let node_defines t cfg node loc =
  match Cfg.sid_at cfg node with
  | Some sid -> Locs.defines (Proginfo.locs t.info) sid loc
  | None -> false

(* Forward reachability that never traverses *through* [avoid] (the
   queried predicate): nodes only reachable by re-entering the predicate
   belong to later dynamic instances of it. *)
let forward_reachable t cfg fname start ~avoid =
  match Hashtbl.find_opt t.reach_cache (fname, start, avoid) with
  | Some r -> r
  | None ->
    let visited = ref Iset.empty in
    let rec visit n =
      if not (Iset.mem n !visited) then begin
        visited := Iset.add n !visited;
        if n <> avoid then
          List.iter (fun (s, _) -> visit s) (Cfg.successors cfg n)
      end
    in
    visit start;
    Hashtbl.replace t.reach_cache (fname, start, avoid) !visited;
    !visited

(* Nodes [m] such that there is a path m => use_node whose interior
   (including [m] itself, excluding [use_node]) defines [loc] nowhere.
   [use_node] is a member.  A definition D reaches the use def-clear iff
   one of D's successors is in this set. *)
let clear_sources t cfg fname use_node loc =
  match Hashtbl.find_opt t.clear_cache (fname, use_node, loc) with
  | Some r -> r
  | None ->
    let result = ref (Iset.singleton use_node) in
    let rec visit n =
      List.iter
        (fun (p, _) ->
          if (not (Iset.mem p !result)) && not (node_defines t cfg p loc)
          then begin
            result := Iset.add p !result;
            visit p
          end)
        (Cfg.predecessors cfg n)
    in
    visit use_node;
    Hashtbl.replace t.clear_cache (fname, use_node, loc) !result;
    !result

let could_reach_differently t ~pred_sid ~taken ~use_sid ~loc =
  let key = (pred_sid, taken, use_sid, loc) in
  match Hashtbl.find_opt t.verdict_cache key with
  | Some v -> v
  | None ->
    let pfname = Proginfo.func_of_sid t.info pred_sid in
    let ufname = Proginfo.func_of_sid t.info use_sid in
    let cfg = Proginfo.cfg_of t.info pfname in
    let pnode = Cfg.node_of cfg pred_sid in
    let verdict =
      match
        ( Cfg.branch_successor cfg pnode (not taken),
          Cfg.branch_successor cfg pnode taken )
      with
      | None, _ | _, None -> false
      | Some nt_succ, Some t_succ ->
        let reach_nt = forward_reachable t cfg pfname nt_succ ~avoid:pnode in
        let reach_t = forward_reachable t cfg pfname t_succ ~avoid:pnode in
        let witnessed d =
          match t.observed with
          | None -> true
          | Some f -> (
            match Cfg.sid_at cfg d with
            | Some def_sid -> f ~def_sid ~use_sid
            | None -> false)
        in
        let candidate_defs =
          Iset.filter
            (fun d ->
              (not (Iset.mem d reach_t))
              && node_defines t cfg d loc
              && witnessed d)
            reach_nt
        in
        if Iset.is_empty candidate_defs then false
        else if pfname <> ufname then true
        else begin
          let ucfg_node = Cfg.node_of cfg use_sid in
          let clear = clear_sources t cfg pfname ucfg_node loc in
          Iset.exists
            (fun d ->
              List.exists (fun (s, _) -> Iset.mem s clear) (Cfg.successors cfg d))
            candidate_defs
        end
    in
    Hashtbl.replace t.verdict_cache key verdict;
    verdict

(* {2 Relevant.pd over the set-based condition (iv)} *)

type rel = {
  info : Proginfo.t;
  potential : t;
  rtrace : Trace.t;
  real : Relevant.t;  (* for [locs_of_use_cell] and [is_control_ancestor] *)
  by_sid : (int, int list) Hashtbl.t;
  pred_sids : int list;
  static_pd_cache : (int, (int * bool) list) Hashtbl.t;
}

let relevant ?observed info trace =
  let by_sid = Hashtbl.create 64 in
  Trace.iter
    (fun inst ->
      let cur =
        Option.value ~default:[] (Hashtbl.find_opt by_sid inst.Trace.sid)
      in
      Hashtbl.replace by_sid inst.Trace.sid (inst.Trace.idx :: cur))
    trace;
  let pred_sids = ref [] in
  Hashtbl.iter
    (fun sid idxs ->
      Hashtbl.replace by_sid sid (List.rev idxs);
      if Proginfo.is_predicate info sid then pred_sids := sid :: !pred_sids)
    by_sid;
  {
    info;
    potential = create ?observed info;
    rtrace = trace;
    real = Relevant.create ?observed info trace;
    by_sid;
    pred_sids = !pred_sids;
    static_pd_cache = Hashtbl.create 64;
  }

let static_pd t ~use_sid =
  match Hashtbl.find_opt t.static_pd_cache use_sid with
  | Some r -> r
  | None ->
    let locs = Locs.Lset.elements (Locs.uses (Proginfo.locs t.info) use_sid) in
    let result = ref [] in
    List.iter
      (fun pred_sid ->
        List.iter
          (fun taken ->
            if
              List.exists
                (fun loc ->
                  could_reach_differently t.potential ~pred_sid ~taken
                    ~use_sid ~loc)
                locs
            then result := (pred_sid, taken) :: !result)
          [ true; false ])
      t.pred_sids;
    Hashtbl.replace t.static_pd_cache use_sid !result;
    !result

let instances_between t sid taken ~lo ~hi =
  match Hashtbl.find_opt t.by_sid sid with
  | None -> []
  | Some idxs ->
    List.filter
      (fun i ->
        i > lo && i < hi
        && Trace.branch_of (Trace.get t.rtrace i) = Some taken)
      idxs

let pd t u =
  let inst = Trace.get t.rtrace u in
  let use_sid = inst.Trace.sid in
  let result = ref [] in
  List.iter
    (fun (cell, def_idx, _) ->
      let locs = Relevant.locs_of_use_cell t.real ~use_sid cell in
      if locs <> [] then
        List.iter
          (fun (pred_sid, taken) ->
            if
              List.exists
                (fun loc ->
                  could_reach_differently t.potential ~pred_sid ~taken
                    ~use_sid ~loc)
                locs
            then
              List.iter
                (fun p ->
                  if not (Relevant.is_control_ancestor t.real ~anc:p ~of_:u)
                  then result := p :: !result)
                (instances_between t pred_sid taken ~lo:def_idx ~hi:u))
          (static_pd t ~use_sid))
    inst.Trace.uses;
  List.sort_uniq compare !result

let relevant_slice t ~criteria =
  Slice.compute ~extra:(pd t) t.rtrace ~criteria
