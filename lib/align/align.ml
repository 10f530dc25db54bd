(* Execution alignment (Algorithm 1 of the paper).

   [match_inside] pairs the subregions of two matching regions
   positionally, descending into the pair that contains the target use.
   A match fails (returns [None]) when:
   - the switched run exhausts its siblings first (single-entry-
     multiple-exit regions: break / return / crash cut the region
     short — lines 16 and 20 of Algorithm 1, Figure 3);
   - the paired subregions are headed by different statements
     (divergent control flow at this level — a conservative guard the
     paper leaves implicit);
   - the paired subregion heads are predicates with different branch
     outcomes (line 23: the use's control context differs, so no
     corresponding instance exists). *)

type verdict = Found of int | Not_found

(* The subregions of [r1] and [r2] pair positionally: each scan steps
   both past one sibling's interval. *)
let rec match_inside r1 reg_r r2 reg_r' ~u =
  let stop = Region.last reg_r r1 and stop' = Region.last reg_r' r2 in
  let rec scan s s' =
    if s > stop then Not_found  (* u must be here; defensive *)
    else if s' > stop' then Not_found  (* sibling exhaustion in the switched run *)
    else if Region.sid reg_r s <> Region.sid reg_r' s' then Not_found
    else
      let last = Region.last reg_r s in
      if u < s || u > last then scan (last + 1) (Region.last reg_r' s' + 1)
      else if u = s then Found s'
      else if Region.branch reg_r s <> Region.branch reg_r' s' then Not_found
      else match_inside s reg_r s' reg_r' ~u
  in
  scan (r1 + 1) (r2 + 1)

(* Find the instance of [reg'] corresponding to instance [u] of [reg],
   where both executions are identical up to instance [p] (the switch
   point, present in both traces at the same index).

   Fast path: anything strictly before [p] corresponds to itself.
   Otherwise we climb from [p]'s surrounding region until it contains
   [u] — because the executions agree up to [p], the corresponding
   region in the switched run is headed by the instance at the same
   index — and match inside (the paper's [Match]). *)
(* Each alignment query bumps align.queries, each successful one
   align.matched — the ratio is the paper's "how often switching leaves
   the instance recognizable" figure. *)
let counted obs verdict =
  (match obs with
  | None -> ()
  | Some obs ->
    Exom_obs.Obs.incr obs "align.queries";
    (match verdict with
    | Found _ -> Exom_obs.Obs.incr obs "align.matched"
    | Not_found -> ()));
  verdict

let match_from ?obs reg reg' ~p ~u =
  counted obs
  @@
  if u < p then if u < Region.length reg' then Found u else Not_found
  else begin
    let rec climb r r' =
      if not (Region.in_region reg ~u ~r) then
        if r = Region.root then Not_found  (* cannot happen: root holds all *)
        else begin
          let pr = Region.parent reg r in
          let pr' = Region.parent reg' r' in
          climb pr pr'
        end
      else if r = Region.root then match_inside r reg r' reg' ~u
      else if u = r then Found r'
      else match match_inside r reg r' reg' ~u with
        | Found v -> Found v
        | Not_found -> Not_found
    in
    if p < 0 || p >= Region.length reg || p >= Region.length reg' then
      Not_found
    else
      let start = (Region.get reg p).Exom_interp.Trace.parent in
      let start' = (Region.get reg' p).Exom_interp.Trace.parent in
      climb start start'
  end

(* Match [u] across whole executions, pairing from the two roots: used
   when the executions may diverge anywhere (e.g. aligning a faulty run
   with the corrected program's run for the benign-state oracle). *)
let match_root ?obs reg reg' ~u =
  counted obs (match_inside Region.root reg Region.root reg' ~u)

let to_option = function Found i -> Some i | Not_found -> None
