(* Differential tests of the bitset condition (iv) and the interval
   region tree against the implementations they replaced, kept in this
   directory as references: the set-based Potential ({!Ref_potential})
   and the Euler-tour Region with list-based alignment ({!Ref_region}).

   Properties, over Factory programs and their Seeder mutants:
   - every [could_reach_differently] answer is the reference's — every
     executed predicate sid, both outcomes, every use sid and each of
     its locations — without and with an evidence filter, and so are
     [Relevant.pd] (on {!sample} instances) and the relevant slice;
   - the region tree answers [children], [parent], [sibling],
     [first_subregion], [depth] and [in_region] (every ancestor pair and
     random pairs) as the reference does, and [Align.match_from] /
     [Align.match_root] give its verdicts (on {!sample} instances) — on
     failing runs, prefix-sharing switched runs, budget-cut, crashed and
     chaos runs;
   - every trace [Interp.exec] builds is a preorder of its region tree:
     each instance's control parent is still open when it is reserved.
   The suite sweep checks the same over the 13 suite faults. *)

module Ast = Exom_lang.Ast
module Typecheck = Exom_lang.Typecheck
module Interp = Exom_interp.Interp
module Trace = Exom_interp.Trace
module Chaos = Exom_interp.Chaos
module Locs = Exom_cfg.Locs
module Proginfo = Exom_cfg.Proginfo
module Potential = Exom_cfg.Potential
module Relevant = Exom_ddg.Relevant
module Slice = Exom_ddg.Slice
module Union_graph = Exom_ddg.Union_graph
module Region = Exom_align.Region
module Align = Exom_align.Align
module Factory = Exom_corpus.Factory
module Seeder = Exom_corpus.Seeder
module B = Exom_bench.Bench_types
module Suite = Exom_bench.Suite

let seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (try int_of_string s with _ -> 42)
  | None -> 42

(* Generated programs finish well inside this; a mutant that spins
   (a weakened loop guard) is cut here. *)
let budget = 3_000

(* A run that escapes with an exception (a chaos [Raise_at] or
   [Kill_worker]) has no trace to compare. *)
let trace_of ?switch ?chaos ?(budget = budget) ?prefix code input =
  match Interp.exec ?switch ?chaos ~budget ?prefix code ~input with
  | run -> run.Interp.trace
  | exception _ -> None

(* Every instance of a short trace, a spread of 200 of a long one. *)
let sample n = if n <= 200 then List.init n Fun.id else List.init 200 (fun i -> i * n / 200)

(* The program and, when one of its seeding sites applies, a mutant. *)
let with_mutant (prog, input) k =
  let sites = Seeder.sites prog in
  let mutant =
    match sites with
    | [] -> None
    | _ ->
      let cls, sid = List.nth sites (k mod List.length sites) in
      Seeder.apply prog cls sid
  in
  (prog, input) :: Option.to_list (Option.map (fun m -> (m, input)) mutant)

let arb =
  QCheck.make
    ~print:(fun ((prog, input), k) ->
      Printf.sprintf "%s\n// input: [%s]\n// pick: %d"
        (Exom_lang.Pretty.program_to_string prog)
        (String.concat "; " (List.map string_of_int input))
        k)
    QCheck.Gen.(pair Factory.gen_program nat)

(* {2 Condition (iv), PD and the relevant slice} *)

(* A deterministic filter that passes some pairs and rejects others. *)
let hashed_filter ~def_sid ~use_sid = ((def_sid * 7) + use_sid) mod 3 <> 0

(* The first disagreement, if any, as a message. *)
let potential_mismatch ?observed info trace =
  let pot = Potential.create ?observed info in
  let reference = Ref_potential.create ?observed info in
  let locs = Proginfo.locs info in
  let nsids = Ast.stmt_count (Proginfo.program info) in
  let preds =
    List.filter
      (fun sid -> Trace.occurrences trace sid > 0 && Proginfo.is_predicate info sid)
      (List.init nsids Fun.id)
  in
  let bad = ref None in
  List.iter
    (fun pred_sid ->
      List.iter
        (fun taken ->
          for use_sid = 0 to nsids - 1 do
            Locs.Lset.iter
              (fun loc ->
                let a =
                  Potential.could_reach_differently pot ~pred_sid ~taken
                    ~use_sid ~loc
                in
                let b =
                  Ref_potential.could_reach_differently reference ~pred_sid
                    ~taken ~use_sid ~loc
                in
                if a <> b && !bad = None then
                  bad :=
                    Some
                      (Printf.sprintf "p=s%d taken=%b u=s%d loc=%s: %b, reference %b"
                         pred_sid taken use_sid (Locs.loc_to_string loc) a b))
              (Locs.uses locs use_sid)
          done)
        [ true; false ])
    preds;
  if !bad = None then begin
    let rel = Relevant.create ?observed info trace in
    let rref = Ref_potential.relevant ?observed info trace in
    let n = Trace.length trace in
    List.iter
      (fun u ->
        if !bad = None && Relevant.pd rel u <> Ref_potential.pd rref u then
          bad := Some (Printf.sprintf "PD(#%d) differs" u))
      (sample n);
    if n > 0 && !bad = None then begin
      let criteria = [ n - 1; n / 2 ] in
      let a = Relevant.relevant_slice rel ~criteria in
      let b = Ref_potential.relevant_slice rref ~criteria in
      if Slice.to_list a <> Slice.to_list b || Slice.sids a <> Slice.sids b then
        bad := Some "relevant slice differs"
    end
  end;
  !bad

let potential_agrees ~inputs (prog, input) =
  let info = Proginfo.build prog in
  let code = Interp.compile prog in
  match trace_of code input with
  | None -> true
  | Some trace ->
    let graph = Union_graph.create () in
    List.iter
      (fun input -> Union_graph.add_run graph (Interp.exec ~budget code ~input))
      inputs;
    let union = Union_graph.evidence_filter graph in
    List.for_all
      (fun observed ->
        match potential_mismatch ?observed info trace with
        | None -> true
        | Some msg -> QCheck.Test.fail_report msg)
      [ None; Some union; Some hashed_filter ]

let prop_potential =
  QCheck.Test.make ~name:"bitset condition (iv) = set-based" ~count:60 arb
    (fun (case, k) ->
      List.for_all
        (fun (prog, input) ->
          potential_agrees ~inputs:[ input; List.rev input ] (prog, input))
        (with_mutant case k))

(* {2 Region trees and alignment} *)

let opt = function None -> "-" | Some i -> string_of_int i

(* The first disagreement between the interval tree of [trace] and the
   reference tree, if any. *)
let region_mismatch rand trace =
  let reg = Region.build trace and rref = Ref_region.build trace in
  let n = Trace.length trace in
  let bad = ref None in
  (* [what] names the disagreement, built only for the first *)
  let check what a b = if a <> b && !bad = None then bad := Some (what ()) in
  let at what u () = Printf.sprintf "%s of #%d" what u in
  let in_region u r =
    check
      (fun () -> Printf.sprintf "#%d in region #%d" u r)
      (Region.in_region reg ~u ~r) (Ref_region.in_region rref ~u ~r)
  in
  check (fun () -> "length") (Region.length reg) (Ref_region.length rref);
  check (at "children" (-1)) (Region.children reg Region.root)
    (Ref_region.children rref Ref_region.root);
  check (at "first subregion" (-1))
    (opt (Region.first_subregion reg Region.root))
    (opt (Ref_region.first_subregion rref Ref_region.root));
  for u = 0 to n - 1 do
    check (at "children" u) (Region.children reg u) (Ref_region.children rref u);
    check (at "parent" u) (Region.parent reg u) (Ref_region.parent rref u);
    check (at "sibling" u)
      (opt (Region.sibling reg u))
      (opt (Ref_region.sibling rref u));
    check (at "first subregion" u)
      (opt (Region.first_subregion reg u))
      (opt (Ref_region.first_subregion rref u));
    check (at "depth" u) (Region.depth reg u) (Ref_region.depth rref u);
    let rec ancestors r =
      in_region u r;
      if r >= 0 then ancestors (Region.parent reg r)
    in
    ancestors u
  done;
  if n > 0 then
    for _ = 1 to 4 * n do
      in_region (Random.State.int rand n) (Random.State.int rand n - 1)
    done;
  !bad

let verdict = function
  | Align.Found i -> string_of_int i
  | Align.Not_found -> "none"

(* [Align] over interval trees against the reference over child lists:
   [match_from] from switch point [p] (when given) and [match_root], for
   the {!sample} of the first trace's instances. *)
let align_mismatch ?p t1 t2 =
  let r1 = Region.build t1 and r2 = Region.build t2 in
  let f1 = Ref_region.build t1 and f2 = Ref_region.build t2 in
  let bad = ref None in
  let differ what u a b =
    if a <> b && !bad = None then
      bad :=
        Some
          (Printf.sprintf "%s #%d: %s, reference %s" what u (verdict a)
             (verdict b))
  in
  List.iter
    (fun u ->
      differ "match_root" u (Align.match_root r1 r2 ~u)
        (Ref_region.match_root f1 f2 ~u);
      Option.iter
        (fun p ->
          differ
            (Printf.sprintf "match_from p=#%d" p)
            u
            (Align.match_from r1 r2 ~p ~u)
            (Ref_region.match_from f1 f2 ~p ~u))
        p)
    (sample (Trace.length t1));
  !bad

(* Each instance's control parent is open when the instance is
   reserved: on the stack of regions entered and not yet left. *)
let preorder trace =
  let open_ = Stack.create () in
  let ok = ref true in
  for idx = 0 to Trace.length trace - 1 do
    let p = (Trace.get trace idx).Trace.parent in
    while (not (Stack.is_empty open_)) && Stack.top open_ <> p do
      ignore (Stack.pop open_)
    done;
    if p >= 0 && Stack.is_empty open_ then ok := false;
    Stack.push idx open_
  done;
  !ok

(* The runs of one program the region properties cover: the failing
   run, a prefix-sharing switched run, the same cut short by a tight
   budget, a chaos crash, and a chaos run of a seed-chosen kind. *)
let runs rand (prog, input) =
  let code = Interp.compile prog in
  match Interp.exec ~budget code ~input with
  | { Interp.trace = None; _ } -> []
  | { Interp.trace = Some failing; steps; _ } ->
    let n = Trace.length failing in
    let preds =
      List.filter
        (fun i -> Trace.is_predicate (Trace.get failing i))
        (List.init n Fun.id)
    in
    let switched =
      match preds with
      | [] -> []
      | _ ->
        let p = List.nth preds (Random.State.int rand (List.length preds)) in
        let inst = Trace.get failing p in
        let switch =
          { Interp.switch_sid = inst.Trace.sid; switch_occ = inst.Trace.occ }
        in
        let cut = 1 + Random.State.int rand (max 1 steps) in
        List.filter_map
          (fun (budget, chaos) ->
            Option.map
              (fun t -> ("switched", Some p, t))
              (trace_of ~switch ?chaos ~budget ~prefix:failing code input))
          [
            (2 * (steps + 10), None);
            (cut, None);
            ( 2 * (steps + 10),
              Some { Chaos.seed = 0; fault = Chaos.Crash_at cut } );
          ]
    in
    let chaos =
      Chaos.of_seed ~max_step:(max 1 steps) (Random.State.bits rand)
    in
    ("failing", None, failing)
    :: switched
    @ List.map (fun t -> ("chaos", None, t))
        (Option.to_list (trace_of ~chaos code input))
    |> List.map (fun (what, p, t) -> (what, p, failing, t))

let regions_agree rand case =
  List.for_all
    (fun (what, p, failing, t) ->
      match region_mismatch rand t with
      | Some msg -> QCheck.Test.fail_reportf "%s run: %s" what msg
      | None -> (
        match align_mismatch ?p failing t with
        | Some msg -> QCheck.Test.fail_reportf "%s run: %s" what msg
        | None -> true))
    (runs rand case)

let prop_region =
  QCheck.Test.make ~name:"interval regions = Euler-tour regions" ~count:80 arb
    (fun (case, k) ->
      let rand = Random.State.make [| k |] in
      List.for_all (regions_agree rand) (with_mutant case k))

let prop_preorder =
  QCheck.Test.make ~name:"traces are preorders of their region trees"
    ~count:100 arb (fun (case, k) ->
      let rand = Random.State.make [| k |] in
      List.for_all
        (fun c -> List.for_all (fun (_, _, _, t) -> preorder t) (runs rand c))
        (with_mutant case k))

(* {2 The suite} *)

let suite_programs () =
  List.map
    (fun (bench, fault) ->
      (bench, fault, Typecheck.parse_and_check (B.faulty_source bench fault)))
    Suite.rows

let test_suite_potential () =
  List.iter
    (fun (bench, fault, prog) ->
      let input = fault.B.failing_input in
      let info = Proginfo.build prog in
      let trace =
        Option.get
          (trace_of ~budget:Interp.default_budget (Interp.compile prog) input)
      in
      let union =
        Union_graph.evidence_filter
          (Union_graph.collect prog bench.B.test_inputs)
      in
      List.iter
        (fun observed ->
          match potential_mismatch ?observed info trace with
          | None -> ()
          | Some msg -> Alcotest.failf "%s %s: %s" bench.B.name fault.B.fid msg)
        [ None; Some union ])
    (suite_programs ())

(* The failing run and up to 24 switched runs per fault, spread over its
   predicate instances, each at the session budget and cut at half the
   failing run's steps. *)
let test_suite_regions () =
  let rand = Random.State.make [| seed |] in
  List.iter
    (fun (bench, fault, prog) ->
      let input = fault.B.failing_input in
      let code = Interp.compile prog in
      let run = Interp.exec code ~input in
      let failing = Option.get run.Interp.trace in
      let fail msg = Alcotest.failf "%s %s: %s" bench.B.name fault.B.fid msg in
      let check ?p t =
        if not (preorder t) then fail "not a preorder";
        Option.iter fail (region_mismatch rand t);
        Option.iter fail (align_mismatch ?p failing t)
      in
      check failing;
      let preds =
        Array.of_list
          (List.filter
             (fun i -> Trace.is_predicate (Trace.get failing i))
             (List.init (Trace.length failing) Fun.id))
      in
      let stride = max 1 (Array.length preds / 24) in
      Array.iteri
        (fun k p ->
          if k mod stride = 0 then begin
            let inst = Trace.get failing p in
            let switch =
              { Interp.switch_sid = inst.Trace.sid; switch_occ = inst.Trace.occ }
            in
            List.iter
              (fun budget ->
                Option.iter (check ~p)
                  (trace_of ~switch ~budget ~prefix:failing code input))
              [ Interp.default_budget; run.Interp.steps / 2 ]
          end)
        preds)
    (suite_programs ())

let () =
  let rand = Random.State.make [| seed |] in
  let q t = QCheck_alcotest.to_alcotest ~rand t in
  Alcotest.run "reference"
    [
      ("generated", [ q prop_potential; q prop_region; q prop_preorder ]);
      ( "suite",
        [
          Alcotest.test_case "condition (iv), PD, relevant slice" `Slow
            test_suite_potential;
          Alcotest.test_case "regions and alignment" `Slow test_suite_regions;
        ] );
    ]
