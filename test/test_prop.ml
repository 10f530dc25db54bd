(* Property-based and differential tests over randomly generated MCL
   programs.

   Programs come from the corpus factory ({!Exom_corpus.Factory}, the
   library promotion of the generator this file used to embed): small
   well-typed programs whose loops are all counter-bounded, so they
   terminate well inside the interpreter's step budget.

   Properties:
   - pretty-print ∘ parse round-trips (fixpoint on the printed form);
   - the region tree is a well-formed projection of the trace;
   - aligning an execution against itself is the identity;
   - the tracing and plain interpreter modes agree on outputs, step
     counts and outcome (differential), on generated programs — also
     under a tight step budget and a branch switch — and on every
     program in examples/programs/;
   - the coordinator's incremental analyses equal the from-scratch
     functions they stand in for: a chain of confidence refinements,
     slice extensions and the PD memo (differential, random benign and
     edge increments);
   - a switched run that takes the failing run's records over below
     the switch point equals the fully traced switched run, record for
     record (differential: random branch or value switches and budget
     cuts on generated programs, and every predicate instance of the
     13 suite faults);
   - the untraced value profile equals the profile read off traced
     runs (differential, generated programs and the suite). *)

module Pretty = Exom_lang.Pretty
module Typecheck = Exom_lang.Typecheck
module Interp = Exom_interp.Interp
module Trace = Exom_interp.Trace
module Region = Exom_align.Region
module Align = Exom_align.Align
module Factory = Exom_corpus.Factory
module Ast = Exom_lang.Ast
module Rank = Exom_rank.Rank
module Proginfo = Exom_cfg.Proginfo
module Profile = Exom_interp.Profile
module Confidence = Exom_conf.Confidence
module Slice = Exom_ddg.Slice
module Relevant = Exom_ddg.Relevant
module Demand = Exom_core.Demand
module Value = Exom_interp.Value
module B = Exom_bench.Bench_types
module Suite = Exom_bench.Suite

let seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (try int_of_string s with _ -> 42)
  | None -> 42

(* {2 Program generator} *)

let gen_program = Factory.gen_program

let print_case (prog, input) =
  Printf.sprintf "%s\n// input: [%s]"
    (Pretty.program_to_string prog)
    (String.concat "; " (List.map string_of_int input))

let arb = QCheck.make ~print:print_case gen_program

(* {2 Properties} *)

let prop_roundtrip =
  QCheck.Test.make ~name:"pretty-print . parse round-trips" ~count:80 arb
    (fun (prog, _) ->
      let src = Pretty.program_to_string prog in
      Pretty.program_to_string (Typecheck.parse_and_check src) = src)

let traced prog input = Interp.run ~tracing:true prog ~input

let prop_region_well_formed =
  QCheck.Test.make ~name:"region tree projects the trace" ~count:60 arb
    (fun (prog, input) ->
      let r = traced prog input in
      let tr = Option.get r.Interp.trace in
      let reg = Region.build tr in
      Region.length reg = Trace.length tr
      && List.for_all
           (fun idx ->
             let inst = Region.get reg idx in
             let p = inst.Trace.parent in
             inst.Trace.idx = idx && p < idx
             && Region.in_region reg ~u:idx ~r:Region.root
             && (p < 0
                || Region.in_region reg ~u:idx ~r:p
                   && Region.depth reg idx = Region.depth reg p + 1
                   && List.mem idx (Region.children reg p)))
           (List.init (Trace.length tr) Fun.id))

let sample_indices n =
  (* All indices on short traces, a spread otherwise: property checks
     stay linear-ish in trace length. *)
  if n <= 64 then List.init n Fun.id
  else List.init 64 (fun i -> i * n / 64)

let prop_self_alignment =
  QCheck.Test.make ~name:"self-alignment is the identity" ~count:60 arb
    (fun (prog, input) ->
      let r = traced prog input in
      let tr = Option.get r.Interp.trace in
      let reg = Region.build tr in
      let n = Trace.length tr in
      let indices = sample_indices n in
      let root_ok =
        List.for_all
          (fun u -> Align.match_root reg reg ~u = Align.Found u)
          indices
      in
      (* From any predicate instance, an execution still aligns with
         itself everywhere. *)
      let pred =
        List.find_opt (fun u -> Trace.is_predicate (Region.get reg u)) indices
      in
      let from_ok =
        match pred with
        | None -> true
        | Some p ->
          List.for_all
            (fun u -> Align.match_from reg reg ~p ~u = Align.Found u)
            indices
      in
      root_ok && from_ok)

let modes_agree ?budget ?switch prog input =
  let a = Interp.run ?budget ?switch ~tracing:true prog ~input in
  let b = Interp.run ?budget ?switch ~tracing:false prog ~input in
  Interp.output_values a = Interp.output_values b
  && a.Interp.steps = b.Interp.steps
  && a.Interp.outcome = b.Interp.outcome
  && a.Interp.switch_fired = b.Interp.switch_fired

(* Beyond the unconstrained run, the modes must also agree when a tight
   budget (a random fraction of the run's steps) cuts both off at the
   same step, and when a random predicate instance is switched — the
   untraced run then counts occurrences without a trace to hold them. *)
let prop_differential =
  QCheck.Test.make ~name:"tracing and plain modes agree" ~count:80
    QCheck.(triple arb (int_bound 999) (int_bound 999))
    (fun ((prog, input), frac, pick) ->
      modes_agree prog input
      &&
      let full = traced prog input in
      let budget = full.Interp.steps * frac / 1000 in
      let cut = Interp.run ~budget ~tracing:false prog ~input in
      cut.Interp.outcome = Error Interp.Budget_exhausted
      && modes_agree ~budget prog input
      &&
      let tr = Option.get full.Interp.trace in
      let preds =
        List.filter
          (fun i -> Trace.is_predicate (Trace.get tr i))
          (List.init (Trace.length tr) Fun.id)
      in
      match preds with
      | [] -> true
      | _ ->
        let inst = Trace.get tr (List.nth preds (pick mod List.length preds)) in
        let switch =
          { Interp.switch_sid = inst.Trace.sid; switch_occ = inst.Trace.occ }
        in
        (* a flipped loop exit may keep a loop spinning: bound the run *)
        let budget = (10 * full.Interp.steps) + 1000 in
        let sw = Interp.run ~budget ~switch ~tracing:false prog ~input in
        sw.Interp.switch_fired && modes_agree ~budget ~switch prog input)

(* {2 Differential check over the example corpus} *)

(* Under `dune runtest` the cwd is the sandboxed test directory and
   the glob_files dep places the corpus at ../examples/programs; under
   `dune exec test/test_prop.exe` the cwd is the project root.  Resolve
   relative to the executable first, then the two cwd layouts. *)
let examples_dir =
  let rel = Filename.concat "examples" "programs" in
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name)
        (Filename.concat ".." rel);
      Filename.concat ".." rel;
      rel;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> rel

let test_examples_differential () =
  let files =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
  in
  Alcotest.(check bool) "example corpus present" true (files <> []);
  List.iter
    (fun file ->
      let path = Filename.concat examples_dir file in
      let ic = open_in_bin path in
      let src = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let prog = Typecheck.parse_and_check src in
      (* A fixed input long enough for every example; extra ints are
         ignored, and both modes crash identically on exhaustion. *)
      let input = [ 6; 3; 9; 1; 4; 1; 5; 9; 2; 6; 5; 3; 5; 8; 9; 7 ] in
      Alcotest.(check bool)
        (file ^ ": modes agree")
        true (modes_agree prog input);
      Alcotest.(check bool)
        (file ^ ": short input agrees")
        true
        (modes_agree prog [ 2 ]))
    files

(* Ranking is a pure function of (static features, evidence): two
   scorers built from the same Factory program and fed the same verdict
   evidence — in any order, since per-predicate cells are independent
   counters — produce byte-identical scores and plans.  This is the
   unit-level face of the end-to-end claim that the ranked verification
   order is invariant across -j and warm/cold stores (test_rank). *)
let prop_ranking_pure =
  QCheck.Test.make ~name:"ranking is pure in (features, evidence)" ~count:60
    arb (fun (prog, input) ->
      let stmts = Ast.stmt_count prog in
      let preds = ref [] in
      Ast.iter_program
        (fun s -> if Ast.is_predicate s then preds := s.Ast.sid :: !preds)
        prog;
      let sids = match !preds with [] -> [ 1; 2; 3 ] | l -> List.rev l in
      (* a deterministic evidence stream derived from the program *)
      let evidence =
        List.concat_map
          (fun sid ->
            match (sid + List.length input) mod 3 with
            | 0 -> [ (sid, `Strong_id) ]
            | 1 -> [ (sid, `Id); (sid, `Not_id) ]
            | _ -> [ (sid, `Not_id); (sid, `Not_id) ])
          sids
      in
      let mk stream =
        let t =
          Rank.create ~stmts ~predicates:(List.length sids)
            Rank.default_config
        in
        List.iter (fun (sid, v) -> Rank.observe t ~sid ~verdict:v) stream;
        t
      in
      let candidates = List.mapi (fun i sid -> (i, sid)) (sids @ sids) in
      let t1 = mk evidence in
      let t2 = mk evidence in
      let t3 = mk (List.rev evidence) in
      Rank.plan t1 candidates = Rank.plan t2 candidates
      && Rank.plan t1 candidates = Rank.plan t3 candidates
      && List.for_all
           (fun (_, sid) -> Rank.score t1 ~sid = Rank.score t3 ~sid)
           candidates)

(* {2 Incremental analyses against their from-scratch oracles} *)

(* A generated program, its failing-run trace, and a stream of analysis
   increments drawn from the case's own seed once the trace length is
   known. *)
let arb_increments =
  QCheck.make
    ~print:(fun (case, k) ->
      Printf.sprintf "%s\n// increments seed: %d" (print_case case) k)
    QCheck.Gen.(pair gen_program nat)

let pick rand = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int rand (List.length l)))

(* [rounds] increments of (benign marks, implicit edges (p, t)).  Edge
   sources are predicate instances when there are any — only those can
   be pinned — and precede their targets, as verified edges do. *)
let increments rand tr ~rounds =
  let n = Trace.length tr in
  let preds =
    List.filter
      (fun i -> Trace.is_predicate (Trace.get tr i))
      (List.init n Fun.id)
  in
  let edge () =
    let t = Random.State.int rand n in
    let p =
      match pick rand (List.filter (fun p -> p < t) preds) with
      | Some p -> p
      | None -> Random.State.int rand (t + 1)
    in
    (p, t)
  in
  List.init rounds (fun _ ->
      ( List.init (Random.State.int rand 4) (fun _ -> Random.State.int rand n),
        List.init (Random.State.int rand 5) (fun _ -> edge ()) ))

let same_confidence n a b =
  List.for_all
    (fun i ->
      Int64.equal
        (Int64.bits_of_float (Confidence.confidence a i))
        (Int64.bits_of_float (Confidence.confidence b i))
      && Option.equal Confidence.Vset.equal (Confidence.alt_set a i)
           (Confidence.alt_set b i))
    (List.init n Fun.id)

let prop_confidence_refine =
  QCheck.Test.make ~name:"confidence refine = compute over union"
    ~count:60 arb_increments (fun ((prog, input), k) ->
      let r = traced prog input in
      let tr = Option.get r.Interp.trace in
      let n = Trace.length tr in
      n = 0
      ||
      let rand = Random.State.make [| k |] in
      let info = Proginfo.build prog in
      let profile =
        Profile.collect (Interp.compile prog) [ input; List.rev input; List.map succ input ]
      in
      let correct =
        List.filter_map
          (fun (idx, _) -> if Random.State.bool rand then Some idx else None)
          r.Interp.outputs
      in
      let steps = increments rand tr ~rounds:(1 + Random.State.int rand 4) in
      let compute ~benign ~implicit =
        Confidence.compute info profile tr ~correct ~benign ~implicit
      in
      let start = compute ~benign:[] ~implicit:[] in
      let chained =
        List.fold_left
          (fun c (benign, implicit) -> Confidence.refine c ~benign ~implicit)
          start steps
      in
      let union =
        compute ~benign:(List.concat_map fst steps)
          ~implicit:(List.concat_map snd steps)
      in
      same_confidence n chained union
      (* the warm start leaves the state it started from untouched *)
      && same_confidence n start (compute ~benign:[] ~implicit:[]))

let prop_slice_extend =
  QCheck.Test.make ~name:"slice extend = compute with all edges" ~count:60
    arb_increments (fun ((prog, input), k) ->
      let tr = Option.get (traced prog input).Interp.trace in
      let n = Trace.length tr in
      n = 0
      ||
      let rand = Random.State.make [| k |] in
      let criteria = [ n - 1; Random.State.int rand n ] in
      let steps =
        List.map snd
          (increments rand tr ~rounds:(1 + Random.State.int rand 4))
      in
      let extra_of edges idx =
        List.filter_map (fun (p, t) -> if t = idx then Some p else None) edges
      in
      let _, extended =
        List.fold_left
          (fun (seen, sl) edges ->
            let seen = edges @ seen in
            (seen, Slice.extend ~extra:(extra_of seen) tr sl ~edges))
          ([], Slice.compute tr ~criteria)
          steps
      in
      let oracle =
        Slice.compute ~extra:(extra_of (List.concat steps)) tr ~criteria
      in
      Slice.to_list extended = Slice.to_list oracle
      && Slice.sids extended = Slice.sids oracle)

let prop_pd_memo =
  QCheck.Test.make ~name:"PD memo = Relevant.pd" ~count:60 arb_increments
    (fun ((prog, input), k) ->
      let tr = Option.get (traced prog input).Interp.trace in
      let n = Trace.length tr in
      n = 0
      ||
      let rand = Random.State.make [| k |] in
      let rel = Relevant.create (Proginfo.build prog) tr in
      let memo = Demand.pd_memo rel tr in
      let queries = List.init (2 * n) (fun _ -> Random.State.int rand n) in
      List.for_all (fun t -> Demand.memo_pd memo t = Relevant.pd rel t) queries
      &&
      let distinct = List.length (List.sort_uniq compare queries) in
      Demand.pd_memo_counts memo = (distinct, List.length queries - distinct))

(* {2 Shared-prefix switched runs against fully traced ones} *)

let same_trace ~sids a b =
  Trace.length a = Trace.length b
  && List.for_all
       (fun i -> Trace.get a i = Trace.get b i)
       (List.init (Trace.length a) Fun.id)
  && List.for_all
       (fun sid -> Trace.occurrences a sid = Trace.occurrences b sid)
       (List.init sids Fun.id)

(* Every field of the run, every record and every occurrence count. *)
let same_run ~sids (a : Interp.run) (b : Interp.run) =
  a.Interp.outputs = b.Interp.outputs
  && a.Interp.outcome = b.Interp.outcome
  && a.Interp.steps = b.Interp.steps
  && a.Interp.switch_fired = b.Interp.switch_fired
  &&
  match (a.Interp.trace, b.Interp.trace) with
  | Some ta, Some tb -> same_trace ~sids ta tb
  | _ -> false

let shares_exactly ?switch ?vswitch ~budget prog input prefix =
  same_run ~sids:(Ast.stmt_count prog)
    (Interp.run ?switch ?vswitch ~budget prog ~input)
    (Interp.run ?switch ?vswitch ~budget ~prefix prog ~input)

(* Sharing never writes to the prefix: it still equals a fresh failing
   run after every switched run that took records from it. *)
let prefix_untouched prog input prefix =
  same_trace ~sids:(Ast.stmt_count prog) prefix
    (Option.get (traced prog input).Interp.trace)

let prop_shared_prefix =
  QCheck.Test.make ~name:"shared-prefix switched run = traced run" ~count:80
    QCheck.(quad arb (int_bound 999) (int_bound 999) (int_range (-50) 50))
    (fun ((prog, input), frac, pick, delta) ->
      let full = traced prog input in
      let prefix = Option.get full.Interp.trace in
      let n = Trace.length prefix in
      n = 0
      ||
      (* from far below the switch point to twice the failing run *)
      let budget = max 1 (full.Interp.steps * 2 * frac / 1000) in
      let nth_of pred =
        match
          List.filter
            (fun i -> pred (Trace.get prefix i))
            (List.init n Fun.id)
        with
        | [] -> None
        | l -> Some (Trace.get prefix (List.nth l (pick mod List.length l)))
      in
      let branch_ok =
        match nth_of Trace.is_predicate with
        | None -> true
        | Some inst ->
          let switch =
            { Interp.switch_sid = inst.Trace.sid; switch_occ = inst.Trace.occ }
          in
          shares_exactly ~switch ~budget prog input prefix
      in
      let value_ok =
        match
          nth_of (fun i ->
              i.Trace.kind = Trace.Kassign
              && match i.Trace.value with Value.Vint _ -> true | _ -> false)
        with
        | None -> true
        | Some inst ->
          let vswitch =
            { Interp.vswitch_sid = inst.Trace.sid;
              vswitch_occ = inst.Trace.occ;
              vswitch_value =
                Value.Vint (Value.as_int inst.Trace.value + delta) }
          in
          shares_exactly ~vswitch ~budget prog input prefix
      in
      branch_ok && value_ok
      (* without a switch the run is the failing run itself *)
      && shares_exactly ~budget prog input prefix
      && prefix_untouched prog input prefix)

let suite_programs () =
  List.map
    (fun (bench, fault) ->
      ( bench,
        fault,
        Typecheck.parse_and_check (B.faulty_source bench fault) ))
    Suite.rows

(* Every predicate instance of every suite fault, switched at the
   session budget and at half the failing run's steps (a cut that lands
   before the switch for late instances, after it for early ones). *)
let test_suite_shared_prefix () =
  List.iter
    (fun (bench, fault, prog) ->
      let input = fault.B.failing_input in
      let failing = traced prog input in
      let prefix = Option.get failing.Interp.trace in
      let cut = failing.Interp.steps / 2 in
      Trace.iter
        (fun inst ->
          if Trace.is_predicate inst then begin
            let switch =
              { Interp.switch_sid = inst.Trace.sid;
                switch_occ = inst.Trace.occ }
            in
            List.iter
              (fun budget ->
                if not (shares_exactly ~switch ~budget prog input prefix) then
                  Alcotest.failf "%s %s: switch of #%d at budget %d differs"
                    bench.B.name fault.B.fid inst.Trace.idx budget)
              [ Interp.default_budget; cut ]
          end)
        prefix;
      Alcotest.(check bool)
        (Printf.sprintf "%s %s prefix untouched" bench.B.name fault.B.fid)
        true
        (prefix_untouched prog input prefix))
    (suite_programs ())

(* {2 Untraced value profile against the traced one} *)

module Iset = Set.Make (Int)

(* The profile as it was built from traced runs: every record's int
   value, for assignments, outputs and returns. *)
let traced_profile prog inputs =
  let values = Hashtbl.create 64 in
  let add sid n =
    let set = Option.value ~default:Iset.empty (Hashtbl.find_opt values sid) in
    Hashtbl.replace values sid (Iset.add n set)
  in
  let record_trace trace =
    Trace.iter
      (fun inst ->
        match inst.Trace.kind with
        | Trace.Kassign | Trace.Koutput | Trace.Kreturn -> (
          match inst.Trace.value with
          | Value.Vint n -> add inst.Trace.sid n
          | Value.Vbool _ | Value.Varr _ | Value.Vunit -> ())
        | Trace.Kpredicate _ | Trace.Kcall | Trace.Kother -> ())
      trace
  in
  List.iter
    (fun input -> Option.iter record_trace (traced prog input).Interp.trace)
    inputs;
  fun sid ->
    Iset.elements (Option.value ~default:Iset.empty (Hashtbl.find_opt values sid))

let same_profile prog inputs =
  let profile = Profile.collect (Interp.compile prog) inputs in
  let reference = traced_profile prog inputs in
  Profile.runs profile = List.length inputs
  && List.for_all
       (fun sid -> Profile.range profile sid ~observed:Value.Vunit = reference sid)
       (List.init (Ast.stmt_count prog) Fun.id)

let prop_profile =
  QCheck.Test.make ~name:"untraced profile = traced profile" ~count:80 arb
    (fun (prog, input) ->
      same_profile prog [ input; List.rev input; List.map succ input; [] ])

let test_suite_profile () =
  List.iter
    (fun (bench, fault, prog) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s %s profile" bench.B.name fault.B.fid)
        true
        (same_profile prog bench.B.test_inputs))
    (suite_programs ())

let () =
  let rand = Random.State.make [| seed |] in
  let q t = QCheck_alcotest.to_alcotest ~rand t in
  Alcotest.run "prop"
    [
      ( "generated",
        [
          q prop_roundtrip;
          q prop_region_well_formed;
          q prop_self_alignment;
          q prop_differential;
          q prop_ranking_pure;
          q prop_confidence_refine;
          q prop_slice_extend;
          q prop_pd_memo;
          q prop_shared_prefix;
          q prop_profile;
        ] );
      ("examples", [ Alcotest.test_case "differential" `Quick test_examples_differential ]);
      ( "suite",
        [
          Alcotest.test_case "shared-prefix switched runs" `Slow
            test_suite_shared_prefix;
          Alcotest.test_case "untraced profile" `Quick test_suite_profile;
        ] );
    ]
