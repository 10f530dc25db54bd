module Typecheck = Exom_lang.Typecheck
module Interp = Exom_interp.Interp
module Trace = Exom_interp.Trace
module Slice = Exom_ddg.Slice
module Relevant = Exom_ddg.Relevant
module Confidence = Exom_conf.Confidence
module Demand = Exom_core.Demand
module Oracle = Exom_core.Oracle
module Session = Exom_core.Session
module Verify = Exom_core.Verify

(* Ablation studies for the design decisions DESIGN.md calls out.

   1. "Relevant slicing + confidence analysis" — the plausible
      alternative §3.2 of the paper dismantles: propagating confidence
      along *unverified* potential dependence edges lets false edges
      carry confidence-1 values onto the faulty predicate, sanitizing
      the root cause.  {!potential_confidence_sanitizes} reproduces the
      effect per fault.

   2. Edge- vs path-based VerifyDep (the unsafe/safe pair of §3.2),
      exercised by running the locator with either {!Verify.mode}. *)

(* Enumerate unverified potential edges (p, t), the way a direct
   relevant-slicing + confidence combination would: every use in the
   slices of the correct and wrong outputs contributes its PD edges.
   Capped: the edge set is the point, not its completeness. *)
let potential_edges ?(cap = 4000) (s : Session.t) =
  let targets =
    Slice.Iset.union
      (Slice.members
         (Slice.compute s.Session.trace ~criteria:[ s.Session.wrong_output ]))
      (Slice.members
         (Slice.compute s.Session.trace ~criteria:s.Session.correct_outputs))
  in
  let edges = ref [] in
  let count = ref 0 in
  Slice.Iset.iter
    (fun t ->
      if !count < cap then
        List.iter
          (fun p ->
            if !count < cap then begin
              edges := (p, t) :: !edges;
              incr count
            end)
          (Relevant.pd s.Session.rel t))
    targets;
  !edges

type sanitization = {
  root_instance : int;
  conf_verified : float;  (* confidence of the root with no extra edges *)
  conf_potential : float;  (* ... with blind potential edges *)
  sanitized : bool;
}

(* Does propagating confidence over blind potential edges wrongly assign
   the root-cause instance confidence 1 (prune it as "correct")? *)
let potential_confidence_sanitizes bench fault =
  let faulty = Typecheck.parse_and_check (Bench_types.faulty_source bench fault) in
  let correct = Typecheck.parse_and_check bench.Bench_types.source in
  let input = fault.Bench_types.failing_input in
  let expected = Oracle.expected ~correct_prog:correct ~input in
  let s =
    Session.create ~prog:faulty ~input ~expected
      ~profile_inputs:bench.Bench_types.test_inputs ()
  in
  let roots = Bench_types.root_sids bench fault faulty in
  let root_instance =
    let found = ref (-1) in
    Trace.iter
      (fun i -> if !found < 0 && List.mem i.Trace.sid roots then found := i.Trace.idx)
      s.Session.trace;
    !found
  in
  let conf_of ~implicit =
    let c =
      Confidence.compute s.Session.info s.Session.profile s.Session.trace
        ~correct:s.Session.correct_outputs ~benign:[] ~implicit
    in
    Confidence.confidence c root_instance
  in
  let conf_verified = conf_of ~implicit:[] in
  let conf_potential = conf_of ~implicit:(potential_edges s) in
  {
    root_instance;
    conf_verified;
    conf_potential;
    sanitized = conf_potential >= 0.999 && conf_verified < 0.999;
  }

(* 3. Static vs union-graph condition (iv): the paper computed potential
   dependences over a "union dependence graph" collected from test runs;
   we default to a purely static analysis.  Compare the relevant-slice
   sizes and whether the root stays captured under both backends. *)

type rs_backends = {
  rs_static : int * int;  (* static size, dynamic size *)
  rs_union : int * int;
  union_pairs : int;
  root_in_static : bool;
  root_in_union : bool;
}

let compare_rs_backends bench fault =
  let faulty = Typecheck.parse_and_check (Bench_types.faulty_source bench fault) in
  let correct = Typecheck.parse_and_check bench.Bench_types.source in
  let input = fault.Bench_types.failing_input in
  let expected = Oracle.expected ~correct_prog:correct ~input in
  let s =
    Session.create ~prog:faulty ~input ~expected
      ~profile_inputs:bench.Bench_types.test_inputs ()
  in
  let trace = s.Session.trace in
  let roots = Bench_types.root_sids bench fault faulty in
  let criterion = s.Session.wrong_output in
  (* like the paper: union the dependences exercised by the test suite
     (runs of the same faulty binary), failing input included *)
  let union =
    Exom_ddg.Union_graph.collect faulty
      (input :: bench.Bench_types.test_inputs)
  in
  let slice_with rel =
    let sl = Relevant.relevant_slice rel ~criteria:[ criterion ] in
    ( (Slice.static_size sl, Slice.dynamic_size sl),
      List.exists (Slice.mem_sid sl) roots )
  in
  let rs_static, root_in_static = slice_with s.Session.rel in
  let rs_union, root_in_union =
    slice_with
      (Relevant.create
         ~observed:(Exom_ddg.Union_graph.evidence_filter union)
         s.Session.info trace)
  in
  {
    rs_static;
    rs_union;
    union_pairs = Exom_ddg.Union_graph.size union;
    root_in_static;
    root_in_union;
  }

(* 4. Critical-predicate search (ICSE'06 [18], the paper's §6 contrast):
   whole-output predicate switching, one untraced re-execution per
   candidate instance. *)

type critical_comparison = {
  critical_found : int;  (* number of critical predicates discovered *)
  critical_executions : int;
  demand_verifications : int;
  demand_found : bool;
}

let compare_with_critical_search ?(cap = 3000) bench fault =
  let faulty = Typecheck.parse_and_check (Bench_types.faulty_source bench fault) in
  let correct = Typecheck.parse_and_check bench.Bench_types.source in
  let input = fault.Bench_types.failing_input in
  let reference = Oracle.reference ~correct_prog:correct ~input in
  let expected = Oracle.reference_outputs reference in
  let s =
    Session.create ~prog:faulty ~input ~expected
      ~profile_inputs:bench.Bench_types.test_inputs ()
  in
  let crit = Exom_core.Critical.find ~cap s ~expected in
  (* fresh session for the demand-driven run (verification counters) *)
  let s2 =
    Session.create ~prog:faulty ~input ~expected
      ~profile_inputs:bench.Bench_types.test_inputs ()
  in
  let oracle = Oracle.of_reference reference ~faulty_trace:s2.Session.trace in
  let roots = Bench_types.root_sids bench fault faulty in
  let report = Demand.locate s2 ~oracle ~root_sids:roots in
  {
    critical_found = List.length crit.Exom_core.Critical.critical;
    critical_executions = crit.Exom_core.Critical.executions;
    demand_verifications = report.Demand.verifications;
    demand_found = report.Demand.found;
  }

type mode_comparison = {
  edge_report : Demand.report;
  path_report : Demand.report;
}

(* Run the locator under both VerifyDep modes on fresh sessions. *)
let compare_verify_modes ?(max_iterations = 30) bench fault =
  let run mode =
    let faulty =
      Typecheck.parse_and_check (Bench_types.faulty_source bench fault)
    in
    let correct = Typecheck.parse_and_check bench.Bench_types.source in
    let input = fault.Bench_types.failing_input in
    let reference = Oracle.reference ~correct_prog:correct ~input in
    let s =
      Session.create ~prog:faulty ~input
        ~expected:(Oracle.reference_outputs reference)
        ~profile_inputs:bench.Bench_types.test_inputs ()
    in
    let oracle = Oracle.of_reference reference ~faulty_trace:s.Session.trace in
    let roots = Bench_types.root_sids bench fault faulty in
    let config =
      { Demand.default_config with verify_mode = mode; max_iterations }
    in
    Demand.locate ~config s ~oracle ~root_sids:roots
  in
  {
    edge_report = run Verify.Edge_approximation;
    path_report = run Verify.Path_exact;
  }
