(* Tests for the benchmark suite: fault validity, the Table 1-3
   properties the paper's evaluation rests on, and end-to-end
   localization of representative faults from each benchmark. *)

module B = Exom_bench.Bench_types
module Runner = Exom_bench.Runner
module Suite = Exom_bench.Suite
module Demand = Exom_core.Demand
module Interp = Exom_interp.Interp
module Ledger = Exom_ledger.Ledger
module Pool = Exom_sched.Pool
module Typecheck = Exom_lang.Typecheck

let find_bench name =
  match Suite.find name with
  | Some b -> b
  | None -> Alcotest.failf "no benchmark %s" name

let find_fault bench fid =
  match Suite.find_fault bench fid with
  | Some f -> f
  | None -> Alcotest.failf "no fault %s" fid

(* Infrastructure *)

let test_input_encoding () =
  Alcotest.(check (list int)) "abc" [ 3; 97; 98; 99 ] (B.input_of_string "abc");
  Alcotest.(check (list int)) "empty" [ 0 ] (B.input_of_string "")

let test_fault_line_and_source () =
  let bench = find_bench "gzipsim" in
  let fault = find_fault bench "V2-F3" in
  Alcotest.(check int) "fault on line 2" 2 (B.fault_line bench fault);
  let faulty = B.faulty_source bench fault in
  Alcotest.(check bool) "replacement applied" true
    (String.length faulty = String.length bench.B.source
    && faulty <> bench.B.source)

let test_root_sids () =
  let bench = find_bench "gzipsim" in
  let fault = find_fault bench "V2-F3" in
  let prog = Typecheck.parse_and_check (B.faulty_source bench fault) in
  let roots = B.root_sids bench fault prog in
  Alcotest.(check int) "single root" 1 (List.length roots)

let test_unknown_pattern_rejected () =
  let bench = find_bench "gzipsim" in
  let bogus =
    { B.fid = "X"; description = ""; pattern = "no such line";
      replacement = ""; failing_input = [] }
  in
  match B.faulty_source bench bogus with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Benchmark programs behave correctly (the correct versions). *)

let run_correct name input =
  let bench = find_bench name in
  let prog = Typecheck.parse_and_check bench.B.source in
  Interp.output_values (Interp.run ~tracing:false prog ~input)

let test_flexsim_scans () =
  (* "let x = 42;" => keyword(3), ident(1), punct(=), number(2), punct(;) *)
  let out = run_correct "flexsim" (B.input_of_string "let x = 42;") in
  let token_stream =
    (* (kind, len) pairs precede the 9 summary values *)
    let rec take k = function
      | x :: rest when k > 0 -> x :: take (k - 1) rest
      | _ -> []
    in
    take (List.length out - 9) out
  in
  Alcotest.(check (list int))
    "token stream"
    [ 4; 3; 2; 1; 3; 1; 1; 2; 3; 1 ]
    token_stream

let test_grepsim_counts () =
  (* pattern "ab" over 4 lines, 3 contain ab (case folded) *)
  let bench = find_bench "grepsim" in
  let fault = find_fault bench "V4-F2" in
  let out = run_correct "grepsim" fault.B.failing_input in
  match out with
  | [ lines_seen; match_count; first_match; _check ] ->
    Alcotest.(check int) "lines" 4 lines_seen;
    Alcotest.(check int) "matches" 3 match_count;
    Alcotest.(check int) "first" 1 first_match
  | _ -> Alcotest.fail "unexpected output shape"

let test_gzipsim_header () =
  let out = run_correct "gzipsim" (B.input_of_string "abcabcabcxyz") in
  (match out with
  | m1 :: m2 :: meth :: flags :: _ ->
    Alcotest.(check int) "magic1" 31 m1;
    Alcotest.(check int) "magic2" 139 m2;
    Alcotest.(check int) "method" 8 meth;
    (* level bit (4) + name bit (8) *)
    Alcotest.(check int) "flags" 12 flags
  | _ -> Alcotest.fail "short output");
  (* repetitive input must produce at least one match, and the built-in
     decoder must round-trip: zero mismatches *)
  let nth_back k = List.nth out (List.length out - k) in
  Alcotest.(check bool) "lz77 found matches" true (nth_back 4 >= 1);
  Alcotest.(check int) "round trip clean" 0 (nth_back 1)

let test_gzipsim_roundtrippable () =
  (* every literal/match token must be decodable back to the input *)
  let text = "abcabcabcxyz" in
  let input = B.input_of_string text in
  let bench = find_bench "gzipsim" in
  let prog = Typecheck.parse_and_check bench.B.source in
  let run = Interp.run ~tracing:false prog ~input in
  let out = Array.of_list (Interp.output_values run) in
  (* outputs: 12 header/stream bytes, outcnt, literals, matches, crc; the
     full stream lives in outbuf, of which we see a prefix - so decode
     from a fresh run's full token list instead: re-simulate here *)
  ignore out;
  (* decode by re-running LZ77 in OCaml and comparing statistics *)
  let n = String.length text in
  let window = 16 and min_match = 3 in
  let literals = ref 0 and matches = ref 0 in
  let pos = ref 0 in
  while !pos < n do
    let best_len = ref 0 in
    let start = max 0 (!pos - window) in
    for cand = start to !pos - 1 do
      let len = ref 0 in
      while
        !pos + !len < n
        && text.[cand + !len] = text.[!pos + !len]
        && !len < 255
      do
        incr len
      done;
      if !len > !best_len then best_len := !len
    done;
    if !best_len >= min_match then begin
      incr matches;
      pos := !pos + !best_len
    end
    else begin
      incr literals;
      incr pos
    end
  done;
  let out_list = Interp.output_values run in
  (* outputs end with: ..., literals, matches, crc, dpos, mismatches *)
  let got_matches = List.nth out_list (List.length out_list - 4) in
  let got_literals = List.nth out_list (List.length out_list - 5) in
  Alcotest.(check int) "literal count agrees" !literals got_literals;
  Alcotest.(check int) "match count agrees" !matches got_matches

let test_sedsim_substitutes () =
  let out = run_correct "sedsim" (B.input_of_string "banana") in
  (* line number 1, then "bonono", newline, counters *)
  match out with
  | 1 :: rest ->
    let line = List.filteri (fun i _ -> i < 6) rest in
    Alcotest.(check (list int))
      "substituted" [ 98; 111; 110; 111; 110; 111 ] line
  | _ -> Alcotest.fail "expected line number first"

(* The benchmark sources exercise the whole front end: they must
   pretty-print and re-parse to the same statement structure, build
   CFGs for every function, and profile cleanly on their test suites. *)

let test_sources_roundtrip () =
  List.iter
    (fun b ->
      let prog = Typecheck.parse_and_check b.B.source in
      let printed = Exom_lang.Pretty.program_to_string prog in
      let reparsed = Typecheck.parse_and_check printed in
      Alcotest.(check int)
        (b.B.name ^ " statement count survives round trip")
        (Exom_lang.Ast.stmt_count prog)
        (Exom_lang.Ast.stmt_count reparsed))
    Suite.all

let test_sources_analyses () =
  List.iter
    (fun b ->
      let prog = Typecheck.parse_and_check b.B.source in
      let info = Exom_cfg.Proginfo.build prog in
      List.iter
        (fun fn ->
          let cfg = Exom_cfg.Proginfo.cfg_of info (Some fn.Exom_lang.Ast.fname) in
          Alcotest.(check bool)
            (b.B.name ^ "." ^ fn.Exom_lang.Ast.fname ^ " cfg nonempty")
            true
            (cfg.Exom_cfg.Cfg.nnodes >= 2);
          (* control dependence computes without blowing up *)
          Exom_lang.Ast.iter_stmts
            (fun s -> ignore (Exom_cfg.Proginfo.control_deps info s.Exom_lang.Ast.sid))
            fn.Exom_lang.Ast.fbody)
        prog.Exom_lang.Ast.funcs)
    Suite.all

let test_sources_pass_their_suites () =
  (* every test input runs the correct program to completion *)
  List.iter
    (fun b ->
      let prog = Typecheck.parse_and_check b.B.source in
      List.iter
        (fun input ->
          let r = Interp.run ~tracing:false prog ~input in
          Alcotest.(check bool)
            (b.B.name ^ " test input terminates normally")
            true
            (r.Interp.outcome = Ok ()))
        b.B.test_inputs)
    Suite.all

(* Fault validity: every seeded fault manifests as a wrong value. *)

let test_all_faults_valid () =
  List.iter (fun (b, f) -> Runner.validate_fault b f) Suite.rows

let test_suite_shape () =
  Alcotest.(check int) "four benchmarks" 4 (List.length Suite.all);
  Alcotest.(check bool) "at least 9 faults (paper's row count)" true
    (List.length Suite.rows >= 9)

(* End-to-end localization on one representative fault per benchmark.
   These are the paper's headline claims:
   - the dynamic slice misses the root (execution omission error),
   - the relevant slice catches it but is much bigger dynamically,
   - the demand-driven procedure locates it with few iterations/edges. *)

let check_localization ?(ips_factor = 5) name fid ~max_iterations =
  let bench = find_bench name in
  let fault = find_fault bench fid in
  let r = Runner.run_fault bench fault in
  Alcotest.(check bool) (fid ^ ": DS misses root") false r.Runner.root_in_ds;
  Alcotest.(check bool) (fid ^ ": RS catches root") true r.Runner.root_in_rs;
  Alcotest.(check bool)
    (fid ^ ": RS dynamic >= DS dynamic")
    true
    (r.Runner.rs.Runner.dynamic_size >= r.Runner.ds.Runner.dynamic_size);
  Alcotest.(check bool) (fid ^ ": located") true r.Runner.report.Demand.found;
  Alcotest.(check bool)
    (fid ^ ": few iterations")
    true
    (r.Runner.report.Demand.iterations <= max_iterations);
  Alcotest.(check bool)
    (fid ^ ": IPS is small")
    true
    (r.Runner.ips.Runner.dynamic_size * ips_factor
    <= max (25 * ips_factor) r.Runner.rs.Runner.dynamic_size)

let test_locate_gzip () = check_localization "gzipsim" "V2-F3" ~max_iterations:2
let test_locate_sed () = check_localization "sedsim" "V3-F2" ~max_iterations:2
let test_locate_flex () = check_localization "flexsim" "V5-F6" ~max_iterations:2

let test_locate_grep () =
  (* grep is the paper's hardest case: more iterations and edges *)
  check_localization ~ips_factor:2 "grepsim" "V4-F2" ~max_iterations:35

(* Scale: a trace in the tens of thousands of instances must still be
   handled, and the paper's static-vs-dynamic blowup grows with it. *)
let test_scale_gzip () =
  let bench = find_bench "gzipsim" in
  let base = "the quick brown fox jumps over the lazy dog; " in
  let big = String.concat "" (List.init 6 (fun _ -> base)) in
  let fault =
    { (find_fault bench "V2-F3") with B.failing_input = B.input_of_string big }
  in
  let r = Runner.run_fault bench fault in
  Alcotest.(check bool) "big trace" true (r.Runner.trace_length > 10_000);
  Alcotest.(check bool) "still located" true r.Runner.report.Demand.found;
  Alcotest.(check bool) "few verifications" true
    (r.Runner.report.Demand.verifications <= 10);
  (* RS dynamic blowup grows with trace size (paper: orders of magnitude) *)
  Alcotest.(check bool) "RS dynamic >> RS static" true
    (r.Runner.rs.Runner.dynamic_size > 100 * r.Runner.rs.Runner.static_size)

(* Ablations *)

let test_potential_confidence_sanitizes_gzip () =
  (* §3.2's rejected alternative, on the paper's own example: blind
     potential edges raise the faulty save_orig_name's confidence to 1 *)
  let bench = find_bench "gzipsim" in
  let fault = find_fault bench "V2-F3" in
  let s = Exom_bench.Ablation.potential_confidence_sanitizes bench fault in
  Alcotest.(check bool) "verified graph leaves root suspicious" true
    (s.Exom_bench.Ablation.conf_verified < 0.5);
  Alcotest.(check bool) "potential edges sanitize the root" true
    s.Exom_bench.Ablation.sanitized

let test_union_graph_backend () =
  (* the union-dependence-graph condition (iv): never loses the root,
     prunes false pairs — sharply on gzip V2-F3 *)
  let bench = find_bench "gzipsim" in
  let fault = find_fault bench "V2-F3" in
  let r = Exom_bench.Ablation.compare_rs_backends bench fault in
  Alcotest.(check bool) "root kept under static (iv)" true
    r.Exom_bench.Ablation.root_in_static;
  Alcotest.(check bool) "root kept under union (iv)" true
    r.Exom_bench.Ablation.root_in_union;
  let _, sd = r.Exom_bench.Ablation.rs_static in
  let _, ud = r.Exom_bench.Ablation.rs_union in
  Alcotest.(check bool) "union RS no larger" true (ud <= sd);
  Alcotest.(check bool) "union RS much smaller here" true (ud * 2 < sd)

let test_verify_modes_agree_on_suite () =
  (* the paper: "we have not encountered such a case in our study" —
     edge and path mode locate the same faults here too *)
  let bench = find_bench "sedsim" in
  let fault = find_fault bench "V3-F2" in
  let c = Exom_bench.Ablation.compare_verify_modes bench fault in
  Alcotest.(check bool) "edge mode finds" true
    c.Exom_bench.Ablation.edge_report.Demand.found;
  Alcotest.(check bool) "path mode finds" true
    c.Exom_bench.Ablation.path_report.Demand.found

let test_critical_search_comparison () =
  (* gzip V2-F3 (the paper's Figure 1): the flags bit and the name bytes
     hang under two instances of the faulty condition, so no single flip
     repairs the output — whole-output critical-predicate search finds
     nothing while the demand-driven technique locates the root *)
  let bench = find_bench "gzipsim" in
  let fault = find_fault bench "V2-F3" in
  let c = Exom_bench.Ablation.compare_with_critical_search bench fault in
  Alcotest.(check int) "no critical predicate exists" 0
    c.Exom_bench.Ablation.critical_found;
  Alcotest.(check bool) "demand-driven still locates" true
    c.Exom_bench.Ablation.demand_found;
  Alcotest.(check bool) "critical search cost is high" true
    (c.Exom_bench.Ablation.critical_executions
    > 10 * c.Exom_bench.Ablation.demand_verifications)

(* Robustness: a seed sweep of injected faults over real benchmark
   localizations.  Whatever the chaos does to the switched
   re-executions — crashes, truncated budgets, corrupted values, raw
   exceptions — the locator must return a report, and its robustness
   accounting must add up. *)
let test_chaos_sweep_never_raises () =
  let cases = [ ("gzipsim", "V2-F3"); ("sedsim", "V3-F2") ] in
  List.iter
    (fun (name, fid) ->
      let bench = find_bench name in
      let fault = find_fault bench fid in
      for seed = 0 to 19 do
        let chaos = Exom_interp.Chaos.of_seed seed in
        let label fmt =
          Printf.ksprintf
            (fun s ->
              Printf.sprintf "%s %s seed %d (%s): %s" name fid seed
                (Exom_interp.Chaos.fault_to_string chaos.Exom_interp.Chaos.fault)
                s)
            fmt
        in
        let r =
          try Runner.run_fault ~chaos bench fault
          with exn -> Alcotest.failf "%s" (label "raised %s" (Printexc.to_string exn))
        in
        let g = r.Runner.robustness in
        let module G = Exom_core.Guard in
        Alcotest.(check int)
          (label "every re-execution accounted")
          r.Runner.report.Demand.verifications
          (g.G.completed + g.G.aborted);
        Alcotest.(check bool)
          (label "retries bounded by aborts")
          true (g.G.retried <= g.G.aborted);
        Alcotest.(check bool)
          (label "counters non-negative")
          true
          (g.G.completed >= 0 && g.G.aborted >= 0 && g.G.retried >= 0
          && g.G.deadline_expired >= 0 && g.G.breaker_trips >= 0
          && g.G.breaker_skips >= 0 && g.G.captured >= 0);
        Alcotest.(check bool)
          (label "journal covers skips")
          true
          (List.length r.Runner.report.Demand.failures >= g.G.breaker_skips)
      done)
    cases

let test_chaos_free_runs_report_clean () =
  (* without chaos, the benchmark rows must report a clean bill: no
     retries, trips, skips, deadline expirations or captures (aborted
     switched runs are legitimate — a switch may genuinely hang) *)
  let bench = find_bench "sedsim" in
  let fault = find_fault bench "V3-F2" in
  let r = Runner.run_fault bench fault in
  let module G = Exom_core.Guard in
  let g = r.Runner.robustness in
  Alcotest.(check int) "no breaker trips" 0 g.G.breaker_trips;
  Alcotest.(check int) "no skips" 0 g.G.breaker_skips;
  Alcotest.(check int) "no captures" 0 g.G.captured;
  Alcotest.(check int) "no deadline expirations" 0 g.G.deadline_expired;
  Alcotest.(check int) "accounted" r.Runner.report.Demand.verifications
    (g.G.completed + g.G.aborted)

(* MD5 of each suite fault's canonical ledger, the bytes [exom bench B F
   --ledger-out] writes, as the from-scratch analysis produced it.  The
   ledger holds every slice snapshot with its confidence values and
   distances, every verification and every edge, so an analysis
   shortcut that moves any of them fails here, at any job count. *)
let pinned_ledgers =
  [
    ("flexsim", "V1-F9", "b0ec47d7c191ba0a25d60c65b8871540");
    ("flexsim", "V2-F14", "b9bcd7476ddf9fea24132519674d4c69");
    ("flexsim", "V3-F10", "93185891a50398851f94fc1d9b676f24");
    ("flexsim", "V4-F6", "99ace0bba3c59b612042b1404d71c909");
    ("flexsim", "V5-F6", "e0e892a06b6139c7d0432511393a4e8f");
    ("grepsim", "V4-F2", "1c747b2cd637d5c5057bc6543b382154");
    ("grepsim", "V5-F1", "e09860eea3766787d828109ec45e1b90");
    ("grepsim", "V4-F5", "c114aea3b77ef4c5ab9142d395ac3566");
    ("gzipsim", "V2-F3", "b00484a429c1f88f29d85ebdbe91771f");
    ("gzipsim", "V2-F9", "f067a00d42ded56f134ffd06363a0c1f");
    ("gzipsim", "V2-F7", "1616c3ed344f77dd20fc8b4f92e05806");
    ("sedsim", "V3-F2", "2c9dcb990d930765980dad58bd3a84a7");
    ("sedsim", "V3-F3", "b716fe805e3ef2765c5d96c7093f47d0");
  ]

let test_ledgers_pinned () =
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          List.iter
            (fun (name, fid, md5) ->
              let ledger = Ledger.create () in
              ignore
                (Runner.run_fault ~pool ~ledger (find_bench name)
                   (find_fault (find_bench name) fid));
              Alcotest.(check string)
                (Printf.sprintf "%s %s ledger at -j%d" name fid jobs)
                md5
                (Digest.to_hex (Digest.string (Ledger.to_string ledger))))
            pinned_ledgers))
    [ 1; 2 ]

let test_sed_cascade_two_edges () =
  (* the two-deep omission cascade needs exactly two expansions along
     strong implicit dependence edges (the paper's sed V3-F2 row) *)
  let bench = find_bench "sedsim" in
  let fault = find_fault bench "V3-F2" in
  let r = Runner.run_fault bench fault in
  Alcotest.(check int) "2 iterations" 2 r.Runner.report.Demand.iterations;
  Alcotest.(check int) "2 edges" 2 r.Runner.report.Demand.expanded_edges

(* {2 Perf snapshots: the registry behind BENCH_exom.json and regress} *)

module Perf = Exom_bench.Perf
module Metrics = Exom_obs.Metrics
module Json = Exom_obs.Json

(* A hand-made snapshot: one suite fault, the suite totals, both store
   passes (100 queries each) and, optionally, a corpus leg. *)
let snapshot ?(found = true) ?(switched_runs = 100) ?(built = 5000)
    ?(compiles = 1) ?(warm_hits = 95) ?(warm_runs = 0) ?(wall = 1.0) ?traced ?corpus () =
  let reg = Metrics.create () in
  List.iter
    (fun (name, v) -> Metrics.add reg name v)
    [ ("suite.gzipsim.V2-F3.found", Bool.to_int found);
      ("suite.gzipsim.V2-F3.queries", 10);
      ("suite.faults", 1);
      ("suite.located", Bool.to_int found);
      ("suite.queries", 10);
      ("suite.switched_runs", switched_runs);
      ("suite.interp_runs", 100);
      ("suite.built_records", built);
      ("suite.compiles", compiles);
      ("store.prime.hits", 50);
      ("store.prime.queries", 100);
      ("store.warm.hits", warm_hits);
      ("store.warm.queries", 100);
      ("store.warm.switched_runs", warm_runs) ];
  Metrics.observe reg "suite.wall" wall;
  Metrics.observe reg "suite.verify" 0.1;
  Option.iter (Metrics.observe reg "suite.traced_wall") traced;
  Option.iter
    (fun (seed, located, failed) ->
      List.iter
        (fun (name, v) -> Metrics.add reg name v)
        [ ("corpus.seed", seed); ("corpus.count", 10); ("corpus.total", 10);
          ("corpus.located", located); ("corpus.failed", failed);
          ("corpus.iterations", 5); ("corpus.verifications", 22) ];
      Metrics.observe reg "corpus.wall" 3.0)
    corpus;
  reg

let regress ?(tolerance = 0.1) ?(time_tolerance = 0.5) older newer =
  Perf.drift ~tolerance ~time_tolerance older newer

let breaches findings =
  List.filter_map
    (fun f -> if f.Metrics.d_breach then Some f.Metrics.d_name else None)
    findings

let check_clean what findings =
  Alcotest.(check (list string)) what [] (breaches findings)

let check_breach what name findings =
  Alcotest.(check bool) what true (List.mem name (breaches findings))

let load_string content =
  let path = Filename.temp_file "exom_perf" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc content);
      Perf.load path)

let load_ok content =
  match load_string content with
  | Ok reg -> reg
  | Error e -> Alcotest.failf "snapshot rejected: %s" e

let roundtrip reg =
  let path = Filename.temp_file "exom_perf" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Exom_util.Vfs.get_ok (Exom_obs.Export.write_metrics path reg);
      match Perf.load path with
      | Ok reg -> reg
      | Error e -> Alcotest.failf "snapshot does not read back: %s" e)

(* A pre-registry [exom.bench] line over one located gzipsim row. *)
let legacy_line ~version ?(drop = []) () =
  let n x = Json.Num x in
  Json.to_string
    (Json.Obj
       (List.filter
          (fun (k, _) -> not (List.mem k drop))
          [ ("schema", Json.Str "exom.bench");
            ("version", n (float_of_int version));
            ("label", Json.Str "old");
            ("jobs", n 1.0);
            ("located", n 1.0);
            ("total", n 1.0);
            ("verify_runs", n 100.0);
            ("verify_seconds", n 0.1);
            ("interp_runs", n 100.0);
            ("store_hit_rate", n 0.5);
            ("warm_hit_rate", n 0.95);
            ("warm_verify_runs", n 0.0);
            ("wall_seconds", n 1.0);
            ("traced_wall_seconds", n 2.0);
            ( "rows",
              Json.Arr
                [ Json.Obj
                    [ ("bench", Json.Str "gzipsim");
                      ("fault", Json.Str "V2-F3");
                      ("found", Json.Bool true);
                      ("verifications", n 5.0);
                      ("queries", n 10.0);
                      ("iterations", n 2.0);
                      ("edges", n 3.0);
                      ("prunings", n 7.0) ] ] ) ]))

let test_perf_roundtrip () =
  let reg = snapshot ~traced:2.0 ~corpus:(1, 10, 0) () in
  Alcotest.(check string) "registry log reads back unchanged"
    (Metrics.render reg) (Metrics.render (roundtrip reg));
  (match load_string {|{"schema":"exom.bench","version":99}|} with
  | Ok _ -> Alcotest.fail "version skew accepted"
  | Error _ -> ());
  (* a torn registry log would compare fewer metrics: refused *)
  let path = Filename.temp_file "exom_perf" ".jsonl" in
  Exom_util.Vfs.get_ok (Exom_obs.Export.write_metrics path reg);
  let content = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  match load_string (String.sub content 0 (String.length content - 8)) with
  | Ok _ -> Alcotest.fail "torn snapshot accepted"
  | Error _ -> ()

let test_perf_v1_compat () =
  (* a v1 line predates the warm pass: it reads without warm metrics,
     and their absence is no baseline, not a drop *)
  let v1 =
    load_ok
      (legacy_line ~version:1
         ~drop:[ "warm_hit_rate"; "warm_verify_runs"; "traced_wall_seconds" ]
         ())
  in
  Alcotest.(check bool) "no warm metrics" true
    (Metrics.find v1 "store.warm.switched_runs" = None);
  Alcotest.(check int) "rows map onto the same names" 1
    (Metrics.counter_value v1 "suite.gzipsim.V2-F3.found");
  check_clean "no spurious warm regression"
    (regress v1 (snapshot ~warm_runs:3 ~warm_hits:10 ()))

let test_perf_v3_compat_and_traced_gate () =
  (* v3 predates the traced pass: the traced timer is gated only when
     both sides measured it *)
  let v3 =
    load_ok (legacy_line ~version:3 ~drop:[ "traced_wall_seconds" ] ())
  in
  let s = snapshot ~traced:2.0 () in
  Alcotest.(check bool) "no traced timer" true
    (Metrics.find v3 "suite.traced_wall" = None);
  let findings = regress v3 s in
  check_clean "v3 against its registry twin" findings;
  Alcotest.(check bool) "no traced gate without both sides" false
    (List.exists (fun f -> f.Metrics.d_name = "suite.traced_wall.us") findings);
  let v4 = load_ok (legacy_line ~version:4 ()) in
  Alcotest.(check (float 0.0)) "v4 keeps the traced wall" 2.0
    (Metrics.timer_seconds v4 "suite.traced_wall");
  check_breach "traced slowdown beyond tolerance flagged"
    "suite.traced_wall.us"
    (regress s (snapshot ~traced:9.0 ()))

let test_perf_compare () =
  let old_s = snapshot () in
  check_clean "small drift tolerated"
    (regress old_s (snapshot ~switched_runs:105 ~wall:1.1 ()));
  check_breach "count growth flagged" "suite.switched_runs"
    (regress old_s (snapshot ~switched_runs:150 ()));
  check_breach "lost prefix sharing flagged" "suite.built_records"
    (regress old_s (snapshot ~built:8000 ()));
  check_breach "compiling per run flagged" "suite.compiles"
    (regress old_s (snapshot ~compiles:100 ()));
  let missed = regress ~tolerance:1e6 old_s (snapshot ~found:false ()) in
  check_breach "lost localization flagged at any tolerance"
    "suite.gzipsim.V2-F3.found" missed;
  check_breach "located total flagged" "suite.located" missed;
  let faster = regress old_s (snapshot ~switched_runs:50 ()) in
  check_clean "improvement is not a regression" faster;
  Alcotest.(check bool) "improvement is still reported" true (faster <> []);
  check_breach "timing growth flagged" "suite.wall.us"
    (regress old_s (snapshot ~wall:3.0 ()))

let test_perf_warm_regression () =
  let old_s = snapshot () in
  check_breach "warm hit rate collapse flagged" "store.warm.hit_ppm"
    (regress old_s (snapshot ~warm_hits:40 ()));
  check_breach "warm dispatches flagged from a zero baseline"
    "store.warm.switched_runs"
    (regress old_s (snapshot ~warm_runs:7 ()));
  check_clean "warm improvement is not a regression"
    (regress ~tolerance:0.03 old_s (snapshot ~warm_hits:100 ()))

let test_perf_corpus_leg () =
  let old_s = snapshot ~corpus:(1, 10, 0) () in
  Alcotest.(check string) "the leg reads back unchanged"
    (Metrics.render old_s) (Metrics.render (roundtrip old_s));
  check_breach "corpus located drop flagged" "corpus.located"
    (regress old_s (snapshot ~corpus:(1, 8, 0) ()));
  check_clean "baseline without the leg is no baseline"
    (regress (snapshot ()) old_s)

let test_perf_corpus_failed () =
  check_breach "a failed corpus row breaches from zero" "corpus.failed"
    (regress (snapshot ~corpus:(1, 10, 0) ()) (snapshot ~corpus:(1, 10, 1) ()))

let test_perf_corpus_absent () =
  check_breach "a corpus leg missing on the new side breaches"
    "corpus.located"
    (regress (snapshot ~corpus:(1, 10, 0) ()) (snapshot ()))

let test_perf_corpus_seed () =
  check_breach "another corpus is no baseline: breach" "corpus.seed"
    (regress (snapshot ~corpus:(1, 10, 0) ()) (snapshot ~corpus:(2, 10, 0) ()))

(* The v3 baseline committed before snapshots became registries. *)
let committed_v3 =
  {|{"schema":"exom.bench","version":3,"label":"ranked 2026-08-08",|}
  ^ {|"jobs":2,"located":13,"total":13,"verify_runs":291,|}
  ^ {|"verify_seconds":0.428364,"interp_runs":304,"store_hit_rate":0,|}
  ^ {|"warm_hit_rate":1,"warm_verify_runs":0,"wall_seconds":1.062655,|}
  ^ {|"rows":[{"bench":"flexsim","fault":"V1-F9","found":true,|}
  ^ {|"verifications":27,"queries":27,"iterations":2,"edges":2,|}
  ^ {|"prunings":116},{"bench":"flexsim","fault":"V2-F14","found":true,|}
  ^ {|"verifications":7,"queries":7,"iterations":2,"edges":2,|}
  ^ {|"prunings":180},{"bench":"flexsim","fault":"V3-F10","found":true,|}
  ^ {|"verifications":16,"queries":16,"iterations":1,"edges":4,|}
  ^ {|"prunings":302},{"bench":"flexsim","fault":"V4-F6","found":true,|}
  ^ {|"verifications":31,"queries":31,"iterations":1,"edges":4,|}
  ^ {|"prunings":299},{"bench":"flexsim","fault":"V5-F6","found":true,|}
  ^ {|"verifications":2,"queries":2,"iterations":1,"edges":1,|}
  ^ {|"prunings":244},{"bench":"grepsim","fault":"V4-F2","found":true,|}
  ^ {|"verifications":83,"queries":131,"iterations":27,"edges":92,|}
  ^ {|"prunings":155},{"bench":"grepsim","fault":"V5-F1","found":true,|}
  ^ {|"verifications":72,"queries":106,"iterations":13,"edges":55,|}
  ^ {|"prunings":82},{"bench":"grepsim","fault":"V4-F5","found":true,|}
  ^ {|"verifications":21,"queries":21,"iterations":2,"edges":8,|}
  ^ {|"prunings":100},{"bench":"gzipsim","fault":"V2-F3","found":true,|}
  ^ {|"verifications":7,"queries":7,"iterations":1,"edges":1,|}
  ^ {|"prunings":16},{"bench":"gzipsim","fault":"V2-F9","found":true,|}
  ^ {|"verifications":9,"queries":44,"iterations":3,"edges":17,|}
  ^ {|"prunings":167},{"bench":"gzipsim","fault":"V2-F7","found":true,|}
  ^ {|"verifications":5,"queries":16,"iterations":2,"edges":2,|}
  ^ {|"prunings":81},{"bench":"sedsim","fault":"V3-F2","found":true,|}
  ^ {|"verifications":4,"queries":4,"iterations":2,"edges":2,|}
  ^ {|"prunings":243},{"bench":"sedsim","fault":"V3-F3","found":true,|}
  ^ {|"verifications":7,"queries":7,"iterations":1,"edges":2,|}
  ^ {|"prunings":96}],"corpus":{"seed":1,"count":30,"located":28,|}
  ^ {|"total":30,"failed":0,"mean_iterations":1.266667,|}
  ^ {|"mean_verifications":12.033333,"wall_seconds":9.853956}}|}

(* The registry a current run writes for the same counts.  Its store
   passes count 431 store queries, not the suite's 419 verification
   queries, so only the hit rates can match: they are what is
   compared. *)
let registry_twin () =
  let reg = Metrics.create () in
  List.iter
    (fun fault -> Metrics.add reg ("suite." ^ fault ^ ".found") 1)
    [ "flexsim.V1-F9"; "flexsim.V2-F14"; "flexsim.V3-F10"; "flexsim.V4-F6";
      "flexsim.V5-F6"; "grepsim.V4-F2"; "grepsim.V5-F1"; "grepsim.V4-F5";
      "gzipsim.V2-F3"; "gzipsim.V2-F9"; "gzipsim.V2-F7"; "sedsim.V3-F2";
      "sedsim.V3-F3" ];
  List.iter
    (fun (name, v) -> Metrics.add reg name v)
    [ ("suite.jobs", 2); ("suite.faults", 13); ("suite.located", 13);
      ("suite.queries", 419); ("suite.switched_runs", 291);
      ("suite.interp_runs", 304); ("store.prime.hits", 0);
      ("store.prime.queries", 431); ("store.warm.hits", 431);
      ("store.warm.queries", 431); ("store.warm.switched_runs", 0);
      ("corpus.seed", 1); ("corpus.count", 30); ("corpus.total", 30);
      ("corpus.located", 28); ("corpus.failed", 0);
      ("corpus.iterations", 38); ("corpus.verifications", 361) ];
  List.iter
    (fun (name, s) -> Metrics.observe reg name s)
    [ ("suite.wall", 0.9); ("suite.verify", 0.5); ("suite.traced_wall", 1.2);
      ("corpus.wall", 3.4) ];
  reg

let test_perf_committed_v3_clean () =
  let findings =
    regress ~tolerance:0.0 ~time_tolerance:1000.0 (load_ok committed_v3)
      (registry_twin ())
  in
  check_clean "committed v3 line vs registry twin" findings

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run ~and_exit:false "bench"
    [ ( "infrastructure",
        [ tc "input encoding" test_input_encoding;
          tc "fault line and source" test_fault_line_and_source;
          tc "root sids" test_root_sids;
          tc "unknown pattern" test_unknown_pattern_rejected;
          tc "suite shape" test_suite_shape ] );
      ( "program semantics",
        [ tc "flexsim scans" test_flexsim_scans;
          tc "grepsim counts" test_grepsim_counts;
          tc "gzipsim header" test_gzipsim_header;
          tc "gzipsim statistics" test_gzipsim_roundtrippable;
          tc "sedsim substitutes" test_sedsim_substitutes ] );
      ( "front-end coverage",
        [ tc "sources round-trip" test_sources_roundtrip;
          tc "static analyses" test_sources_analyses;
          tc "test suites pass" test_sources_pass_their_suites ] );
      ("fault validity", [ tc "all faults manifest" test_all_faults_valid ]);
      ( "localization",
        [ slow "gzip V2-F3 (figure 1)" test_locate_gzip;
          slow "sed V3-F2 (cascade)" test_locate_sed;
          slow "flex V5-F6" test_locate_flex;
          slow "grep V4-F2 (hardest)" test_locate_grep;
          slow "sed cascade needs 2 edges" test_sed_cascade_two_edges;
          slow "gzip at scale (35k instances)" test_scale_gzip;
          slow "ledgers pinned at -j1, -j2" test_ledgers_pinned ] );
      ( "robustness",
        [ slow "20-seed chaos sweep never raises" test_chaos_sweep_never_raises;
          slow "chaos-free runs report clean" test_chaos_free_runs_report_clean
        ] );
      ( "ablations",
        [ slow "potential-edge confidence sanitizes gzip"
            test_potential_confidence_sanitizes_gzip;
          slow "edge and path modes agree on the suite"
            test_verify_modes_agree_on_suite;
          slow "union-graph condition (iv)" test_union_graph_backend;
          slow "critical-predicate search fails where demand succeeds"
            test_critical_search_comparison ] ) ];
  (* The snapshot cases are a suite of their own: Alcotest pads every
     group to the widest name of its run and cuts case names to fit the
     line, and under "front-end coverage" the longer ones would print
     cut. *)
  Alcotest.run "perf"
    [ ( "perf",
        [ tc "snapshot round-trip" test_perf_roundtrip;
          tc "v1 snapshot compatibility" test_perf_v1_compat;
          tc "v3 compatibility and traced gate"
            test_perf_v3_compat_and_traced_gate;
          tc "regression comparator" test_perf_compare;
          tc "warm-store regression gates" test_perf_warm_regression;
          tc "corpus leg round-trip and gates" test_perf_corpus_leg;
          tc "corpus failed row breaches" test_perf_corpus_failed;
          tc "absent corpus leg breaches" test_perf_corpus_absent;
          tc "seed-mismatched corpus leg breaches" test_perf_corpus_seed;
          tc "committed v3 baseline is clean at zero tolerance"
            test_perf_committed_v3_clean ] ) ]
