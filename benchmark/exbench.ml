(* The exom benchmark harness.

     exbench --workload W --seed N --seconds S --trace 0|1

   Every call into the locator goes through a public entry point, and
   every layer is timed from outside.  With [--trace 0] a workload is
   run in closed loop (one caller, one job) for [S] seconds and the
   end-to-end metrics are reported, in CPU time scaled to a fixed
   machine speed (see {!Speed}); with [--trace 1] the same workload
   is run untraced and traced, the program's own spans and counters are
   read back, and the per-layer metrics are reported.  The last line of
   standard output is the result object of {!Kit.result_to_string}; the
   lines before it list every metric of the run by name and unit.  Any
   failed correctness check makes the exit code 1.  See README.md. *)

module Ast = Exom_lang.Ast
module Typecheck = Exom_lang.Typecheck
module Interp = Exom_interp.Interp
module Slice = Exom_ddg.Slice
module Relevant = Exom_ddg.Relevant
module Confidence = Exom_conf.Confidence
module Prune = Exom_conf.Prune
module Session = Exom_core.Session
module Oracle = Exom_core.Oracle
module Demand = Exom_core.Demand
module Recover = Exom_core.Recover
module Guard = Exom_core.Guard
module Store = Exom_sched.Store
module Pool = Exom_sched.Pool
module Campaign = Exom_corpus.Campaign
module Factory = Exom_corpus.Factory
module Seeder = Exom_corpus.Seeder
module Obs = Exom_obs.Obs
module Metrics = Exom_obs.Metrics
module Span = Exom_obs.Span
module B = Exom_bench.Bench_types
module Suite = Exom_bench.Suite

let now = Unix.gettimeofday

(* Process CPU time.  The locator runs inline on this one thread (a
   one-job pool starts no worker), and a localization in memory does no
   I/O, so this is the time its work takes, without time spent waiting
   for a processor.  It still stretches when a shared processor runs
   slower; see {!Speed}. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [timed ~clock f] runs [f] and returns its result and the seconds it
   took on [clock] (wall time by default). *)
let timed ?(clock = now) f =
  let t0 = clock () in
  let r = f () in
  (r, clock () -. t0)

let ms s = 1000. *. s
let sum_by f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* [clock acc f] runs [f], adding its wall time to [acc]. *)
let clock acc f =
  let r, dt = timed f in
  acc := !acc +. dt;
  r

(* The corpus workload uses one fixed corpus — seed 1 and the mixed
   family, like the corpus leg of BENCH_exom.json — so that every run
   measures the same triples; the workload seed orders them.  The first
   25 triples: with 30, both p50 and p90 fell exactly on the boundary
   between two triples' samples, where the reported value is one
   triple's slowest sample. *)
let corpus_seed = 1
let corpus_count = 25

(* {2 Correctness bookkeeping} *)

type book = { mutable attempted : int; mutable failed : int }

let book = { attempted = 0; failed = 0 }
let global_ok = ref true

(* a failed operation: counted in [failed] *)
let op_failed fmt =
  Printf.ksprintf
    (fun msg ->
      book.failed <- book.failed + 1;
      prerr_endline ("exbench: FAILED: " ^ msg))
    fmt

(* a failed whole-run check (e.g. the manifest changed between passes) *)
let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        global_ok := false;
        prerr_endline ("exbench: CHECK FAILED: " ^ msg)
      end)
    fmt

(* The first answer seen for a key is the reference every later answer
   (later passes, the traced run) must equal. *)
let reference : (string, string) Hashtbl.t = Hashtbl.create 64

let same_as_before ~what key v =
  match Hashtbl.find_opt reference key with
  | None -> Hashtbl.replace reference key v
  | Some v0 ->
    if v <> v0 then op_failed "%s %s changed: %s -> %s" what key v0 v

(* {2 Workload items} *)

type item = {
  id : string;
  faulty_src : string;
  correct_src : string;
  faulty : Ast.program;
  correct : Ast.program;
  input : int list;
  expected : int list;
  profile_inputs : int list list;
  root_sids : int list;
  triple : Campaign.triple option;
}

let suite_items () =
  List.map
    (fun (bench, fault) ->
      let faulty_src = B.faulty_source bench fault in
      let faulty = Typecheck.parse_and_check faulty_src in
      let correct = Typecheck.parse_and_check bench.B.source in
      let input = fault.B.failing_input in
      {
        id = bench.B.name ^ "/" ^ fault.B.fid;
        faulty_src;
        correct_src = bench.B.source;
        faulty;
        correct;
        input;
        expected = Oracle.expected ~correct_prog:correct ~input;
        profile_inputs = bench.B.test_inputs;
        root_sids = B.root_sids bench fault faulty;
        triple = None;
      })
    Suite.rows

(* profile inputs as [Campaign.run_triple] uses them *)
let triple_item (t : Campaign.triple) =
  let faulty = Typecheck.parse_and_check t.Campaign.t_faulty in
  let correct = Typecheck.parse_and_check t.Campaign.t_correct in
  let input = t.Campaign.t_input in
  {
    id = t.Campaign.t_id;
    faulty_src = t.Campaign.t_faulty;
    correct_src = t.Campaign.t_correct;
    faulty;
    correct;
    input;
    expected = Oracle.expected ~correct_prog:correct ~input;
    profile_inputs = [ input ];
    root_sids = t.Campaign.t_root_sids;
    triple = Some t;
  }

(* Fisher-Yates under a state derived from (seed, pass). *)
let permute ~seed ~pass items =
  let a = Array.of_list items in
  let st = Random.State.make [| seed; pass; 0x0b5e |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* {2 Scratch directory}

   The traced corpus run's campaign state lives under [.bench_work/] in
   the working directory and is removed on exit. *)

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let work_root = ".bench_work"

let fresh_work_dir workload =
  if not (Sys.file_exists work_root) then Sys.mkdir work_root 0o755;
  let d =
    Filename.concat work_root (Printf.sprintf "%s-%d" workload (Unix.getpid ()))
  in
  rm_rf d;
  Sys.mkdir d 0o755;
  d

(* {2 One localization, in memory}

   Session.create + Oracle.create + Demand.locate with a fresh
   memory-only store and no ledger. *)

type located = {
  session : Session.t;
  report : Demand.report;
  obs : Obs.t;
  create_s : float;
  locate_steps : int;  (* interpreter steps during Demand.locate *)
  locate_runs : int;  (* interpreter runs during Demand.locate *)
}

let localize ~trace ~pool it =
  let obs = Obs.create ~trace () in
  let session, create_s =
    timed (fun () ->
        Session.create ~obs ~prog:it.faulty ~input:it.input
          ~expected:it.expected ~profile_inputs:it.profile_inputs ())
  in
  let reg = Obs.metrics obs in
  let steps0 = Metrics.counter_value reg "interp.steps" in
  let runs0 = Metrics.counter_value reg "interp.runs" in
  let oracle =
    Oracle.create ~faulty_trace:session.Session.trace ~correct_prog:it.correct
      ~input:it.input
  in
  let report = Demand.locate ~pool session ~oracle ~root_sids:it.root_sids in
  {
    session;
    report;
    obs;
    create_s;
    locate_steps = Metrics.counter_value reg "interp.steps" - steps0;
    locate_runs = Metrics.counter_value reg "interp.runs" - runs0;
  }

(* The deterministic part of a report: what every pass, and the traced
   run, must reproduce exactly. *)
let signature (r : Demand.report) =
  Printf.sprintf "found=%b verifications=%d queries=%d iterations=%d edges=%d"
    r.Demand.found r.Demand.verifications r.Demand.verify_queries
    r.Demand.iterations r.Demand.expanded_edges

(* A localization that came back degraded, changed its counts, or — on
   the suite, the paper's faults, which the locator must all find —
   missed its root cause is a failed operation.  Not locating a
   generated triple is an outcome, not a failure. *)
let check_report ~must_locate it (r : Demand.report) =
  let f0 = book.failed in
  (match r.Demand.degraded with
  | Some why -> op_failed "%s: degraded (%s)" it.id why
  | None ->
    if must_locate && not r.Demand.found then op_failed "%s: not located" it.id);
  same_as_before ~what:"report" it.id (signature r);
  book.failed = f0

(* One attempted operation: [Some (result, seconds on clock)], or
   [None] when it raised. *)
let attempt ?clock it f =
  book.attempted <- book.attempted + 1;
  match timed ?clock f with
  | exception e ->
    op_failed "%s: raised %s" it.id (Printexc.to_string e);
    None
  | r -> Some r

(* {2 Campaign operations} *)

let journal_path dir id =
  Filename.concat (Filename.concat dir "journals") (id ^ ".jsonl")

let fresh_campaign dir =
  Campaign.reset dir;
  Campaign.ensure_layout dir

(* A row with status error/no_failure is a failed operation
   (not_located is not); so is a row that differs from the first row of
   its triple, or — [cold] given — from its row in [cold]. *)
let check_row ?cold it row =
  let f0 = book.failed in
  (match row.Campaign.o_status with
  | "located" | "not_located" -> ()
  | s -> op_failed "%s: row status %s" it.id s);
  let text = Campaign.outcome_to_string row in
  (match cold with
  | None -> same_as_before ~what:"row" ("row/" ^ it.id) text
  | Some tbl ->
    if Hashtbl.find_opt tbl it.id <> Some text then
      op_failed "%s: replayed row differs from its cold row" it.id);
  book.failed = f0

let run_triple ~pool ~dir it =
  attempt it (fun () -> Campaign.run_triple ~pool ~dir (Option.get it.triple))

(* Every triple's journal must end in a Final event before a replay. *)
let check_complete ~dir items =
  List.iter
    (fun it ->
      match Recover.plan_of_file (journal_path dir it.id) with
      | Ok p -> check p.Recover.complete "%s: journal lacks a Final event" it.id
      | Error e -> check false "%s: journal unreadable: %s" it.id e)
    items

(* {2 Workloads} *)

type kind = Suite | Corpus

type workload = {
  kind : kind;
  items : item list;
  setup_s : float;  (* median over the set-up repetitions, scaled *)
  raw_setup_s : float;  (* the same, CPU seconds *)
  gen : (Campaign.manifest * float) option;  (* manifest, generate wall *)
  dir : string option;  (* campaign directory of the traced corpus run *)
}

(* {2 Machine speed}

   The machine is shared, and its speed drifts by more than half over
   minutes: one suite pass took 555 ms at one time and 900 ms at
   another, in CPU time as much as in wall time, so the time is not
   taken from the process; the processor runs it slower.  A fixed
   reference computation slows down with the localizations: over five
   suite runs whose CPU-time throughput had a quartile spread of 0.18,
   the throughput scaled by the reference speed had one of 0.06.  The
   gated times are therefore CPU times scaled to a machine on which one
   reference call takes [nominal_ms].  The reference calls take about a
   tenth of the time of the work they scale and run right after it, not
   between localizations, whose caches they would disturb. *)

module Speed = struct
  module IM = Map.Make (Int)

  (* Allocation, lookups and a persistent map: the locator's kind of
     work, none of its code.  Everything it allocates dies young (the
     map is dropped every 64 steps), so that the calls neither grow the
     heap nor leave the collector work that a localization would pay
     for. *)
  let reference () =
    let m = ref IM.empty and acc = ref 0 in
    for i = 0 to 19_999 do
      if i land 63 = 0 then begin
        acc := !acc + IM.cardinal !m;
        m := IM.empty
      end;
      let l = List.init (i land 7) (fun k -> k * i) in
      m := IM.add ((i * 7919) land 2047) (List.fold_left ( + ) 0 l :: l) !m
    done;
    !acc

  (* a round figure near one reference call's CPU time on the machine
     the baseline was recorded on; it only sets the unit *)
  let nominal_ms = 3.0
  let share = 0.1

  type t = { mutable ref_s : float; mutable calls : int }

  let create () = { ref_s = 0.0; calls = 0 }

  let run t calls =
    for _ = 1 to calls do
      let _, dt = timed ~clock:cpu reference in
      t.ref_s <- t.ref_s +. dt;
      t.calls <- t.calls + 1
    done

  (* Reference calls until they have taken [share] of [work] seconds,
     and at least one. *)
  let keep_up t ~work =
    run t 1;
    while t.ref_s < share *. work do
      run t 1
    done

  let call_ms t = ms t.ref_s /. float_of_int t.calls

  (* what a measured time is multiplied by *)
  let scale t = nominal_ms /. call_ms t
end

(* {2 Measurement loop} *)

type pass = {
  wall : float;  (* seconds, reference calls included *)
  latencies : float list;  (* CPU seconds, one per successful operation *)
  speed : Speed.t;  (* the reference calls made right after the pass *)
}

type measured = { passes : pass list; ops : int; located : int }

(* Closed loop, one caller: whole passes over the items in a
   seed-permuted order, until [seconds] of wall time and [min_ops]
   localizations are done.  Every pass counts.  Each pass is followed
   by its own reference calls, so that a pass run while the machine was
   slow is scaled by the speed it ran at. *)
let measure w ~pool ~seconds ~min_ops ~seed =
  let passes = ref [] in
  let ops = ref 0 and located = ref 0 and wall = ref 0.0 in
  while !wall < seconds || !ops < min_ops do
    let order = permute ~seed ~pass:(List.length !passes) w.items in
    let t0 = now () in
    let latencies =
      List.filter_map
        (fun it ->
          incr ops;
          match attempt ~clock:cpu it (fun () -> localize ~trace:false ~pool it) with
          | Some (l, dt) when check_report ~must_locate:(w.kind = Suite) it l.report ->
            if l.report.Demand.found then incr located;
            Some dt
          | _ -> None)
        order
    in
    let speed = Speed.create () in
    Speed.keep_up speed ~work:(sum_by Fun.id latencies);
    let dt = now () -. t0 in
    wall := !wall +. dt;
    passes := { wall = dt; latencies; speed } :: !passes
  done;
  { passes = List.rev !passes; ops = !ops; located = !located }

(* {2 Set-up} *)

(* Set-up, repeated [reps] times, each repetition followed by [calls]
   reference calls, about a tenth of its time.  A fixed count, not one
   that follows the time taken: what the calls allocate would otherwise
   move the collector's phase, and with it the next repetition's peak
   memory, from run to run.  [each] sees every repetition's result; only
   the first is kept, so that the repetitions do not add up in peak
   memory.  The reported set-up time is the median CPU time (set-up is
   as single-threaded as the locator), scaled; the unscaled median is
   the third component. *)
let repeat reps ~calls ~each f =
  let speed = Speed.create () and first = ref None in
  let times =
    List.init reps (fun _ ->
        let r, dt = timed ~clock:cpu f in
        each r;
        if Option.is_none !first then first := Some r;
        Speed.run speed calls;
        dt)
  in
  let raw = Kit.median times in
  (Option.get !first, raw *. Speed.scale speed, raw)

(* one repetition parses 26 sources in about 10 ms *)
let setup_suite () =
  let items, setup_s, raw_setup_s = repeat 15 ~calls:1 ~each:ignore suite_items in
  { kind = Suite; items; setup_s; raw_setup_s; gen = None; dir = None }

(* The corpus workload's set-up generates the corpus twice, in about
   10 s each: generation is deterministic, so the manifests must be
   byte-identical.  Outside the clock, every triple must still validate
   as an omission fault. *)
let setup_corpus ~trace =
  let rep () =
    let manifest, gen_s =
      timed (fun () -> Campaign.generate ~seed:corpus_seed ~count:corpus_count ())
    in
    (manifest, gen_s, List.map triple_item manifest.Campaign.m_triples)
  in
  let texts = ref [] and gen_walls = ref [] in
  let each (m, gen_s, _) =
    texts := Campaign.manifest_to_string m :: !texts;
    gen_walls := gen_s :: !gen_walls
  in
  let (manifest, _, items), setup_s, raw_setup_s = repeat 2 ~calls:300 ~each rep in
  check
    (List.for_all (String.equal (List.hd !texts)) !texts)
    "the generated manifest differs between set-up repetitions";
  List.iter
    (fun it ->
      check
        (Seeder.validates ~correct:it.correct ~faulty:it.faulty ~input:it.input)
        "%s no longer validates as an omission fault" it.id)
    items;
  {
    kind = Corpus;
    items;
    setup_s;
    raw_setup_s;
    gen = Some (manifest, Kit.median !gen_walls);
    dir = (if trace then Some (fresh_work_dir "corpus") else None);
  }

(* {2 Peak memory} *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        let l = input_line ic in
        if String.starts_with ~prefix:"VmHWM:" l then
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        else go ()
      in
      go ())

(* {2 End-to-end run (--trace 0)} *)

let end_to_end w ~pool ~seed ~seconds =
  let need = Kit.samples_needed 0.9 in
  let m = measure w ~pool ~seconds ~min_ops:need ~seed in
  let lat_ms scaled =
    List.concat_map
      (fun p ->
        let k = if scaled then Speed.scale p.speed else 1.0 in
        List.map (fun l -> k *. ms l) p.latencies)
      m.passes
  in
  let scaled = lat_ms true and raw = lat_ms false in
  let pass_ms = List.map (fun p -> ms p.wall) m.passes in
  let calls = List.map (fun p -> Speed.call_ms p.speed) m.passes in
  let lo xs = List.fold_left min infinity xs and hi xs = List.fold_left max 0.0 xs in
  Printf.eprintf "exbench: %d passes of %.1f-%.1f ms; reference call %.3f-%.3f ms\n%!"
    (List.length m.passes) (lo pass_ms) (hi pass_ms) (lo calls) (hi calls);
  let pct p xs =
    match Kit.percentile p xs with
    | Ok v -> v
    | Error e ->
      check false "latency: %s" e;
      nan
  in
  let per_s xs = float_of_int (List.length xs) /. (sum_by Fun.id xs /. 1000.) in
  [
    ("setup_s", w.setup_s);
    ("localizations_per_s", per_s scaled);
    ("locate_p50_ms", pct 0.5 scaled);
    ("locate_p90_ms", pct 0.9 scaled);
    ("located_frac", float_of_int m.located /. float_of_int m.ops);
    ("peak_rss_mb", peak_rss_mb ());
    ("failed_frac", float_of_int book.failed /. float_of_int (max 1 book.attempted));
    ("locate_samples", float_of_int (List.length scaled));
    ("reference_call_ms", Kit.median calls);
    ("cpu_setup_s", w.raw_setup_s);
    ("cpu_localizations_per_s", per_s raw);
    ("cpu_locate_p50_ms", pct 0.5 raw);
    ("cpu_locate_p90_ms", pct 0.9 raw);
    ( "wall_localizations_per_s",
      float_of_int (List.length raw) /. sum_by (fun p -> p.wall) m.passes );
  ]

(* {2 Traced run (--trace 1)}

   Per-layer figures are per pass (every item once); each reported
   value is the median over the sweeps that produced it. *)

(* The program's own spans and counters over one traced sweep. *)
let span_figures (ls : located list) =
  let spans = List.concat_map (fun l -> Obs.spans l.obs) ls in
  (* [lane0]: the coordinator's spans only *)
  let span_ms ?(lane0 = false) name =
    sum_by
      (fun (s : Span.t) ->
        if s.Span.name = name && ((not lane0) || s.Span.tid = 0) then
          s.Span.dur_us /. 1000.
        else 0.0)
      spans
  in
  let batches =
    float_of_int
      (List.length
         (List.filter
            (fun (s : Span.t) -> s.Span.name = "verify.batch" && s.Span.tid = 0)
            spans))
  in
  let counter name =
    sum_by (fun l -> float_of_int (Metrics.counter_value (Obs.metrics l.obs) name)) ls
  in
  let report f = sum_by (fun l -> float_of_int (f l.report)) ls in
  let locate_ms = span_ms ~lane0:true "demand.locate" in
  let batch_ms = span_ms ~lane0:true "verify.batch" in
  let queries = counter "verify.queries" in
  let runs =
    sum_by (fun l -> float_of_int (Metrics.timer_count (Obs.metrics l.obs) "verify.run")) ls
  in
  let aq = counter "align.queries" and am = counter "align.matched" in
  [
    ("session.create_ms", ms (sum_by (fun l -> l.create_s) ls));
    ("session.failing_run_ms", span_ms "session.failing_run");
    ("session.regions_ms", span_ms "session.regions");
    ("session.profile_ms", span_ms "session.profile");
    ("demand.locate_ms", locate_ms);
    ("verify.batch_ms", batch_ms);
    ("verify.reexec_ms", span_ms "verify.reexec");
    ("verify.align_ms", span_ms "verify.align");
    ("interp.steps", counter "interp.steps");
    ("interp.runs", counter "interp.runs");
    ("interp.trace_records", counter "interp.trace_records");
    ( "interp.steps_per_switched_run",
      ratio
        (sum_by (fun l -> float_of_int l.locate_steps) ls)
        (sum_by (fun l -> float_of_int l.locate_runs) ls) );
    ("verify.runs", runs);
    ("verify.queries", queries);
    ("verify.runs_per_query", ratio runs queries);
    ("verify.batches", batches);
    ("verify.pairs_per_batch", ratio queries batches);
    ("demand.iterations", report (fun r -> r.Demand.iterations));
    ("demand.expanded_edges", report (fun r -> r.Demand.expanded_edges));
    ("guard.aborted", report (fun r -> r.Demand.robustness.Guard.aborted));
    ("guard.retried", report (fun r -> r.Demand.robustness.Guard.retried));
    ("guard.breaker_skips", report (fun r -> r.Demand.robustness.Guard.breaker_skips));
    ("align.queries", aq);
    ("align.matched", am);
    ("align.match_ratio", ratio am aq);
    ("pool.tasks", counter "pool.tasks");
  ]

(* The analysis layers called directly on each localization's final
   state: the failure criterion, the correct outputs, the benign marks
   and the verified implicit edges the report ends with; PD is asked
   for every member of the final slice. *)
let final_state_figures (ls : located list) =
  let slice_s = ref 0.0 and nodes = ref 0 and correct_s = ref 0.0 in
  let conf_s = ref 0.0 and prune_s = ref 0.0 and prune_size = ref 0 in
  let pd_calls = ref 0 and pd_s = ref 0.0 and pd_size = ref 0 in
  List.iter
    (fun l ->
      let s = l.session and r = l.report in
      let trace = s.Session.trace and criterion = s.Session.wrong_output in
      let edges = r.Demand.implicit_edges in
      let extra idx =
        List.filter_map (fun (p, t) -> if t = idx then Some p else None) edges
      in
      let slice =
        clock slice_s (fun () -> Slice.compute ~extra trace ~criteria:[ criterion ])
      in
      nodes := !nodes + Slice.dynamic_size slice;
      ignore
        (clock correct_s (fun () ->
             Slice.compute trace ~criteria:s.Session.correct_outputs));
      let conf =
        clock conf_s (fun () ->
            Confidence.compute s.Session.info s.Session.profile trace
              ~correct:s.Session.correct_outputs ~benign:r.Demand.benign
              ~implicit:edges)
      in
      let ps =
        clock prune_s (fun () -> Prune.compute ~extra trace ~slice ~conf ~criterion)
      in
      prune_size := !prune_size + Prune.size ps;
      List.iter
        (fun u ->
          let pd = clock pd_s (fun () -> Relevant.pd s.Session.rel u) in
          incr pd_calls;
          pd_size := !pd_size + List.length pd)
        (Slice.to_list slice))
    ls;
  let f = float_of_int in
  [
    ("slice.compute_ms", ms !slice_s);
    ("slice.nodes", f !nodes);
    ("slice.correct_ms", ms !correct_s);
    ("confidence.compute_ms", ms !conf_s);
    ("prune.compute_ms", ms !prune_s);
    ("prune.size", f !prune_size);
    ("relevant.pd_calls", f !pd_calls);
    ("relevant.pd_us", 1e6 *. ratio !pd_s (f !pd_calls));
    ("relevant.pd_size", f !pd_size);
  ]

(* Parsing both sources, and running each failing input traced and
   untraced, timed by the harness. *)
let front_end_figures items =
  let parse_s = ref 0.0 and traced_s = ref 0.0 and plain_s = ref 0.0 in
  List.iter
    (fun it ->
      clock parse_s (fun () ->
          ignore (Typecheck.parse_and_check it.faulty_src);
          ignore (Typecheck.parse_and_check it.correct_src));
      clock traced_s (fun () ->
          ignore (Interp.run ~tracing:true it.faulty ~input:it.input));
      clock plain_s (fun () ->
          ignore (Interp.run ~tracing:false it.faulty ~input:it.input)))
    items;
  [
    ("lang.parse_ms", ms !parse_s);
    ("interp.traced_ms", ms !traced_s);
    ("interp.untraced_ms", ms !plain_s);
    ("interp.trace_overhead", ratio !traced_s !plain_s);
  ]

let store_figures ~writes ~misses ~hits ~disk_hits =
  [
    ("store.writes", writes);
    ("store.misses", misses);
    ("store.hits", hits);
    ("store.disk_hits", disk_hits);
    ("store.hit_rate", ratio (hits +. disk_hits) (hits +. disk_hits +. misses));
  ]

(* The suite's stores are the memory-only ones its sessions create. *)
let suite_store_figures (ls : located list) =
  let c f = sum_by (fun l -> float_of_int (f l.report.Demand.store)) ls in
  store_figures
    ~writes:(c (fun s -> s.Store.writes))
    ~misses:(c (fun s -> s.Store.misses))
    ~hits:(c (fun s -> s.Store.hits))
    ~disk_hits:(c (fun s -> s.Store.disk_hits))

(* Campaign legs over the corpus: two cold passes from a reset
   directory (their rows must agree), then two replays of the written
   campaign (their rows must equal the cold ones).  Store counts come
   from the cold rows; the store and the journals are then opened and
   salvaged the way run_triple does. *)
let campaign_figures ~pool ~dir items =
  let pass ?cold () =
    List.fold_left
      (fun (total, rows) it ->
        match run_triple ~pool ~dir it with
        | Some (row, dt) ->
          ignore (check_row ?cold it row);
          (total +. dt, (it, row) :: rows)
        | None -> (total, rows))
      (0.0, []) items
  in
  let cold_pass () =
    fresh_campaign dir;
    pass ()
  in
  let cold1, _ = cold_pass () in
  let cold2, rows = cold_pass () in
  check_complete ~dir items;
  let cold = Hashtbl.create 64 in
  List.iter
    (fun (it, row) -> Hashtbl.replace cold it.id (Campaign.outcome_to_string row))
    rows;
  let replay1, _ = pass ~cold () in
  let replay2, _ = pass ~cold () in
  let count k =
    float_of_int (List.fold_left (fun a (_, r) -> a + Campaign.count r k) 0 rows)
  in
  let _, open_s =
    timed (fun () ->
        List.iter
          (fun _ -> ignore (Store.create ~dir:(Filename.concat dir "store") ()))
          items)
  in
  let _, plan_s =
    timed (fun () ->
        List.iter (fun it -> ignore (Recover.plan_of_file (journal_path dir it.id))) items)
  in
  [
    ("campaign.run_triple_ms", ms cold1);
    ("campaign.run_triple_ms", ms cold2);
    ("campaign.replay_ms", ms replay1);
    ("campaign.replay_ms", ms replay2);
    ("store.open_ms", ms open_s);
    ("recover.plan_ms", ms plan_s);
  ]
  @ store_figures ~writes:(count "store_writes") ~misses:(count "store_misses")
      ~hits:(count "store_hits") ~disk_hits:(count "store_disk_hits")

(* Corpus generation, re-called per accepted triple with the triple's
   own seed and family; what the generate wall has beyond the accepted
   triples' factory and seeder time went to rejected attempts. *)
let corpus_figures (manifest : Campaign.manifest) gen_s =
  let fac_s = ref 0.0 and seed_s = ref 0.0 and val_s = ref 0.0 in
  List.iter
    (fun (t : Campaign.triple) ->
      let knobs = Option.get (Factory.knobs_of_family t.Campaign.t_family) in
      let prog, input =
        clock fac_s (fun () -> Factory.generate ~knobs ~seed:t.Campaign.t_seed ())
      in
      match
        clock seed_s (fun () -> Seeder.seed_fault ~seed:t.Campaign.t_seed ~prog ~input ())
      with
      | Some sd when sd.Seeder.sd_faulty_src = t.Campaign.t_faulty ->
        ignore
          (clock val_s (fun () ->
               Seeder.validates ~correct:sd.Seeder.sd_correct
                 ~faulty:sd.Seeder.sd_faulty ~input:sd.Seeder.sd_input))
      | _ -> check false "%s: re-seeding does not reproduce the triple" t.Campaign.t_id)
    manifest.Campaign.m_triples;
  let n = float_of_int (List.length manifest.Campaign.m_triples) in
  let attempts = float_of_int manifest.Campaign.m_attempts in
  [
    ("gen.attempts", attempts);
    ("gen.yield", ratio n attempts);
    ("gen.triples_per_s", ratio n gen_s);
    ("factory.generate_ms", ms !fac_s);
    ("seeder.seed_ms", ms !seed_s);
    ("seeder.validates_ms", ms !val_s);
    ("gen.rejected_ms", ms (gen_s -. !fac_s -. !seed_s));
  ]

let traced w ~pool ~seed ~seconds =
  let acc : (string, float list) Hashtbl.t = Hashtbl.create 64 in
  let add =
    List.iter (fun (k, v) ->
        Hashtbl.replace acc k (v :: Option.value ~default:[] (Hashtbl.find_opt acc k)))
  in
  let get k = Kit.median (Option.value ~default:[] (Hashtbl.find_opt acc k)) in
  (* 1. in-memory localization sweeps, alternating untraced and traced;
     the corpus workload keeps half the time for its campaign legs *)
  let sweep ~trace pass =
    let order = permute ~seed ~pass w.items in
    let t0 = now () in
    let ls =
      List.filter_map
        (fun it ->
          match attempt it (fun () -> localize ~trace ~pool it) with
          | Some (l, _) ->
            ignore (check_report ~must_locate:(w.kind = Suite) it l.report);
            Some l
          | None -> None)
        order
    in
    (ls, now () -. t0)
  in
  let budget = if w.dir = None then seconds else seconds /. 2. in
  let t_end = now () +. budget in
  let plain = ref [] and walls_plain = ref [] and walls_traced = ref [] in
  let pass = ref 0 in
  while now () < t_end || !walls_traced = [] do
    let ls, wall = sweep ~trace:false !pass in
    plain := ls;
    walls_plain := wall :: !walls_plain;
    (* what run_triple computes, without the store and the ledger: it
       also parses both sources and computes the expected output *)
    if w.kind = Corpus then begin
      let _, prep =
        timed (fun () ->
            List.iter (fun it -> ignore (triple_item (Option.get it.triple))) w.items)
      in
      add [ ("campaign.compute_ms", ms (wall +. prep)) ]
    end;
    let ls, wall = sweep ~trace:true !pass in
    walls_traced := wall :: !walls_traced;
    add (span_figures ls);
    incr pass
  done;
  add [ ("obs.trace_overhead", ratio (Kit.median !walls_traced) (Kit.median !walls_plain)) ];
  (* from the medians, so that analysis + batch = locate exactly *)
  let locate = get "demand.locate_ms" and batch = get "verify.batch_ms" in
  add
    [
      ("demand.analysis_ms", locate -. batch);
      ("demand.analysis_share", ratio (locate -. batch) locate);
    ];
  (* 2. persistence and corpus generation *)
  (match (w.dir, w.gen) with
  | Some dir, Some (manifest, gen_s) ->
    add (campaign_figures ~pool ~dir w.items);
    add (corpus_figures manifest gen_s);
    let run = get "campaign.run_triple_ms" and compute = get "campaign.compute_ms" in
    add
      [
        ("campaign.persist_ms", run -. compute);
        ("campaign.persist_share", ratio (run -. compute) run);
      ]
  | _ -> add (suite_store_figures !plain));
  (* 3. layers called directly, outside every timed region *)
  add (final_state_figures !plain);
  for _ = 1 to 3 do
    add (front_end_figures w.items)
  done;
  List.map (fun (x : Kit.metric) -> (x.Kit.name, get x.Kit.name)) Kit.per_layer
  |> List.filter (fun (k, _) -> Hashtbl.mem acc k)

(* {2 Main} *)

let usage () =
  prerr_endline
    ("usage: exbench --workload ("
    ^ String.concat "|" Kit.workloads
    ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := Some (v = "1");
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t
    when List.mem w Kit.workloads && secs > 0. ->
    (w, s, secs, t)
  | _ -> usage ()

let () =
  let name, seed, seconds, trace = parse_args () in
  (* the locator runs with a one-job pool: no worker domains *)
  let pool = Pool.create ~jobs:1 () in
  let values =
    Fun.protect
      ~finally:(fun () ->
        Pool.shutdown pool;
        rm_rf (Filename.concat work_root (Printf.sprintf "corpus-%d" (Unix.getpid ())));
        try Sys.rmdir work_root with Sys_error _ -> ())
      (fun () ->
        let w = if name = "suite" then setup_suite () else setup_corpus ~trace in
        (* the timed passes start from a compacted heap, not from the
           set-up's garbage *)
        Gc.compact ();
        if trace then traced w ~pool ~seed ~seconds
        else end_to_end w ~pool ~seed ~seconds)
  in
  let metrics = Kit.metrics_for ~trace name in
  List.iter
    (fun (x : Kit.metric) ->
      match List.assoc_opt x.Kit.name values with
      | Some v -> Printf.printf "%-30s %18.6f %s\n" x.Kit.name v x.Kit.unit
      | None -> check false "metric %s was not measured" x.Kit.name)
    metrics;
  (* a value that could not be measured (already a failed check) is
     left out rather than printed as invalid JSON *)
  let declared =
    List.filter_map
      (fun (x : Kit.metric) ->
        match List.assoc_opt x.Kit.name values with
        | Some v when x.Kit.declared && Float.is_finite v -> Some (x.Kit.name, v, x.Kit.unit)
        | _ -> None)
      metrics
  in
  let correct = !global_ok && book.failed = 0 in
  print_endline
    (Kit.result_to_string
       {
         Kit.correct;
         attempted = max 1 book.attempted;
         failed = book.failed;
         values = declared;
       });
  exit (if correct then 0 else 1)
