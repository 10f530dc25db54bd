(* Tests for the exom_obs observability layer: the metrics registry
   (kinds, merge, rendering), the JSON codec, span recording and lane
   forking, the two exporters (Chrome trace events and the JSONL event
   log) against a real localization, and the observability determinism
   contract — the metric tree with timings suppressed is bit-identical
   at -j1 and -j4. *)

module Obs = Exom_obs.Obs
module Metrics = Exom_obs.Metrics
module Span = Exom_obs.Span
module Export = Exom_obs.Export
module Json = Exom_obs.Json
module Pool = Exom_sched.Pool
module Demand = Exom_core.Demand
module Runner = Exom_bench.Runner
module Suite = Exom_bench.Suite
module B = Exom_bench.Bench_types

(* {2 Metrics registry} *)

let test_metric_kinds () =
  let m = Metrics.create () in
  Metrics.incr m "a.counter";
  Metrics.add m "a.counter" 4;
  Metrics.gauge m "a.gauge" 3;
  Metrics.gauge m "a.gauge" 7;
  Metrics.gauge m "a.gauge" 2;
  Metrics.observe m "a.timer" 0.5;
  Metrics.observe m "a.timer" 1.5;
  Alcotest.(check int) "counter sums" 5 (Metrics.counter_value m "a.counter");
  (match Metrics.find m "a.gauge" with
  | Some g -> Alcotest.(check int) "gauge keeps high water" 7 g.Metrics.value
  | None -> Alcotest.fail "gauge missing");
  Alcotest.(check int) "timer count" 2 (Metrics.timer_count m "a.timer");
  Alcotest.(check (float 1e-9)) "timer sum" 2.0 (Metrics.timer_seconds m "a.timer");
  Alcotest.(check int) "absent name reads 0" 0 (Metrics.counter_value m "nope")

let test_timed_charges_on_raise () =
  let m = Metrics.create () in
  (try Metrics.timed m "t" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "raising observation still counted" 1
    (Metrics.timer_count m "t")

let test_absorb () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add a "c" 2;
  Metrics.add b "c" 3;
  Metrics.gauge a "g" 10;
  Metrics.gauge b "g" 4;
  Metrics.observe a "t" 1.0;
  Metrics.observe b "t" 3.0;
  Metrics.observe b "t" 0.5;
  Metrics.absorb ~into:a b;
  Alcotest.(check int) "counters sum" 5 (Metrics.counter_value a "c");
  (match Metrics.find a "g" with
  | Some g -> Alcotest.(check int) "gauges max" 10 g.Metrics.value
  | None -> Alcotest.fail "gauge missing");
  Alcotest.(check int) "timer counts sum" 3 (Metrics.timer_count a "t");
  (match Metrics.find a "t" with
  | Some t ->
    Alcotest.(check (float 1e-9)) "timer min merges" 0.5 t.Metrics.min_s;
    Alcotest.(check (float 1e-9)) "timer max merges" 3.0 t.Metrics.max_s
  | None -> Alcotest.fail "timer missing")

let test_render () =
  let m = Metrics.create () in
  Metrics.add m "verify.queries" 3;
  Metrics.observe m "verify.run" 0.1234;
  Metrics.gauge m "pool.queue_depth" 4;
  let full = Metrics.render m in
  let bare = Metrics.render ~timings:false m in
  let contains ~needle s =
    let n = String.length needle and l = String.length s in
    let rec go i = i + n <= l && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "tree groups by dot path" true
    (contains ~needle:"verify" full && contains ~needle:"queries" full);
  Alcotest.(check bool) "timings shown by default" true
    (contains ~needle:"s total" full);
  Alcotest.(check bool) "timings suppressed on demand" false
    (contains ~needle:"s total" bare);
  Alcotest.(check bool) "counts survive suppression" true
    (contains ~needle:"1 runs" bare)

(* {2 JSON codec} *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a \"quoted\"\n\tstring \\ here");
        ("n", Json.Num 42.0);
        ("f", Json.Num 1.5);
        ("b", Json.Bool true);
        ("z", Json.Null);
        ("a", Json.Arr [ Json.Num 1.0; Json.Str "x"; Json.Obj [] ]);
      ]
  in
  let printed = Json.to_string v in
  match Json.parse printed with
  | Error e -> Alcotest.fail ("parse failed: " ^ e)
  | Ok v' ->
    Alcotest.(check string) "print . parse . print is stable" printed
      (Json.to_string v')

let test_json_errors () =
  let bad s =
    match Json.parse s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "empty input rejected" true (bad "");
  Alcotest.(check bool) "unclosed object rejected" true (bad "{\"a\":1");
  Alcotest.(check bool) "trailing garbage rejected" true (bad "{} {}")

(* {2 Spans and lanes} *)

let test_span_nesting_and_fork () =
  let obs = Obs.create ~trace:true () in
  Obs.with_span obs "a" (fun () ->
      Obs.with_span obs "b" (fun () -> ());
      let w = Obs.fork obs in
      Obs.with_span w "c" (fun () -> ());
      Obs.absorb ~into:obs w);
  let spans = Obs.spans obs in
  let find name = List.find (fun s -> s.Span.name = name) spans in
  let a = find "a" and b = find "b" and c = find "c" in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  Alcotest.(check int) "root span has no parent" (-1) a.Span.parent;
  Alcotest.(check int) "inner span parents to outer" a.Span.id b.Span.parent;
  Alcotest.(check int) "forked lane parents to the open span" a.Span.id
    c.Span.parent;
  Alcotest.(check bool) "forked lane has its own tid" true (c.Span.tid > 0);
  Alcotest.(check int) "coordinator is lane 0" 0 a.Span.tid

let test_disabled_tracing_records_nothing () =
  let obs = Obs.create () in
  Obs.with_span obs "a" (fun () -> Obs.incr obs "c");
  Alcotest.(check int) "no spans without trace:true" 0
    (List.length (Obs.spans obs));
  Alcotest.(check int) "metrics still live" 1
    (Metrics.counter_value (Obs.metrics obs) "c")

(* {2 A real localization, traced} *)

let traced_run =
  lazy
    (let b = Option.get (Suite.find "gzipsim") in
     let f = Option.get (Suite.find_fault b "V2-F3") in
     let obs = Obs.create ~trace:true () in
     let pool = Pool.create ~jobs:2 () in
     let r = Runner.run_fault ~obs ~pool b f in
     Pool.shutdown pool;
     (obs, r))

let test_span_taxonomy () =
  let obs, r = Lazy.force traced_run in
  Alcotest.(check bool) "fault located" true r.Runner.report.Demand.found;
  let spans = Obs.spans obs in
  let all name = List.filter (fun s -> s.Span.name = name) spans in
  let ids name = List.map (fun s -> s.Span.id) (all name) in
  let locates = all "demand.locate" in
  Alcotest.(check int) "one locate span" 1 (List.length locates);
  let locate_id = (List.hd locates).Span.id in
  let iterations = all "demand.iteration" in
  Alcotest.(check bool) "iterations recorded" true (iterations <> []);
  List.iter
    (fun s ->
      Alcotest.(check int) "iteration nests in locate" locate_id s.Span.parent)
    iterations;
  let batches = all "verify.batch" in
  Alcotest.(check bool) "batches recorded" true (batches <> []);
  let iteration_ids = ids "demand.iteration" in
  List.iter
    (fun s ->
      Alcotest.(check bool) "batch nests in an iteration" true
        (List.mem s.Span.parent iteration_ids))
    batches;
  let reexecs = all "verify.reexec" in
  Alcotest.(check bool) "re-executions recorded" true (reexecs <> []);
  let batch_ids = ids "verify.batch" in
  List.iter
    (fun s ->
      Alcotest.(check bool) "re-execution nests in a batch" true
        (List.mem s.Span.parent batch_ids);
      Alcotest.(check bool) "re-execution runs on a worker lane" true
        (s.Span.tid > 0))
    reexecs;
  let reexec_ids = ids "verify.reexec" in
  Alcotest.(check bool) "interpreter runs nest in re-executions" true
    (List.exists
       (fun s -> List.mem s.Span.parent reexec_ids)
       (all "interp.run"))

let test_chrome_export_valid () =
  let obs, _ = Lazy.force traced_run in
  let doc = Json.to_string (Export.chrome_json obs) in
  match Json.parse doc with
  | Error e -> Alcotest.fail ("chrome JSON does not parse: " ^ e)
  | Ok j ->
    Alcotest.(check (option (float 0.0))) "schema version stamped"
      (Some (float_of_int Export.schema_version))
      Option.(bind (Json.member "schemaVersion" j) Json.to_float);
    let events =
      Option.value ~default:[]
        Option.(bind (Json.member "traceEvents" j) Json.to_list)
    in
    Alcotest.(check int) "one event per span" (List.length (Obs.spans obs))
      (List.length events);
    List.iter
      (fun e ->
        Alcotest.(check (option string)) "complete events" (Some "X")
          Option.(bind (Json.member "ph" e) Json.to_str);
        List.iter
          (fun key ->
            Alcotest.(check bool) (key ^ " present") true
              (Json.member key e <> None))
          [ "name"; "cat"; "ts"; "dur"; "pid"; "tid"; "args" ];
        let args = Option.get (Json.member "args" e) in
        Alcotest.(check bool) "args carry structural nesting" true
          (Json.member "id" args <> None && Json.member "parent" args <> None))
      events

let test_jsonl_roundtrip () =
  let obs, _ = Lazy.force traced_run in
  let content = String.concat "\n" (Export.jsonl_lines obs) ^ "\n" in
  (match Export.metrics_of_jsonl content with
  | Error e -> Alcotest.fail ("metrics do not read back: " ^ e)
  | Ok (reg, salvaged) ->
    Alcotest.(check bool) "a complete log needs no salvage" true
      (salvaged = None);
    Alcotest.(check string) "deterministic tree reads back identically"
      (Metrics.render ~timings:false (Obs.metrics obs))
      (Metrics.render ~timings:false reg);
    Alcotest.(check int) "timer counts read back"
      (Metrics.timer_count (Obs.metrics obs) "verify.run")
      (Metrics.timer_count reg "verify.run");
    Alcotest.(check (float 1e-4)) "timer seconds read back"
      (Metrics.timer_seconds (Obs.metrics obs) "verify.run")
      (Metrics.timer_seconds reg "verify.run"));
  (* version skew and foreign schemas are rejected, not misread *)
  let skewed =
    "{\"type\":\"header\",\"schema\":\"exom.obs\",\"version\":99}\n"
  in
  (match Export.metrics_of_jsonl skewed with
  | Ok _ -> Alcotest.fail "version skew accepted"
  | Error _ -> ());
  let foreign =
    "{\"type\":\"header\",\"schema\":\"someone.else\",\"version\":1}\n"
  in
  match Export.metrics_of_jsonl foreign with
  | Ok _ -> Alcotest.fail "foreign schema accepted"
  | Error _ -> ()

(* A log whose writer died mid-line is still usable: the truncated
   final record is dropped and flagged.  A malformed line with records
   after it is real corruption and stays an error. *)
let test_jsonl_salvage () =
  let obs, _ = Lazy.force traced_run in
  let content = String.concat "\n" (Export.jsonl_lines obs) ^ "\n" in
  let truncated = String.sub content 0 (String.length content - 7) in
  (match Export.metrics_of_jsonl truncated with
  | Error e -> Alcotest.fail ("truncated tail not salvaged: " ^ e)
  | Ok (reg, salvaged) ->
    (match salvaged with
    | None -> Alcotest.fail "salvage not flagged"
    | Some { Export.torn_line; torn_byte } ->
      (* the torn line is the last one, and the byte offset points at
         its first byte in the truncated content *)
      let lines =
        List.filter
          (fun l -> String.trim l <> "")
          (String.split_on_char '\n' truncated)
      in
      Alcotest.(check int) "salvage cites the torn line number"
        (List.length lines) torn_line;
      let last = List.nth lines (List.length lines - 1) in
      Alcotest.(check string) "salvage byte offset locates the torn line"
        last
        (String.sub truncated torn_byte
           (String.length truncated - torn_byte)));
    Alcotest.(check int) "salvaged registry keeps earlier records"
      (Metrics.timer_count (Obs.metrics obs) "verify.run")
      (Metrics.timer_count reg "verify.run"));
  let lines = String.split_on_char '\n' content in
  let corrupted =
    String.concat "\n"
      (List.mapi (fun i l -> if i = 1 then "{\"type\":\"met" else l) lines)
  in
  match Export.metrics_of_jsonl corrupted with
  | Ok _ -> Alcotest.fail "mid-file corruption accepted"
  | Error _ -> ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_render_diff () =
  let a = Metrics.create () in
  let b = Metrics.create () in
  Metrics.add a "interp.runs" 10;
  Metrics.add b "interp.runs" 12;
  Metrics.add b "store.hits" 3;
  let out = Metrics.render_diff ~timings:false a b in
  Alcotest.(check bool) "lists both registries' union" true
    (contains out "interp.runs" && contains out "store.hits");
  Alcotest.(check bool) "shows the delta" true (contains out "+2")

(* {2 The deterministic span spine} *)

module Spine = Exom_obs.Spine

(* A tiny hand-built span tree: root(a) { b {args}, worker-lane c }. *)
let little_tree () =
  let obs = Obs.create ~trace:true () in
  Obs.with_span obs ~cat:"t" "a" (fun () ->
      Obs.with_span obs ~cat:"t" ~args:[ ("k", "v") ] "b" (fun () -> ());
      let w = Obs.fork obs in
      Obs.with_span w ~cat:"t" "c" (fun () -> ());
      Obs.absorb ~into:obs w);
  Obs.spans obs

let test_spine_projection () =
  let spans = little_tree () in
  let all = Spine.of_spans spans in
  let coord = Spine.of_spans ~lanes:Spine.Coordinator spans in
  Alcotest.(check int) "all lanes keep every span" 3 (Spine.size all);
  Alcotest.(check int) "coordinator drops worker lanes" 2 (Spine.size coord);
  (match all.Spine.roots with
  | [ a ] ->
    Alcotest.(check string) "root name" "a" a.Spine.name;
    Alcotest.(check (list string)) "children in ordinal order" [ "b"; "c" ]
      (List.map (fun n -> n.Spine.name) a.Spine.children);
    (match a.Spine.children with
    | [ b; c ] ->
      Alcotest.(check (list (pair string string))) "args kept, sorted"
        [ ("k", "v") ] b.Spine.args;
      Alcotest.(check int) "worker lane recorded" 1 c.Spine.lane
    | _ -> Alcotest.fail "expected two children")
  | _ -> Alcotest.fail "expected one root");
  match coord.Spine.roots with
  | [ a ] ->
    Alcotest.(check (list string)) "coordinator projection keeps lane 0"
      [ "b" ]
      (List.map (fun n -> n.Spine.name) a.Spine.children)
  | _ -> Alcotest.fail "expected one coordinator root"

let test_spine_codec () =
  let spine = Spine.of_spans (little_tree ()) in
  (match Spine.of_string (Spine.to_string spine) with
  | Error e -> Alcotest.fail ("spine does not read back: " ^ e)
  | Ok spine' ->
    Alcotest.(check bool) "round-trip preserves the spine" true
      (Spine.equal spine spine');
    Alcotest.(check string) "codec is stable" (Spine.to_string spine)
      (Spine.to_string spine'));
  (match Spine.of_string "{\"schema\":\"someone.else\",\"version\":1}" with
  | Ok _ -> Alcotest.fail "foreign schema accepted"
  | Error _ -> ());
  match Spine.of_string "{\"schema\":\"exom.spine\",\"version\":99}" with
  | Ok _ -> Alcotest.fail "version skew accepted"
  | Error _ -> ()

(* Every edit class, from hand-built trees. *)
let test_spine_diff_edits () =
  let tree build =
    let obs = Obs.create ~trace:true () in
    Obs.with_span obs ~cat:"t" "root" (fun () -> build obs);
    Spine.of_spans (Obs.spans obs)
  in
  let span ?(args = []) obs name =
    Obs.with_span obs ~cat:"t" ~args name (fun () -> ())
  in
  let base =
    tree (fun obs ->
        span obs "x";
        span obs "y";
        span ~args:[ ("pairs", "3") ] obs "z")
  in
  (* removed + added *)
  let grown =
    tree (fun obs ->
        span obs "x";
        span ~args:[ ("pairs", "3") ] obs "z";
        span obs "w")
  in
  let edits = Spine.diff base grown in
  Alcotest.(check bool) "y removed" true
    (List.exists
       (function Spine.Removed { path; _ } -> contains path "y" | _ -> false)
       edits);
  Alcotest.(check bool) "w added" true
    (List.exists
       (function Spine.Added { path; _ } -> contains path "w" | _ -> false)
       edits);
  (* reordered *)
  let swapped =
    tree (fun obs ->
        span obs "y";
        span obs "x";
        span ~args:[ ("pairs", "3") ] obs "z")
  in
  Alcotest.(check bool) "sibling swap is a reorder" true
    (List.exists
       (function Spine.Reordered _ -> true | _ -> false)
       (Spine.diff base swapped));
  (* args changed *)
  let retuned =
    tree (fun obs ->
        span obs "x";
        span obs "y";
        span ~args:[ ("pairs", "5") ] obs "z")
  in
  (match Spine.diff base retuned with
  | [ Spine.Args_changed { key; older; newer; _ } ] ->
    Alcotest.(check string) "arg key" "pairs" key;
    Alcotest.(check string) "older value" "3" older;
    Alcotest.(check string) "newer value" "5" newer
  | edits ->
    Alcotest.fail
      (Printf.sprintf "expected one args edit, got:\n%s"
         (Spine.render_edits edits)));
  (* moved: an identical subtree reparented is one Moved, not
     removed + added *)
  let under_x =
    tree (fun obs ->
        Obs.with_span obs ~cat:"t" "x" (fun () -> span obs "leaf");
        span obs "y")
  in
  let under_y =
    tree (fun obs ->
        span obs "x";
        Obs.with_span obs ~cat:"t" "y" (fun () -> span obs "leaf"))
  in
  (match Spine.diff under_x under_y with
  | [ Spine.Moved { from_path; to_path; _ } ] ->
    Alcotest.(check bool) "moved cites both paths" true
      (contains from_path "x" && contains to_path "y")
  | edits ->
    Alcotest.fail
      (Printf.sprintf "expected one move, got:\n%s"
         (Spine.render_edits edits)));
  (* identical spines: empty script, fixed sentence *)
  Alcotest.(check int) "no edits on equal spines" 0
    (List.length (Spine.diff base base));
  Alcotest.(check bool) "empty script renders the fixed sentence" true
    (contains (Spine.render_edits []) "identical")

let test_spine_edit_script_readable () =
  let out =
    Spine.render_edits
      (Spine.diff
         (Spine.of_spans (little_tree ()))
         (Spine.of_spans []))
  in
  Alcotest.(check bool) "paths are slash-joined from the root" true
    (contains out "/a");
  Alcotest.(check bool) "script ends with a count" true (contains out "edit")

(* {2 Metric drift} *)

let test_drift_tolerance_and_direction () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add a "verify.runs" 100;
  Metrics.add b "verify.runs" 104;
  Metrics.add a "store.hits" 50;
  Metrics.add b "store.hits" 40;
  Metrics.add a "steady" 7;
  Metrics.add b "steady" 7;
  (* default: any movement breaches, unmoved metrics are not reported *)
  let strict = Metrics.drift a b in
  Alcotest.(check int) "only moved metrics reported" 2 (List.length strict);
  Alcotest.(check bool) "zero tolerance breaches" true
    (Metrics.has_drift strict);
  (* 10% tolerance forgives the +4% but not the -20% *)
  let loose = Metrics.drift ~rule:(fun _ -> Some (Metrics.Both, 0.1)) a b in
  let breached =
    List.filter_map
      (fun f -> if f.Metrics.d_breach then Some f.Metrics.d_name else None)
      loose
  in
  Alcotest.(check (list string)) "only the large movement breaches"
    [ "store.hits" ] breached;
  (* direction-aware: hits shrinking is drift, runs shrinking is not *)
  let rule name =
    Some ((if name = "store.hits" then Metrics.Down else Metrics.Up), 0.1)
  in
  let down = Metrics.drift ~rule b a in
  (* b -> a: runs shrink 104->100 (Up: ignored), hits grow 40->50
     (Down: ignored) *)
  Alcotest.(check bool) "movements against the counted direction pass"
    false
    (Metrics.has_drift down);
  (* per-name tolerance, and a name the rule leaves out is not compared *)
  let rule = function
    | "verify.runs" -> Some (Metrics.Up, 0.0)
    | "store.hits" -> None
    | _ -> Some (Metrics.Both, 0.0)
  in
  Alcotest.(check (list string)) "rule picks tolerance and scope"
    [ "verify.runs" ]
    (List.map (fun f -> f.Metrics.d_name) (Metrics.drift ~rule a b))

let test_drift_appearance_is_infinite () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add b "fresh" 3;
  (match Metrics.drift ~rule:(fun _ -> Some (Metrics.Both, 1e6)) a b with
  | [ f ] ->
    Alcotest.(check string) "appearing metric reported" "fresh"
      f.Metrics.d_name;
    Alcotest.(check bool) "appearance breaches any finite tolerance" true
      (f.Metrics.d_rel = infinity && f.Metrics.d_breach)
  | _ -> Alcotest.fail "expected exactly the appearing metric");
  let out = Metrics.render_drift (Metrics.drift a b) in
  Alcotest.(check bool) "breaches marked DRIFT" true (contains out "DRIFT")

(* {2 Observability determinism: -j1 vs -j4} *)

let metric_tree jobs =
  let b = Option.get (Suite.find "gzipsim") in
  let f = Option.get (Suite.find_fault b "V2-F3") in
  let obs = Obs.create () in
  let pool = Pool.create ~jobs () in
  let r = Runner.run_fault ~obs ~pool b f in
  Pool.shutdown pool;
  (Obs.metrics obs, r)

let test_metric_tree_determinism () =
  let m1, r1 = metric_tree 1 in
  let m4, r4 = metric_tree 4 in
  Alcotest.(check bool) "both locate" true
    (r1.Runner.report.Demand.found && r4.Runner.report.Demand.found);
  Alcotest.(check string) "metric trees identical at -j1 and -j4"
    (Metrics.render ~timings:false m1)
    (Metrics.render ~timings:false m4);
  (* the coordinator's analysis work counters are in the tree: one
     from-scratch confidence solve per localization, warm-started
     refinements after it, and a PD memo that answers repeats *)
  let c name = (Metrics.counter_value m1 name, Metrics.counter_value m4 name) in
  List.iter
    (fun name ->
      let v1, v4 = c name in
      Alcotest.(check int) (name ^ " identical at -j1 and -j4") v1 v4)
    [ "demand.confidence_solves"; "demand.confidence_refines";
      "demand.pd_computed"; "demand.pd_reused" ];
  Alcotest.(check int) "one confidence solve" 1
    (fst (c "demand.confidence_solves"));
  Alcotest.(check bool) "refinements and PD lookups counted" true
    (fst (c "demand.confidence_refines") > 0
    && fst (c "demand.pd_computed") > 0);
  (* switched runs take the failing run's records over below the switch
     point: what they build is j-invariant, and sharing is not lost *)
  let built m =
    Metrics.counter_value m "interp.trace_records"
    - Metrics.counter_value m "interp.shared_records"
  in
  Alcotest.(check int) "built records identical at -j1 and -j4" (built m1)
    (built m4);
  Alcotest.(check bool) "records built and shared" true
    (built m1 > 0 && fst (c "interp.shared_records") > 0)

(* Lanes and span ids are assigned on the coordinator in submission
   order, so the whole spine — not just the metric tree — is
   j-invariant. *)
let traced_spine jobs =
  let b = Option.get (Suite.find "gzipsim") in
  let f = Option.get (Suite.find_fault b "V2-F3") in
  let obs = Obs.create ~trace:true () in
  let pool = Pool.create ~jobs () in
  ignore (Runner.run_fault ~obs ~pool b f);
  Pool.shutdown pool;
  Spine.of_spans (Obs.spans obs)

let test_spine_j_invariance () =
  let s1 = traced_spine 1 in
  let s4 = traced_spine 4 in
  Alcotest.(check int) "edit script empty at -j1 vs -j4" 0
    (List.length (Spine.diff s1 s4));
  Alcotest.(check string) "spine codec byte-identical at -j1 and -j4"
    (Spine.to_string s1) (Spine.to_string s4)

(* The registry is the single accounting path: the report's counters
   are views of it. *)
let test_report_reads_registry () =
  let obs, r = Lazy.force traced_run in
  let m = Obs.metrics obs in
  Alcotest.(check int) "verifications = verify.run count"
    r.Runner.report.Demand.verifications
    (Metrics.timer_count m "verify.run");
  Alcotest.(check int) "queries = verify.queries"
    r.Runner.report.Demand.verify_queries
    (Metrics.counter_value m "verify.queries");
  Alcotest.(check int) "guard sync matches robustness"
    r.Runner.report.Demand.robustness.Exom_core.Guard.completed
    (Metrics.counter_value m "guard.completed");
  Alcotest.(check bool) "store mirrored live" true
    (Metrics.counter_value m "store.misses"
     = r.Runner.report.Demand.store.Exom_sched.Store.misses)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "kinds" `Quick test_metric_kinds;
          Alcotest.test_case "timed charges on raise" `Quick
            test_timed_charges_on_raise;
          Alcotest.test_case "absorb" `Quick test_absorb;
          Alcotest.test_case "render" `Quick test_render;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and forks" `Quick
            test_span_nesting_and_fork;
          Alcotest.test_case "disabled tracing" `Quick
            test_disabled_tracing_records_nothing;
        ] );
      ( "export",
        [
          Alcotest.test_case "span taxonomy" `Quick test_span_taxonomy;
          Alcotest.test_case "chrome trace events" `Quick
            test_chrome_export_valid;
          Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "jsonl salvage" `Quick test_jsonl_salvage;
          Alcotest.test_case "render diff" `Quick test_render_diff;
          Alcotest.test_case "report reads registry" `Quick
            test_report_reads_registry;
        ] );
      ( "spine",
        [
          Alcotest.test_case "projection" `Quick test_spine_projection;
          Alcotest.test_case "codec" `Quick test_spine_codec;
          Alcotest.test_case "diff edit classes" `Quick test_spine_diff_edits;
          Alcotest.test_case "edit script readable" `Quick
            test_spine_edit_script_readable;
        ] );
      ( "drift",
        [
          Alcotest.test_case "tolerance and direction" `Quick
            test_drift_tolerance_and_direction;
          Alcotest.test_case "appearance is infinite" `Quick
            test_drift_appearance_is_infinite;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "-j1 vs -j4 metric tree" `Quick
            test_metric_tree_determinism;
          Alcotest.test_case "-j1 vs -j4 spine" `Quick
            test_spine_j_invariance;
        ] );
    ]
