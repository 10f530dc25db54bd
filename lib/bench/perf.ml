module Json = Exom_obs.Json
module Metrics = Exom_obs.Metrics
module Export = Exom_obs.Export
module Obs = Exom_obs.Obs
module Pool = Exom_sched.Pool
module Store = Exom_sched.Store
module Demand = Exom_core.Demand
module Campaign = Exom_corpus.Campaign

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let scratch_dir what =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "exom_bench_%s_%d" what (Unix.getpid ()))

(* The corpus leg: a fixed-seed generated campaign run start to finish
   (factory -> seeder -> localization) in a scratch directory.  The
   counts are deterministic in (seed, count) like the suite's, so they
   regress-gate the generated-program path the hand-written suite
   cannot cover; only the wall clock is noisy.  The seed is fixed
   because the leg tracks locator behavior, not corpus variety. *)
let run_corpus ?config ~jobs reg count =
  let seed = 1 in
  let t0 = Unix.gettimeofday () in
  let manifest = Campaign.generate ~seed ~count () in
  let dir = scratch_dir "corpus" in
  rm_rf dir;
  let rows, _missing =
    Campaign.run_local ?config ~jobs ~dir ~manifest ~shards:1 ()
  in
  rm_rf dir;
  let s = Campaign.summarize rows in
  let ran =
    List.filter
      (fun r ->
        r.Campaign.o_status = "located" || r.Campaign.o_status = "not_located")
      rows
  in
  let sum key = List.fold_left (fun a r -> a + Campaign.count r key) 0 ran in
  List.iter
    (fun (name, v) -> Metrics.add reg name v)
    [
      ("corpus.seed", seed);
      ("corpus.count", count);
      ("corpus.total", s.Campaign.s_total);
      ("corpus.located", s.Campaign.s_located);
      (* no_failure + error rows *)
      ("corpus.failed", s.Campaign.s_total - List.length ran);
      ("corpus.iterations", sum "iterations");
      ("corpus.verifications", sum "verifications");
    ];
  Metrics.observe reg "corpus.wall" (Unix.gettimeofday () -. t0)

(* Each fault gets its own registry and cold store so its counts are an
   independent measurement; the suite totals are sums over those
   private registries.  The cold pass is followed by two passes over
   one shared disk store — a priming pass that fills it and a warm pass
   that should answer (almost) every verification from it.  The warm
   figures are the cache's health check: a warm hit rate collapsing
   towards the cold one means the store has stopped earning its keep. *)
let run_suite ?config ?(jobs = Pool.default_jobs ()) ?corpus_count () =
  let reg = Metrics.create () in
  let add = Metrics.add reg in
  add "suite.jobs" jobs;
  let pool = Pool.create ~jobs () in
  let t0 = Unix.gettimeofday () in
  let verify_seconds = ref 0.0 in
  List.iter
    (fun (bench, fault) ->
      let obs = Obs.create () in
      let report =
        (Runner.run_fault ?config ~obs ~pool bench fault).Runner.report
      in
      let key k =
        Printf.sprintf "suite.%s.%s.%s" bench.Bench_types.name
          fault.Bench_types.fid k
      in
      List.iter
        (fun (k, v) -> add (key k) v)
        [
          ("found", Bool.to_int report.Demand.found);
          ("verifications", report.Demand.verifications);
          ("queries", report.Demand.verify_queries);
          ("iterations", report.Demand.iterations);
          ("edges", report.Demand.expanded_edges);
          ("prunings", report.Demand.total_prunings);
        ];
      let fault_reg = Obs.metrics obs in
      add "suite.faults" 1;
      add "suite.located" (Bool.to_int report.Demand.found);
      add "suite.queries" report.Demand.verify_queries;
      add "suite.switched_runs" (Metrics.timer_count fault_reg "verify.run");
      add "suite.interp_runs" (Metrics.counter_value fault_reg "interp.runs");
      verify_seconds :=
        !verify_seconds +. Metrics.timer_seconds fault_reg "verify.run")
    Suite.rows;
  (* the wall clock covers the cold pass only, the figure every snapshot
     since the first has recorded *)
  Metrics.observe reg "suite.wall" (Unix.gettimeofday () -. t0);
  Metrics.observe reg "suite.verify" !verify_seconds;
  (* traced pass: the same cold suite with span recording on, so the
     snapshot tracks what --trace-out costs; the spans themselves are
     discarded *)
  let t1 = Unix.gettimeofday () in
  List.iter
    (fun (bench, fault) ->
      let obs = Obs.create ~trace:true () in
      ignore (Runner.run_fault ?config ~obs ~pool bench fault))
    Suite.rows;
  Metrics.observe reg "suite.traced_wall" (Unix.gettimeofday () -. t1);
  (* store passes: each fault opens a fresh handle (empty memory front)
     over the same directory, the way independent processes would, so
     warm hits are honest disk hits *)
  let store_dir = scratch_dir "store" in
  rm_rf store_dir;
  let store_pass pass =
    List.iter
      (fun (bench, fault) ->
        let obs = Obs.create () in
        let store = Store.create ~obs ~dir:store_dir () in
        let r = Runner.run_fault ?config ~obs ~pool ~store bench fault in
        let st = r.Runner.report.Demand.store in
        let hits = st.Store.hits + st.Store.disk_hits in
        add (pass ^ ".hits") hits;
        add (pass ^ ".queries") (hits + st.Store.misses);
        add (pass ^ ".switched_runs")
          (Metrics.timer_count (Obs.metrics obs) "verify.run"))
      Suite.rows
  in
  store_pass "store.prime";
  store_pass "store.warm";
  rm_rf store_dir;
  Pool.shutdown pool;
  Option.iter (run_corpus ?config ~jobs reg) corpus_count;
  reg

let summary reg =
  let v = Metrics.counter_value reg in
  let rate pass =
    let q = v (pass ^ ".queries") in
    if q = 0 then 0.0
    else 100.0 *. float_of_int (v (pass ^ ".hits")) /. float_of_int q
  in
  Printf.sprintf
    "%d/%d located, %d switched runs, %d interpreter runs; warm store hit \
     rate %.0f%%, %d switched run(s) dispatched%s"
    (v "suite.located") (v "suite.faults") (v "suite.switched_runs")
    (v "suite.interp_runs") (rate "store.warm")
    (v "store.warm.switched_runs")
    (match Metrics.find reg "corpus.total" with
    | None -> ""
    | Some total ->
      let ran = total.Metrics.value - v "corpus.failed" in
      Printf.sprintf
        "; corpus (seed %d) %d/%d located, %d failed, mean verifications %.2f"
        (v "corpus.seed") (v "corpus.located") total.Metrics.value
        (v "corpus.failed")
        (if ran = 0 then 0.0
         else float_of_int (v "corpus.verifications") /. float_of_int ran))

(* {2 Reading snapshots} *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* An [exom.bench] v1-v4 line, the format before snapshots were
   registries, mapped onto the registry's names.  Those lines kept the
   store passes as hit rates and the corpus counts as means, so the
   suite's verification queries stand in for each pass's store queries
   (hits = rate x queries) and the corpus sums are mean x rows that
   ran.  v1 predates the warm pass, v1-v2 the corpus leg and v1-v3 the
   traced pass: their metrics are simply absent, which {!drift} reads
   as "no baseline", never as a drop. *)
let of_legacy j =
  let reg = Metrics.create () in
  let num j k =
    match Option.bind (Json.member k j) Json.to_float with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed %s" k)
  in
  let round v = Float.to_int (Float.round v) in
  let each f l =
    List.fold_left (fun acc x -> let* () = acc in f x) (Ok ()) l
  in
  let counts j =
    each (fun (k, name) ->
        let* v = num j k in
        Ok (Metrics.add reg name (round v)))
  in
  let timers j =
    each (fun (k, name) ->
        let* v = num j k in
        Ok (Metrics.observe reg name v))
  in
  let* version = num j "version" in
  let version = int_of_float version in
  if version < 1 || version > 4 then
    Error
      (Printf.sprintf "exom.bench version %d (this reader understands 1-4)"
         version)
  else
    let* () =
      counts j
        [ ("jobs", "suite.jobs"); ("total", "suite.faults");
          ("located", "suite.located"); ("verify_runs", "suite.switched_runs");
          ("interp_runs", "suite.interp_runs") ]
    in
    let* () =
      timers j
        [ ("wall_seconds", "suite.wall"); ("verify_seconds", "suite.verify") ]
    in
    let* () =
      if version < 4 then Ok ()
      else timers j [ ("traced_wall_seconds", "suite.traced_wall") ]
    in
    let* rows =
      Option.to_result ~none:"missing or ill-typed rows"
        (Option.bind (Json.member "rows" j) Json.to_list)
    in
    let* () =
      each
        (fun r ->
          match
            ( Option.bind (Json.member "bench" r) Json.to_str,
              Option.bind (Json.member "fault" r) Json.to_str,
              Json.member "found" r )
          with
          | Some bench, Some fault, Some (Json.Bool found) ->
            let key k = Printf.sprintf "suite.%s.%s.%s" bench fault k in
            Metrics.add reg (key "found") (Bool.to_int found);
            let* () =
              counts r
                (List.map
                   (fun k -> (k, key k))
                   [ "verifications"; "queries"; "iterations"; "edges";
                     "prunings" ])
            in
            Ok
              (Metrics.add reg "suite.queries"
                 (Metrics.counter_value reg (key "queries")))
          | _ -> Error "ill-typed row")
        rows
    in
    let queries = Metrics.counter_value reg "suite.queries" in
    let store pass k =
      let* rate = num j k in
      Metrics.add reg (pass ^ ".hits") (round (rate *. float_of_int queries));
      Ok (Metrics.add reg (pass ^ ".queries") queries)
    in
    let* () = store "store.prime" "store_hit_rate" in
    let* () =
      if version < 2 then Ok ()
      else
        let* () = store "store.warm" "warm_hit_rate" in
        counts j [ ("warm_verify_runs", "store.warm.switched_runs") ]
    in
    match Json.member "corpus" j with
    | None -> Ok reg
    | Some c ->
      let* () =
        counts c
          [ ("seed", "corpus.seed"); ("count", "corpus.count");
            ("total", "corpus.total"); ("located", "corpus.located");
            ("failed", "corpus.failed") ]
      in
      let ran =
        float_of_int
          (Metrics.counter_value reg "corpus.total"
          - Metrics.counter_value reg "corpus.failed")
      in
      let* () =
        each
          (fun (k, name) ->
            let* mean = num c k in
            Ok (Metrics.add reg name (round (mean *. ran))))
          [ ("mean_iterations", "corpus.iterations");
            ("mean_verifications", "corpus.verifications") ]
      in
      let* () = timers c [ ("wall_seconds", "corpus.wall") ] in
      Ok reg

(* The last non-empty line decides the format: a legacy snapshot file
   is one [exom.bench] line and a legacy history file ends with one;
   anything else must be a whole registry log, torn tail included —
   a gate must not pass by comparing fewer metrics. *)
let of_string content =
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' content)
  in
  match List.rev lines with
  | [] -> Error "empty snapshot file"
  | last :: _ -> (
    match Json.parse last with
    | Ok j
      when Option.bind (Json.member "schema" j) Json.to_str = Some "exom.bench"
      ->
      of_legacy j
    | _ -> (
      match Export.metrics_of_jsonl content with
      | Error _ as e -> e
      | Ok (reg, None) -> Ok reg
      | Ok (_, Some { Export.torn_line; _ }) ->
        Error (Printf.sprintf "torn record at line %d" torn_line)))

let load path =
  match Exom_util.Vfs.read_file path with
  | Error e -> Error (Exom_util.Vfs.error_message e)
  | Ok content -> of_string content

(* {2 Regression comparison} *)

(* What [drift] compares: the counters as recorded, each store pass's
   hit rate in parts per million, and each timer measured on both sides
   as a [<timer>.us] counter of its wall clock. *)
let comparable reg ~other =
  let view = Metrics.create () in
  List.iter
    (fun (m : Metrics.metric) ->
      match m.Metrics.kind with
      | Metrics.Counter | Metrics.Gauge ->
        Metrics.add view m.Metrics.name m.Metrics.value
      | Metrics.Timer ->
        if
          m.Metrics.seconds > 0.0
          && Metrics.timer_seconds other m.Metrics.name > 0.0
        then
          Metrics.add view (m.Metrics.name ^ ".us")
            (Float.to_int (Float.round (m.Metrics.seconds *. 1e6))))
    (Metrics.to_list reg);
  List.iter
    (fun pass ->
      match Metrics.find reg (pass ^ ".queries") with
      | None -> ()
      | Some q ->
        let hits = Metrics.counter_value reg (pass ^ ".hits") in
        Metrics.add view (pass ^ ".hit_ppm")
          (if q.Metrics.value = 0 then 0
           else hits * 1_000_000 / q.Metrics.value))
    [ "store.prime"; "store.warm" ];
  view

let gated_counts =
  [ "suite.queries"; "suite.switched_runs"; "suite.interp_runs";
    "store.warm.switched_runs"; "corpus.failed"; "corpus.iterations";
    "corpus.verifications" ]

(* The one table: located flags may never drop, the corpus must be the
   same corpus, deterministic counts may grow by [tolerance], hit rates
   may shrink by it, and wall clocks may grow by [time_tolerance].
   Everything else (per-fault work, raw store counters, totals) is
   recorded for reading, not gated. *)
let rule ~tolerance ~time_tolerance name =
  let ends suffix = String.ends_with ~suffix name in
  if ends ".found" || name = "suite.located" || name = "corpus.located" then
    Some (Metrics.Down, 0.0)
  else if name = "corpus.seed" || name = "corpus.count" then
    Some (Metrics.Both, 0.0)
  else if List.mem name gated_counts then Some (Metrics.Up, tolerance)
  else if ends ".hit_ppm" then Some (Metrics.Down, tolerance)
  else if ends ".us" then Some (Metrics.Up, time_tolerance)
  else None

let drift ~tolerance ~time_tolerance older newer =
  let o = comparable older ~other:newer in
  let n = comparable newer ~other:older in
  (* a metric the baseline never recorded has nothing to drift from *)
  let rule name =
    if Metrics.find o name = None then None
    else rule ~tolerance ~time_tolerance name
  in
  Metrics.drift ~rule o n
