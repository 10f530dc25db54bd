module Json = Exom_obs.Json

let workloads = [ "suite"; "corpus" ]

type metric = {
  name : string;
  unit : string;
  declared : bool;
  applies : string list;
}

let m ?(declared = true) ?(applies = workloads) name unit =
  { name; unit; declared; applies }

let end_to_end =
  [
    m "setup_s" "s";
    m "localizations_per_s" "1/s";
    m "locate_p50_ms" "ms";
    m "locate_p90_ms" "ms";
    m "located_frac" "ratio";
    m "peak_rss_mb" "MB";
    (* 0 on a healthy run, so it cannot be a gated metric; the result
       line carries it as [failed] / [attempted] *)
    m ~declared:false "failed_frac" "ratio";
    m ~declared:false "locate_samples" "count";
    (* the figures before scaling to the reference speed, and the wall
       time of the passes, reference calls included *)
    m ~declared:false "reference_call_ms" "ms";
    m ~declared:false "cpu_setup_s" "s";
    m ~declared:false "cpu_localizations_per_s" "1/s";
    m ~declared:false "cpu_locate_p50_ms" "ms";
    m ~declared:false "cpu_locate_p90_ms" "ms";
    m ~declared:false "wall_localizations_per_s" "1/s";
  ]

(* layers that do work only on the corpus *)
let corpus_only name unit = m ~declared:false ~applies:[ "corpus" ] name unit

(* Figures of layers that do no work on the suite are printed, not
   declared: a declared metric is measured on every workload. *)
let per_layer =
  [
    m "lang.parse_ms" "ms";
    m "interp.traced_ms" "ms";
    m "interp.untraced_ms" "ms";
    m "interp.trace_overhead" "ratio";
    m "interp.steps" "count";
    m "interp.runs" "count";
    m "interp.trace_records" "count";
    m "interp.steps_per_switched_run" "steps/run";
    m "session.create_ms" "ms";
    m "session.failing_run_ms" "ms";
    m "session.regions_ms" "ms";
    m "session.profile_ms" "ms";
    m "demand.locate_ms" "ms";
    m "verify.batch_ms" "ms";
    m "verify.reexec_ms" "ms";
    m "demand.analysis_ms" "ms";
    m "demand.analysis_share" "ratio";
    m "verify.runs" "count";
    m "verify.queries" "count";
    m "verify.runs_per_query" "ratio";
    m "verify.batches" "count";
    m "verify.pairs_per_batch" "ratio";
    m "demand.iterations" "count";
    m "demand.expanded_edges" "count";
    m "guard.aborted" "count";
    m "guard.retried" "count";
    m "guard.breaker_skips" "count";
    m "slice.compute_ms" "ms";
    m "slice.nodes" "count";
    m "slice.correct_ms" "ms";
    m "relevant.pd_calls" "count";
    m "relevant.pd_us" "us";
    m "relevant.pd_size" "count";
    m "confidence.compute_ms" "ms";
    m "prune.compute_ms" "ms";
    m "prune.size" "count";
    m "verify.align_ms" "ms";
    m "align.queries" "count";
    m "align.matched" "count";
    m "align.match_ratio" "ratio";
    m "pool.tasks" "count";
    corpus_only "campaign.run_triple_ms" "ms";
    corpus_only "campaign.compute_ms" "ms";
    corpus_only "campaign.persist_ms" "ms";
    corpus_only "campaign.replay_ms" "ms";
    corpus_only "campaign.persist_share" "ratio";
    corpus_only "store.open_ms" "ms";
    m "store.writes" "count";
    m "store.misses" "count";
    m "store.hits" "count";
    m "store.disk_hits" "count";
    m "store.hit_rate" "ratio";
    corpus_only "recover.plan_ms" "ms";
    corpus_only "gen.attempts" "count";
    corpus_only "gen.yield" "ratio";
    corpus_only "gen.triples_per_s" "1/s";
    corpus_only "factory.generate_ms" "ms";
    corpus_only "seeder.seed_ms" "ms";
    corpus_only "seeder.validates_ms" "ms";
    corpus_only "gen.rejected_ms" "ms";
    m "obs.trace_overhead" "ratio";
  ]

let metrics_for ~trace w =
  List.filter
    (fun x -> List.mem w x.applies)
    (if trace then per_layer else end_to_end)

let valid_name s =
  let ok c =
    match c with
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  String.length s > 0
  && String.length s <= 64
  && String.for_all ok s
  && match s.[0] with '_' | '.' | '-' -> false | _ -> true

(* {2 Statistics} *)

let min_beyond = 10

let rank p n = int_of_float (Float.ceil (p *. float_of_int n)) - 1

let samples_needed p =
  let rec go n = if n - (rank p n + 1) >= min_beyond then n else go (n + 1) in
  go 1

let percentile p xs =
  let n = List.length xs in
  if not (p > 0.0 && p < 1.0) then Error "percentile outside (0, 1)"
  else if n < samples_needed p then
    Error
      (Printf.sprintf "p%g needs %d samples (%d beyond it), got %d"
         (100. *. p) (samples_needed p) min_beyond n)
  else
    let a = Array.of_list xs in
    Array.sort compare a;
    Ok a.(max 0 (rank p n))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* {2 The result line} *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float * string) list;
}

(* %.17g round-trips every double; integral values print as integers *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let result_to_string r =
  let metric (name, v, u) =
    Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}"
      (Json.to_string (Json.Str name))
      (number v)
      (Json.to_string (Json.Str u))
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    r.correct r.attempted r.failed
    (String.concat "," (List.map metric r.values))

let result_of_string s =
  let ( let* ) = Result.bind in
  let field k j =
    Option.to_result ~none:(Printf.sprintf "missing %S" k) (Json.member k j)
  in
  let int k j =
    let* v = field k j in
    match Json.to_float v with
    | Some f when Float.is_integer f -> Ok (int_of_float f)
    | _ -> Error (Printf.sprintf "%S is not a whole number" k)
  in
  let* j = Json.parse s in
  let* keys =
    match j with
    | Json.Obj kv -> Ok (List.map fst kv)
    | _ -> Error "not an object"
  in
  let* () =
    if List.sort compare keys = [ "attempted"; "correct"; "failed"; "metrics" ]
    then Ok ()
    else Error "keys are not exactly correct/attempted/failed/metrics"
  in
  let* correct =
    let* v = field "correct" j in
    match v with Json.Bool b -> Ok b | _ -> Error "\"correct\" is not a bool"
  in
  let* attempted = int "attempted" j in
  let* failed = int "failed" j in
  let* ms = field "metrics" j in
  let* values =
    match ms with
    | Json.Obj kv ->
      List.fold_right
        (fun (name, v) acc ->
          let* acc = acc in
          match
            ( Option.bind (Json.member "value" v) Json.to_float,
              Option.bind (Json.member "unit" v) Json.to_str )
          with
          | Some x, Some u -> Ok ((name, x, u) :: acc)
          | _ -> Error (Printf.sprintf "metric %S lacks value or unit" name))
        kv (Ok [])
    | _ -> Error "\"metrics\" is not an object"
  in
  Ok { correct; attempted; failed; values }
