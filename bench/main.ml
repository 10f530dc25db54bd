(* The paper-table harness: regenerates every table of the paper's
   evaluation (Tables 1-4) on the exom_bench suite, then compares the
   scheduler's sequential, parallel and warm-store runs.

   Usage: dune exec bench/main.exe [-- --sched-only] [--sched-json F]
*)

module B = Exom_bench.Bench_types
module Runner = Exom_bench.Runner
module Suite = Exom_bench.Suite
module Demand = Exom_core.Demand
module Slice = Exom_ddg.Slice
module Table = Exom_util.Table
module Typecheck = Exom_lang.Typecheck

let fmt_sizes (s : Runner.sizes) =
  Printf.sprintf "%d/%d" s.Runner.static_size s.Runner.dynamic_size

let fmt_ratio a b =
  let r x y = if y = 0 then 0.0 else float_of_int x /. float_of_int y in
  Printf.sprintf "%.2f/%.2f"
    (r a.Runner.static_size b.Runner.static_size)
    (r a.Runner.dynamic_size b.Runner.dynamic_size)

let print_table_1 () =
  print_endline "== Table 1: Characteristics of benchmarks ==";
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Left; Table.Left ]
      [ "Benchmark"; "LOC"; "# of procedures"; "Error type"; "Description" ]
  in
  List.iter
    (fun b ->
      let prog = Typecheck.parse_and_check b.B.source in
      Table.add_row t
        [ b.B.name;
          string_of_int (B.loc_count b);
          string_of_int (B.procedure_count prog);
          b.B.error_type;
          b.B.description ])
    Suite.all;
  Table.print t;
  print_newline ()

let print_table_2 results =
  print_endline
    "== Table 2: Execution omission errors (slice sizes, static/dynamic) ==";
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Left ]
      [ "Benchmark"; "Error"; "RS"; "DS"; "PS"; "RS/DS"; "RS/PS"; "captured by" ]
  in
  List.iter
    (fun (r : Runner.result) ->
      let captured =
        String.concat ""
          [ (if r.Runner.root_in_rs then "RS " else "");
            (if r.Runner.root_in_ds then "DS " else "");
            (if r.Runner.root_in_ps then "PS" else "") ]
      in
      Table.add_row t
        [ r.Runner.bench.B.name;
          r.Runner.fault.B.fid;
          fmt_sizes r.Runner.rs;
          fmt_sizes r.Runner.ds;
          fmt_sizes r.Runner.ps;
          fmt_ratio r.Runner.rs r.Runner.ds;
          fmt_ratio r.Runner.rs r.Runner.ps;
          (if captured = "" then "none" else String.trim captured) ])
    results;
  Table.print t;
  let misses = List.filter (fun r -> not r.Runner.root_in_ds) results in
  Printf.printf
    "(RS captures %d/%d roots; DS misses %d/%d — the execution omission \
     errors)\n\n"
    (List.length (List.filter (fun r -> r.Runner.root_in_rs) results))
    (List.length results) (List.length misses) (List.length results)

let print_table_3 results =
  print_endline "== Table 3: Effectiveness ==";
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right; Table.Left ]
      [ "Benchmark"; "Error"; "# of user prunings"; "# of verifications";
        "# of iterations"; "# of expanded edges"; "IPS"; "OS"; "located" ]
  in
  List.iter
    (fun (r : Runner.result) ->
      Table.add_row t
        [ r.Runner.bench.B.name;
          r.Runner.fault.B.fid;
          string_of_int r.Runner.report.Demand.user_prunings;
          string_of_int r.Runner.report.Demand.verifications;
          string_of_int r.Runner.report.Demand.iterations;
          string_of_int r.Runner.report.Demand.expanded_edges;
          fmt_sizes r.Runner.ips;
          (match r.Runner.os_ with Some s -> fmt_sizes s | None -> "-");
          (if r.Runner.report.Demand.found then "yes" else "NO") ])
    results;
  Table.print t;
  print_newline ()

let print_table_4 results =
  print_endline "== Table 4: Performance ==";
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
          Table.Right ]
      [ "Benchmark"; "Error"; "Plain (sec.)"; "Graph (sec.)"; "Verif. (sec.)";
        "Graph/Plain" ]
  in
  List.iter
    (fun (r : Runner.result) ->
      let ratio =
        if r.Runner.plain_seconds > 0.0 then
          r.Runner.graph_seconds /. r.Runner.plain_seconds
        else 0.0
      in
      Table.add_row t
        [ r.Runner.bench.B.name;
          r.Runner.fault.B.fid;
          Printf.sprintf "%.5f" r.Runner.plain_seconds;
          Printf.sprintf "%.5f" r.Runner.graph_seconds;
          Printf.sprintf "%.5f" r.Runner.verif_seconds;
          Printf.sprintf "%.1f" ratio ])
    results;
  Table.print t;
  print_newline ()

let print_robustness results =
  print_endline
    "== Robustness telemetry (switched re-executions during Table 3/4 runs) ==";
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "Benchmark"; "Error"; "runs"; "completed"; "aborted"; "retried";
        "breaker trips/skips"; "deadline"; "captured" ]
  in
  List.iter
    (fun (r : Runner.result) ->
      let g = r.Runner.robustness in
      Table.add_row t
        [ r.Runner.bench.B.name;
          r.Runner.fault.B.fid;
          string_of_int r.Runner.report.Demand.verifications;
          string_of_int g.Exom_core.Guard.completed;
          string_of_int g.Exom_core.Guard.aborted;
          string_of_int g.Exom_core.Guard.retried;
          Printf.sprintf "%d/%d" g.Exom_core.Guard.breaker_trips
            g.Exom_core.Guard.breaker_skips;
          string_of_int g.Exom_core.Guard.deadline_expired;
          string_of_int g.Exom_core.Guard.captured ])
    results;
  Table.print t;
  print_newline ()

(* Ablations: the design decisions DESIGN.md calls out. *)

let print_ablations () =
  print_endline
    "== Ablation A: confidence over blind potential edges (the \"plausible \
     alternative\" of §3.2) ==";
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Left ]
      [ "Benchmark"; "Error"; "C(root) verified"; "C(root) potential";
        "root sanitized?" ]
  in
  List.iter
    (fun (b, f) ->
      let s = Exom_bench.Ablation.potential_confidence_sanitizes b f in
      Table.add_row t
        [ b.B.name;
          f.B.fid;
          Printf.sprintf "%.3f" s.Exom_bench.Ablation.conf_verified;
          Printf.sprintf "%.3f" s.Exom_bench.Ablation.conf_potential;
          (if s.Exom_bench.Ablation.sanitized then "YES (root lost)" else "no")
        ])
    Suite.rows;
  Table.print t;
  print_newline ();
  print_endline
    "== Ablation B: edge-approximated vs path-exact VerifyDep (§3.2) ==";
  let t2 =
    Table.create
      ~aligns:
        [ Table.Left; Table.Left; Table.Left; Table.Right; Table.Right;
          Table.Left; Table.Right; Table.Right ]
      [ "Benchmark"; "Error"; "edge: found"; "verif"; "edges"; "path: found";
        "verif"; "edges" ]
  in
  List.iter
    (fun (name, fid) ->
      let b = Option.get (Suite.find name) in
      let f = Option.get (Suite.find_fault b fid) in
      let c = Exom_bench.Ablation.compare_verify_modes b f in
      let yn r = if r.Demand.found then "yes" else "NO" in
      Table.add_row t2
        [ name; fid;
          yn c.Exom_bench.Ablation.edge_report;
          string_of_int c.Exom_bench.Ablation.edge_report.Demand.verifications;
          string_of_int c.Exom_bench.Ablation.edge_report.Demand.expanded_edges;
          yn c.Exom_bench.Ablation.path_report;
          string_of_int c.Exom_bench.Ablation.path_report.Demand.verifications;
          string_of_int c.Exom_bench.Ablation.path_report.Demand.expanded_edges
        ])
    [ ("flexsim", "V1-F9"); ("grepsim", "V4-F2"); ("gzipsim", "V2-F3");
      ("sedsim", "V3-F2") ];
  Table.print t2;
  print_newline ();
  print_endline
    "== Ablation C: condition (iv) backend — static analysis vs the \
     paper's union dependence graph ==";
  let t3 =
    Table.create
      ~aligns:
        [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
          Table.Left ]
      [ "Benchmark"; "Error"; "RS static-(iv)"; "RS union-(iv)";
        "union pairs"; "root kept" ]
  in
  List.iter
    (fun (b, f) ->
      let r = Exom_bench.Ablation.compare_rs_backends b f in
      let ss, sd = r.Exom_bench.Ablation.rs_static in
      let us, ud = r.Exom_bench.Ablation.rs_union in
      Table.add_row t3
        [ b.B.name; f.B.fid;
          Printf.sprintf "%d/%d" ss sd;
          Printf.sprintf "%d/%d" us ud;
          string_of_int r.Exom_bench.Ablation.union_pairs;
          (if r.Exom_bench.Ablation.root_in_union then "yes" else "LOST") ])
    Suite.rows;
  Table.print t3;
  print_newline ();
  print_endline
    "== Comparison D: critical-predicate search (ICSE'06 [18], §6) vs \
     demand-driven implicit dependences ==";
  let t4 =
    Table.create
      ~aligns:
        [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
          Table.Left ]
      [ "Benchmark"; "Error"; "critical preds found"; "re-executions";
        "demand verifications"; "demand located" ]
  in
  List.iter
    (fun (b, f) ->
      let c = Exom_bench.Ablation.compare_with_critical_search b f in
      Table.add_row t4
        [ b.B.name; f.B.fid;
          string_of_int c.Exom_bench.Ablation.critical_found;
          string_of_int c.Exom_bench.Ablation.critical_executions;
          string_of_int c.Exom_bench.Ablation.demand_verifications;
          (if c.Exom_bench.Ablation.demand_found then "yes" else "NO") ])
    Suite.rows;
  Table.print t4;
  print_endline
    "(a fault with 0 critical predicates cannot be found by whole-output \
     switching at any cost)";
  print_newline ()

(* Scheduler comparison: the whole suite at -j1 (cold store), -jN
   (cold) and -j1 again against the store the cold run just filled.
   Checks the determinism contract (bit-identical reports at any job
   count) while measuring it, and prices the warm-store shortcut. *)

module Pool = Exom_sched.Pool
module Store = Exom_sched.Store

let sched_jobs =
  (* architectural comparison, not a hardware claim: on a single-core
     runner the -jN pass measures scheduling overhead, not speedup *)
  match Sys.getenv_opt "EXOM_JOBS" with
  | Some v when (match int_of_string_opt v with Some n -> n > 1 | None -> false)
    -> int_of_string v
  | _ -> 4

(* Everything a localization claims, minus timings: the fields the
   determinism contract promises are identical at any -j and any store
   temperature. *)
let locate_signature (r : Runner.result) =
  let rep = r.Runner.report in
  ( rep.Demand.found, rep.Demand.user_prunings, rep.Demand.total_prunings,
    rep.Demand.iterations, rep.Demand.expanded_edges,
    rep.Demand.implicit_edges, rep.Demand.benign,
    Slice.sids rep.Demand.ips, Slice.sids rep.Demand.ds,
    Slice.sids rep.Demand.ps0, rep.Demand.os_chain )

(* Cold runs additionally promise identical run counts and robustness
   telemetry (warm runs skip the re-executions, so only the
   localization fields are comparable there). *)
let full_signature (r : Runner.result) =
  let rep = r.Runner.report in
  ( locate_signature r, rep.Demand.verifications, rep.Demand.verify_queries,
    rep.Demand.robustness, rep.Demand.failures )

type sched_row = {
  sr_bench : string;
  sr_fault : string;
  sr_seq : float;  (* whole run_fault wall secs, -j1, cold store *)
  sr_par : float;  (* -jN, cold store *)
  sr_warm : float;  (* -j1, warm store *)
  sr_verifs : int;
  sr_queries : int;
  sr_warm_hits : int;
  sr_identical : bool;  (* -j1 = -jN (full) and = warm (localization) *)
}

let run_sched_comparison () =
  Printf.printf
    "== Scheduler: sequential vs parallel (-j %d) vs warm store ==\n"
    sched_jobs;
  let seq_pool = Pool.create ~jobs:1 () in
  let par_pool = Pool.create ~jobs:sched_jobs () in
  let rows =
    List.map
      (fun (b, f) ->
        (* duration comes from the metrics registry of the run itself
           (one timing path shared with `exom stats`), not an ad-hoc
           stopwatch around it *)
        let timed pool store =
          let obs = Exom_obs.Obs.create () in
          let r =
            Exom_obs.Obs.timed obs "bench.run_fault" (fun () ->
                Runner.run_fault ~obs ~pool ?store b f)
          in
          ( r,
            Exom_obs.Metrics.timer_seconds
              (Exom_obs.Obs.metrics obs)
              "bench.run_fault" )
        in
        let store = Store.create () in
        let seq, seq_s = timed seq_pool (Some store) in
        let par, par_s = timed par_pool None in
        (* third pass re-reads the verdicts the -j1 pass stored *)
        let warm, warm_s = timed seq_pool (Some store) in
        {
          sr_bench = b.B.name;
          sr_fault = f.B.fid;
          sr_seq = seq_s;
          sr_par = par_s;
          sr_warm = warm_s;
          sr_verifs = seq.Runner.report.Demand.verifications;
          sr_queries = seq.Runner.report.Demand.verify_queries;
          sr_warm_hits =
            warm.Runner.report.Demand.store.Store.hits
            + warm.Runner.report.Demand.store.Store.disk_hits;
          sr_identical =
            full_signature seq = full_signature par
            && locate_signature seq = locate_signature warm;
        })
      Suite.rows
  in
  Pool.shutdown seq_pool;
  Pool.shutdown par_pool;
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Left ]
      [ "Benchmark"; "Error"; "verif/queries"; "-j1 (sec.)";
        Printf.sprintf "-j%d (sec.)" sched_jobs; "warm (sec.)"; "warm hits";
        "identical" ]
  in
  List.iter
    (fun row ->
      Table.add_row t
        [ row.sr_bench; row.sr_fault;
          Printf.sprintf "%d/%d" row.sr_verifs row.sr_queries;
          Printf.sprintf "%.4f" row.sr_seq;
          Printf.sprintf "%.4f" row.sr_par;
          Printf.sprintf "%.4f" row.sr_warm;
          string_of_int row.sr_warm_hits;
          (if row.sr_identical then "yes" else "NO") ])
    rows;
  Table.print t;
  let all_identical = List.for_all (fun r -> r.sr_identical) rows in
  Printf.printf
    "(reports %s across -j1 / -j%d / warm store; warm runs answered %d \
     verdicts without a single re-execution)\n\n"
    (if all_identical then "identical" else "DIVERGED")
    sched_jobs
    (List.fold_left (fun acc r -> acc + r.sr_warm_hits) 0 rows);
  rows

let write_sched_json path rows =
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let seq_total = total (fun r -> r.sr_seq) in
  let par_total = total (fun r -> r.sr_par) in
  let warm_total = total (fun r -> r.sr_warm) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\n";
      Printf.fprintf oc "  \"jobs_parallel\": %d,\n" sched_jobs;
      Printf.fprintf oc "  \"sequential_seconds\": %.6f,\n" seq_total;
      Printf.fprintf oc "  \"parallel_seconds\": %.6f,\n" par_total;
      Printf.fprintf oc "  \"warm_store_seconds\": %.6f,\n" warm_total;
      Printf.fprintf oc "  \"identical_reports\": %b,\n"
        (List.for_all (fun r -> r.sr_identical) rows);
      Printf.fprintf oc "  \"faults\": [\n";
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    {\"bench\": %S, \"fault\": %S, \"verifications\": %d, \
             \"queries\": %d, \"seq_seconds\": %.6f, \"par_seconds\": %.6f, \
             \"warm_seconds\": %.6f, \"warm_hits\": %d, \"identical\": %b}%s\n"
            r.sr_bench r.sr_fault r.sr_verifs r.sr_queries r.sr_seq r.sr_par
            r.sr_warm r.sr_warm_hits r.sr_identical
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ]\n}\n");
  Printf.printf "scheduler timings written to %s\n" path

let () =
  let args = Array.to_list Sys.argv in
  let sched_only = List.mem "--sched-only" args in
  let rec flag_path name = function
    | f :: path :: _ when f = name -> Some path
    | _ :: rest -> flag_path name rest
    | [] -> None
  in
  let json_path = flag_path "--sched-json" args in
  print_endline
    "exom benchmark harness: reproducing the evaluation of \"Towards \
     Locating Execution Omission Errors\" (PLDI 2007)";
  print_newline ();
  if sched_only then begin
    let rows = run_sched_comparison () in
    Option.iter (fun p -> write_sched_json p rows) json_path;
    if not (List.for_all (fun r -> r.sr_identical) rows) then exit 1
  end
  else begin
    print_table_1 ();
    print_endline "(running all 11 fault-localization experiments...)";
    let results = List.map (fun (b, f) -> Runner.run_fault b f) Suite.rows in
    print_newline ();
    print_table_2 results;
    print_table_3 results;
    print_table_4 results;
    print_robustness results;
    print_ablations ();
    let rows = run_sched_comparison () in
    Option.iter (fun p -> write_sched_json p rows) json_path;
    let located =
      List.length
        (List.filter (fun r -> r.Runner.report.Demand.found) results)
    in
    Printf.printf "Located %d/%d seeded execution omission errors.\n" located
      (List.length results);
    if not (List.for_all (fun r -> r.sr_identical) rows) then exit 1
  end
