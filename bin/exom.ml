(* exom: the command-line front end.

   Subcommands:
     run     execute an MCL program (optionally dumping the trace)
     info    front-end and static-analysis facts about a program
     slice   dynamic slice of one output
     rslice  relevant slice of one output (potential dependences)
     locate  full demand-driven localization against a corrected program
     explain causal narrative of a --ledger-out provenance ledger, or
             confidence analysis of a failing run (ranked candidates)
     recover inspect a killed run's journaled ledger (what --resume replays)
     dot     Graphviz rendering of the dynamic dependence graph
     regions the execution's region decomposition (Definition 3)
     bench   run one benchmark fault (or, with --all, the whole suite,
             optionally writing its perf snapshot; --export writes the
             fault's sources/input for exom client)
     regress compare two bench snapshots and flag metric regressions
     stats   pretty-print (or --diff) --metrics-out event logs
     serve   localization daemon over a Unix-domain socket (crash-safe:
             accepted requests survive SIGKILL; --resume replays them)
     client  send one localization request to a daemon (--stress N for
             N concurrent clients)
     corpus  corpus factory: gen (seeded manifest of validated omission
             faults), run (sharded campaign, crash-safe resume), report,
             mine (feature tables), seed (inject one fault in a file)
     chaos   seeded storage-fault storm over suite faults and corpus
             triples (io-chaos + worker kills + kill/resume cuts);
             --check gates on the degradation-contract invariants      *)

module Ast = Exom_lang.Ast
module Typecheck = Exom_lang.Typecheck
module Loc = Exom_lang.Loc
module Interp = Exom_interp.Interp
module Trace = Exom_interp.Trace
module Proginfo = Exom_cfg.Proginfo
module Slice = Exom_ddg.Slice
module Relevant = Exom_ddg.Relevant
module Session = Exom_core.Session
module Oracle = Exom_core.Oracle
module Demand = Exom_core.Demand
module B = Exom_bench.Bench_types
module Runner = Exom_bench.Runner
module Suite = Exom_bench.Suite
module Perf = Exom_bench.Perf
module Ledger = Exom_ledger.Ledger
module Lexplain = Exom_ledger.Explain
module Rank = Exom_rank.Rank
module Vfs = Exom_util.Vfs

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Crash-consistent: a kill mid-write leaves the old file or the new
   one, never a torn hybrid (same discipline as Ledger.write and the
   store's entry writer).  CLI outputs have no degradation tier — a
   failed write is the command's failure. *)
let write_file path content =
  Vfs.get_ok (Vfs.write_file_atomic ~tmp:(path ^ ".tmp") path content)

let compile_file path =
  try Ok (Typecheck.parse_and_check (read_file path)) with
  | Loc.Error (loc, msg) ->
    Error (Printf.sprintf "%s:%d:%d: %s" path (Loc.line loc) (Loc.col loc) msg)
  | Failure msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Sys_error msg -> Error msg

let parse_ints s =
  String.split_on_char ',' s
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (fun x -> String.trim x <> "")
  |> List.map (fun x -> int_of_string (String.trim x))

(* Common options *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MCL source file")

let input_arg =
  Arg.(
    value & opt string ""
    & info [ "input"; "i" ] ~docv:"INTS"
        ~doc:"Program input: comma- or space-separated integers")

let text_arg =
  Arg.(
    value & opt (some string) None
    & info [ "text" ]
        ~doc:
          "Program input as text: encoded as length followed by character \
           codes (the convention of the benchmark programs)")

let resolve_input input text =
  match text with
  | Some t -> B.input_of_string t
  | None -> parse_ints input

let output_index_arg =
  Arg.(
    value & opt int 0
    & info [ "output"; "o" ] ~docv:"N" ~doc:"Index of the output to slice on (0-based)")

(* run *)

let run_cmd =
  let action file input text tracing dump_trace =
    match compile_file file with
    | Error e ->
      prerr_endline e;
      1
    | Ok prog ->
      let tracing = tracing || dump_trace <> None in
      let run = Interp.run ~tracing prog ~input:(resolve_input input text) in
      List.iter (fun (_, v) -> Printf.printf "%d\n" v) run.Interp.outputs;
      (match (dump_trace, run.Interp.trace) with
      | Some path, Some t ->
        Exom_interp.Trace_io.save path t;
        Printf.eprintf "trace written to %s\n" path
      | _ -> ());
      (match run.Interp.outcome with
      | Ok () ->
        (match run.Interp.trace with
        | Some t ->
          Printf.eprintf "(%d steps, %d trace instances)\n" run.Interp.steps
            (Trace.length t)
        | None -> Printf.eprintf "(%d steps)\n" run.Interp.steps);
        0
      | Error Interp.Budget_exhausted ->
        prerr_endline "aborted: step budget exhausted";
        2
      | Error (Interp.Crashed msg) ->
        Printf.eprintf "crashed: %s\n" msg;
        2)
  in
  let tracing =
    Arg.(value & flag & info [ "trace" ] ~doc:"Collect an execution trace")
  in
  let dump_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-trace" ] ~docv:"FILE"
          ~doc:"Write the execution trace to FILE (implies --trace)")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute an MCL program")
    Term.(const action $ file_arg $ input_arg $ text_arg $ tracing $ dump_trace)

(* info *)

let info_cmd =
  let action file =
    match compile_file file with
    | Error e ->
      prerr_endline e;
      1
    | Ok prog ->
      let info = Proginfo.build prog in
      Printf.printf "functions:  %d\n" (List.length prog.Ast.funcs);
      Printf.printf "globals:    %d\n" (List.length prog.Ast.globals);
      Printf.printf "statements: %d\n" (Ast.stmt_count prog);
      let preds = ref 0 in
      Ast.iter_program (fun s -> if Ast.is_predicate s then incr preds) prog;
      Printf.printf "predicates: %d\n" !preds;
      List.iter
        (fun fn ->
          let cfg = Proginfo.cfg_of info (Some fn.Ast.fname) in
          Printf.printf "cfg %-16s %3d nodes\n" fn.Ast.fname cfg.Exom_cfg.Cfg.nnodes)
        prog.Ast.funcs;
      0
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Front-end and static-analysis facts")
    Term.(const action $ file_arg)

(* slice / rslice *)

let slice_common ~relevant file input text output_index =
  match compile_file file with
  | Error e ->
    prerr_endline e;
    1
  | Ok prog -> (
    let run = Interp.run prog ~input:(resolve_input input text) in
    let trace = Option.get run.Interp.trace in
    match List.nth_opt run.Interp.outputs output_index with
    | None ->
      Printf.eprintf "program produced %d outputs; no output %d\n"
        (List.length run.Interp.outputs) output_index;
      1
    | Some (criterion, value) ->
      let info = Proginfo.build prog in
      let slice =
        if relevant then
          Relevant.relevant_slice (Relevant.create info trace)
            ~criteria:[ criterion ]
        else Slice.compute trace ~criteria:[ criterion ]
      in
      Printf.printf "%s slice of output %d (value %d): %d statements, %d instances\n"
        (if relevant then "relevant" else "dynamic")
        output_index value (Slice.static_size slice) (Slice.dynamic_size slice);
      List.iter
        (fun sid ->
          let stmt = Proginfo.stmt_of_sid info sid in
          Printf.printf "  line %-4d %s\n" (Loc.line stmt.Ast.sloc)
            (Exom_lang.Pretty.stmt_head stmt))
        (Slice.sids slice);
      0)

let slice_cmd =
  let action file input text output_index =
    slice_common ~relevant:false file input text output_index
  in
  Cmd.v
    (Cmd.info "slice" ~doc:"Dynamic slice of one output")
    Term.(const action $ file_arg $ input_arg $ text_arg $ output_index_arg)

let rslice_cmd =
  let action file input text output_index =
    slice_common ~relevant:true file input text output_index
  in
  Cmd.v
    (Cmd.info "rslice"
       ~doc:"Relevant slice of one output (explicit + potential dependences)")
    Term.(const action $ file_arg $ input_arg $ text_arg $ output_index_arg)

(* locate *)

module Guard = Exom_core.Guard
module Recover = Exom_core.Recover
module Chaos = Exom_interp.Chaos
module Pool = Exom_sched.Pool
module Store = Exom_sched.Store
module Obs = Exom_obs.Obs
module Export = Exom_obs.Export
module Json = Exom_obs.Json

(* Observability: span recording is enabled exactly when --trace-out is
   given (metrics are always live — reports are built from them). *)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's span tree as Chrome trace-event JSON to FILE \
           (loadable in chrome://tracing or Perfetto); also enables span \
           recording")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's metrics (and spans, when recorded) as a \
           versioned JSONL event log to FILE; read it back with \
           $(b,exom stats)")

let ledger_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger-out" ] ~docv:"FILE"
        ~doc:
          "Write the localization's provenance ledger (per-iteration \
           slice snapshots, every verification with its alignment \
           evidence) as versioned JSONL to FILE; render it with \
           $(b,exom explain FILE).  Byte-identical at any -j")

let make_ledger ledger_out = Option.map (fun _ -> Ledger.create ()) ledger_out

let write_ledger ledger ~ledger_out =
  match (ledger_out, ledger) with
  | Some path, Some l ->
    (* detach the write-ahead journal first, then atomically replace it
       with the canonical serialization (byte-identical at any -j;
       resume markers and torn debris gone) *)
    Ledger.close_journal l;
    Ledger.write path l;
    Printf.eprintf "ledger written to %s\n" path
  | _ -> ()

let make_obs ~trace_out = Obs.create ~trace:(trace_out <> None) ()

let write_obs obs ~trace_out ~metrics_out =
  (match trace_out with
  | Some path ->
    Vfs.get_ok (Export.write_chrome path obs);
    Printf.eprintf "trace written to %s\n" path
  | None -> ());
  match metrics_out with
  | Some path ->
    Vfs.get_ok (Export.write_jsonl path obs);
    Printf.eprintf "metrics written to %s\n" path
  | None -> ()

(* -j: verification scheduler parallelism.  Defaults to the EXOM_JOBS
   environment variable (1 when unset); 0 means one job per core. *)
let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Verification jobs: switched re-executions of one Demand \
           iteration run on N domains (0 = one per core; default \
           \\$(b,EXOM_JOBS) or 1).  Reports are identical at any N")

let make_pool jobs =
  match jobs with
  | None -> Pool.default ()
  | Some j when j < 0 -> invalid_arg "exom: -j must be >= 0"
  | Some j -> Pool.create ~jobs:j ()

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Persistent verdict store: cached verification verdicts are \
           read from and written to DIR (created if missing), keyed by \
           content hash of program, input, switch, budget and mode")

let print_store_stats (st : Store.stats) =
  Printf.printf
    "store: %d mem + %d disk hits / %d misses (hit rate %.0f%%), %d writes, \
     %d evictions, %d corrupted\n"
    st.Store.hits st.Store.disk_hits st.Store.misses
    (100.0 *. Store.hit_rate st)
    st.Store.writes st.Store.evictions st.Store.corrupted

let resilience_policy ~max_retries ~deadline ~breaker =
  match (max_retries, deadline, breaker) with
  | Some r, _, _ when r < 0 -> Error "exom: --max-retries must be >= 0"
  | _, Some d, _ when d <= 0.0 ->
    Error "exom: --verify-deadline must be positive"
  | _, _, Some k when k < 1 -> Error "exom: --breaker must be >= 1"
  | _ ->
    let backoff =
      match max_retries with
      | None -> Guard.default_policy.Guard.backoff
      | Some r ->
        (* grow the cap with the retries so every requested doubling can
           actually happen *)
        Exom_util.Backoff.make ~factor:2 ~max_retries:r
          ~cap_factor:(1 lsl min r 20)
    in
    Ok
      {
        Guard.backoff;
        deadline;
        breaker_threshold =
          Option.value ~default:Guard.default_policy.Guard.breaker_threshold
            breaker;
      }

let print_robustness (report : Demand.report) =
  let g = report.Demand.robustness in
  Printf.printf
    "robustness: %d re-executions (%d completed, %d aborted, %d retried), \
     breaker trips %d (skips %d), deadline expirations %d, contained \
     exceptions %d, quarantined %d\n"
    report.Demand.verifications g.Guard.completed g.Guard.aborted
    g.Guard.retried g.Guard.breaker_trips g.Guard.breaker_skips
    g.Guard.deadline_expired g.Guard.captured g.Guard.quarantined;
  (match report.Demand.degraded with
  | Some reason -> Printf.printf "DEGRADED result: %s\n" reason
  | None -> ());
  List.iter
    (fun (sid, f) ->
      Printf.printf "  s%-4d %s\n" sid (Guard.failure_to_string f))
    report.Demand.failures

let locate_cmd =
  let action file correct_file input text root_line chaos_seed verify_deadline
      max_retries breaker jobs store_dir trace_out metrics_out ledger_out
      resume no_rank rank_model =
    match (compile_file file, compile_file correct_file) with
    | Error e, _ | _, Error e ->
      prerr_endline e;
      1
    | Ok faulty, Ok correct -> (
      match resilience_policy ~max_retries ~deadline:verify_deadline ~breaker with
      | Error e ->
        prerr_endline e;
        1
      | Ok policy -> (
      (* The salvage read happens before the journal is re-attached to
         the same path (attaching truncates). *)
      match
        match resume with
        | None -> Ok None
        | Some path -> (
          match Recover.plan_of_file path with
          | Ok plan -> Ok (Some plan)
          | Error e -> Error (Printf.sprintf "%s: %s" path e))
      with
      | Error e ->
        prerr_endline e;
        1
      | Ok resume_plan -> (
      (* --resume implies journaling back to the same ledger path *)
      let ledger_out =
        match (ledger_out, resume) with
        | (Some _ as out), _ -> out
        | None, (Some _ as out) -> out
        | None, None -> None
      in
      let input = resolve_input input text in
      let expected = Oracle.expected ~correct_prog:correct ~input in
      let chaos = Option.map Chaos.of_seed chaos_seed in
      (match chaos with
      | Some c -> Format.eprintf "%a@." Chaos.pp c
      | None -> ());
      let pool = make_pool jobs in
      let obs = make_obs ~trace_out in
      let ledger = make_ledger ledger_out in
      let store =
        Option.map (fun dir -> Store.create ~obs ~dir ()) store_dir
      in
      match
        Session.create ~obs ~policy ?chaos ?store ?ledger ~prog:faulty ~input
          ~expected ~profile_inputs:[ input ] ()
      with
      | exception Session.No_failure ->
        prerr_endline "the two programs agree on this input: nothing to locate";
        1
      | session ->
        let info = session.Session.info in
        let replayed =
          match resume_plan with
          | None -> None
          | Some plan ->
            if Recover.matches_session plan session then begin
              Recover.prime session plan;
              Some plan
            end
            else begin
              Printf.eprintf
                "resume: journal does not describe this program/input/budget; \
                 starting cold\n";
              None
            end
        in
        (* journaled iterations: every event is written ahead to the
           ledger path (flushed per event, fsynced per iteration), so a
           kill leaves a resumable journal instead of nothing *)
        (match (ledger, ledger_out) with
        | Some l, Some path ->
          Ledger.attach_journal l path;
          (match replayed with
          | Some plan ->
            Ledger.resume_marker l ~replayed:plan.Recover.salvaged_events
              ~truncated:plan.Recover.truncated
          | None -> ())
        | _ -> ());
        let oracle =
          Oracle.create ~faulty_trace:session.Session.trace
            ~correct_prog:correct ~input
        in
        let root_sids =
          match root_line with
          | Some line ->
            let sids = ref [] in
            Ast.iter_program
              (fun s -> if Loc.line s.Ast.sloc = line then sids := s.Ast.sid :: !sids)
              faulty;
            !sids
          | None ->
            (* no ground truth given: run to exhaustion and report *)
            [ -1 ]
        in
        (* a bad model file degrades to the static verification order
           with a diagnostic — it must never kill the localization *)
        let config =
          if no_rank then { Demand.default_config with ranking = None }
          else
            match rank_model with
            | None -> Demand.default_config
            | Some path -> (
              match Rank.load_model path with
              | Ok model ->
                {
                  Demand.default_config with
                  ranking =
                    Some { Rank.default_config with Rank.model = Some model };
                }
              | Error e ->
                Printf.eprintf
                  "rank model %s: %s; falling back to the static \
                   verification order\n"
                  path e;
                { Demand.default_config with ranking = None })
        in
        let report = Demand.locate ~config ~pool session ~oracle ~root_sids in
        write_obs obs ~trace_out ~metrics_out;
        write_ledger ledger ~ledger_out;
        (match replayed with
        | Some plan ->
          Printf.printf
            "resume: %d batch(es) (%d verifications) replayed from the \
             journal, %d in-flight event(s) re-verified live%s\n"
            plan.Recover.replayed_batches plan.Recover.replayed_verifications
            plan.Recover.dropped_events
            (if plan.Recover.truncated then " (torn tail dropped)" else "")
        | None -> ());
        Printf.printf
          "verifications: %d (of %d queries), iterations: %d, implicit \
           edges: %d, user prunings: %d\n"
          report.Demand.verifications report.Demand.verify_queries
          report.Demand.iterations report.Demand.expanded_edges
          report.Demand.user_prunings;
        let sup = Pool.supervision pool in
        Printf.printf "scheduler: %d job(s)%s\n" (Pool.jobs pool)
          (if sup.Pool.degraded then
             ", DEGRADED: respawn budget exhausted, draining inline"
           else if sup.Pool.respawns > 0 then
             Printf.sprintf ", %d worker(s) respawned" sup.Pool.respawns
           else "");
        print_store_stats report.Demand.store;
        print_robustness report;
        (match root_line with
        | Some line ->
          Printf.printf "root cause (line %d) %s\n" line
            (if report.Demand.found then "LOCATED" else "not located")
        | None -> ());
        print_endline "final fault candidate set:";
        List.iter
          (fun sid ->
            let stmt = Proginfo.stmt_of_sid info sid in
            Printf.printf "  line %-4d %s\n" (Loc.line stmt.Ast.sloc)
              (Exom_lang.Pretty.stmt_head stmt))
          (Slice.sids report.Demand.ips);
        0)))
  in
  let correct_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "correct" ] ~docv:"FILE" ~doc:"The corrected program (the oracle)")
  in
  let root_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "root-line" ] ~docv:"LINE"
          ~doc:"Ground-truth fault line (stops the search when reached)")
  in
  let chaos_seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-seed" ] ~docv:"SEED"
          ~doc:
            "Inject a deterministic, seed-derived fault (crash, budget \
             truncation, value corruption, or a raw exception) into every \
             switched re-execution; the locator must degrade, not die")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "verify-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock deadline for one verification: budget escalation \
             stops once it is exceeded")
  in
  let max_retries_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-retries" ] ~docv:"N"
          ~doc:
            "Budget-escalation retries for a switched run that exhausts its \
             step budget (each retry doubles the budget)")
  in
  let breaker_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "breaker" ] ~docv:"K"
          ~doc:
            "Circuit-breaker threshold: stop re-verifying a predicate after \
             K consecutive aborted switched runs")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "resume" ] ~docv:"LEDGER"
          ~doc:
            "Resume a killed localization from its journaled ledger \
             (written by --ledger-out): completed verification batches \
             are replayed from the journal instead of re-executed, the \
             batch in flight at the kill is re-verified live, and the \
             final report and ledger are byte-identical to an \
             uninterrupted run.  Implies $(b,--ledger-out) LEDGER \
             unless given.  Pass the same program, input and flags as \
             the killed run — a mismatched journal is detected and the \
             run starts cold")
  in
  let no_rank_arg =
    Arg.(
      value & flag
      & info [ "no-rank" ]
          ~doc:
            "Disable evidence-driven verification ordering: candidates \
             verify in the paper's static order with the static guard \
             knobs (the control for ranked-vs-static comparisons)")
  in
  let rank_model_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "rank-model" ] ~docv:"FILE"
          ~doc:
            "Seed the candidate ranking with a mined prior table \
             ($(b,exom corpus mine --json)).  A corrupt, truncated or \
             version-mismatched file is rejected with a diagnostic and \
             the run falls back to the static verification order")
  in
  Cmd.v
    (Cmd.info "locate"
       ~doc:"Demand-driven execution-omission-error localization")
    Term.(
      const action $ file_arg $ correct_arg $ input_arg $ text_arg $ root_arg
      $ chaos_seed_arg $ deadline_arg $ max_retries_arg $ breaker_arg
      $ jobs_arg $ store_arg $ trace_out_arg $ metrics_out_arg
      $ ledger_out_arg $ resume_arg $ no_rank_arg $ rank_model_arg)

(* recover *)

let recover_cmd =
  let action file =
    match Recover.plan_of_file file with
    | Error e ->
      Printf.eprintf "%s: %s\n" file e;
      1
    | Ok plan ->
      Printf.printf "%s:\n" file;
      print_string (Recover.describe plan);
      0
  in
  let ledger_file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"LEDGER"
          ~doc:
            "A journaled (possibly torn) provenance ledger left behind \
             by a killed $(b,exom locate --ledger-out) run")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Inspect a killed run's journaled ledger: what is salvageable, \
          what a $(b,--resume) would replay, and whether the tail was torn")
    Term.(const action $ ledger_file_arg)

(* explain

   Two modes sharing one entry point, distinguished by sniffing the
   positional FILE: a provenance ledger (written by --ledger-out)
   renders as a causal narrative; an MCL source falls back to the
   confidence analysis (which then needs --correct). *)

let explain_ledger file content dot_out =
  (* Strict parse first (a corrupted ledger must not render); a file
     that fails it may still be a killed run's journal — resume markers
     and a torn tail are exactly what the salvage reader tolerates, and
     what the lineage section of the narrative is for. *)
  let parsed =
    match Ledger.of_string content with
    | Ok events -> Ok (events, None, [])
    | Error strict_err -> (
      match Ledger.recover_string content with
      | Ok r ->
        Printf.eprintf
          "%s: salvaged journal (%d event(s)%s)\n" file
          (List.length r.Ledger.r_events)
          (if r.Ledger.r_truncated then ", torn tail dropped" else "");
        Ok
          ( r.Ledger.r_events,
            Some
              {
                Lexplain.resumes = r.Ledger.r_markers;
                torn_tail = r.Ledger.r_truncated;
              },
            r.Ledger.r_resumes )
      | Error _ -> Error strict_err)
  in
  match parsed with
  | Error e ->
    Printf.eprintf "%s: %s\n" file e;
    1
  | Ok (events, lineage, replay) ->
    print_string (Lexplain.render ?lineage ~replay events);
    (match dot_out with
    | Some path ->
      write_file path (Lexplain.dot events);
      Printf.eprintf "causal graph written to %s\n" path
    | None -> ());
    0

let explain_cmd =
  let action file correct_file input text top dot_out =
    match read_file file with
    | exception Sys_error e ->
      prerr_endline e;
      1
    | content when Ledger.is_ledger content -> explain_ledger file content dot_out
    | _ -> (
    match correct_file with
    | None ->
      prerr_endline
        "exom explain: FILE is not a provenance ledger, so this is the \
         confidence analysis — which needs --correct FILE";
      1
    | Some correct_file -> (
    match (compile_file file, compile_file correct_file) with
    | Error e, _ | _, Error e ->
      prerr_endline e;
      1
    | Ok faulty, Ok correct -> (
      let input = resolve_input input text in
      let expected = Oracle.expected ~correct_prog:correct ~input in
      match
        Session.create ~prog:faulty ~input ~expected ~profile_inputs:[ input ]
          ()
      with
      | exception Session.No_failure ->
        prerr_endline "the two programs agree on this input";
        1
      | session ->
        let info = session.Session.info in
        let trace = session.Session.trace in
        let conf =
          Exom_conf.Confidence.compute info session.Session.profile trace
            ~correct:session.Session.correct_outputs ~benign:[] ~implicit:[]
        in
        let slice =
          Exom_ddg.Slice.compute trace
            ~criteria:[ session.Session.wrong_output ]
        in
        let ps =
          Exom_conf.Prune.compute trace ~slice ~conf
            ~criterion:session.Session.wrong_output
        in
        Printf.printf
          "failure at instance #%d (line %d)%s; slice %d/%d; pruned %d\n\n"
          session.Session.wrong_output
          (Proginfo.line_of_sid info
             (Exom_interp.Trace.get trace session.Session.wrong_output)
               .Exom_interp.Trace.sid)
          (match session.Session.vexp with
          | Some v -> Printf.sprintf ", expected %s" (Exom_interp.Value.to_string v)
          | None -> " (crash)")
          (Exom_ddg.Slice.static_size slice)
          (Exom_ddg.Slice.dynamic_size slice)
          (Exom_conf.Prune.size ps);
        print_endline
          "most suspicious instances (confidence, dependence distance, alt \
           set):";
        List.iteri
          (fun i (e : Exom_conf.Prune.entry) ->
            if i < top then begin
              let inst = Exom_interp.Trace.get trace e.Exom_conf.Prune.idx in
              let stmt = Proginfo.stmt_of_sid info inst.Exom_interp.Trace.sid in
              let alt =
                match Exom_conf.Confidence.alt_set conf e.Exom_conf.Prune.idx with
                | None -> "unconstrained"
                | Some s ->
                  Printf.sprintf "{%s}"
                    (String.concat ","
                       (List.map Exom_interp.Value.to_string
                          (Exom_conf.Confidence.Vset.elements s)))
              in
              Printf.printf "  %.3f  d=%-3d line %-4d occ %-3d = %-6s %s  %s\n"
                e.Exom_conf.Prune.confidence e.Exom_conf.Prune.distance
                (Exom_lang.Loc.line stmt.Ast.sloc)
                inst.Exom_interp.Trace.occ
                (Exom_interp.Value.to_string inst.Exom_interp.Trace.value)
                (Exom_lang.Pretty.stmt_head stmt)
                alt
            end)
          (Exom_conf.Prune.entries ps);
        0)))
  in
  let correct_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "correct" ] ~docv:"FILE"
          ~doc:"The corrected program (confidence mode only)")
  in
  let top_arg =
    Arg.(
      value & opt int 15
      & info [ "top" ] ~docv:"N" ~doc:"Number of ranked instances to show")
  in
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:
            "Also export the verified causal graph as Graphviz (ledger mode \
             only)")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Causal narrative of a provenance ledger (from --ledger-out), or \
          confidence analysis of a failing run (with --correct)")
    Term.(
      const action $ file_arg $ correct_arg $ input_arg $ text_arg $ top_arg
      $ dot_arg)

(* dot *)

let dot_cmd =
  let action file input text output_index full =
    match compile_file file with
    | Error e ->
      prerr_endline e;
      1
    | Ok prog -> (
      let run = Interp.run prog ~input:(resolve_input input text) in
      let trace = Option.get run.Interp.trace in
      let info = Proginfo.build prog in
      let describe idx =
        let inst = Exom_interp.Trace.get trace idx in
        Printf.sprintf "L%d #%d = %s"
          (Proginfo.line_of_sid info inst.Exom_interp.Trace.sid)
          idx
          (Exom_interp.Value.to_string inst.Exom_interp.Trace.value)
      in
      match List.nth_opt run.Interp.outputs output_index with
      | None ->
        Printf.eprintf "no output %d\n" output_index;
        1
      | Some (criterion, _) ->
        let slice =
          if full then None
          else Some (Slice.compute trace ~criteria:[ criterion ])
        in
        print_string
          (Exom_ddg.Dot.render ?slice ~highlight:[ criterion ] ~describe trace);
        0)
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ] ~doc:"Render the whole trace, not just the slice")
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Graphviz rendering of the dynamic dependence graph (slice of one output)")
    Term.(
      const action $ file_arg $ input_arg $ text_arg $ output_index_arg $ full)

(* regions *)

let regions_cmd =
  let action file input text by_line =
    match compile_file file with
    | Error e ->
      prerr_endline e;
      1
    | Ok prog ->
      let run = Interp.run prog ~input:(resolve_input input text) in
      let trace = Option.get run.Interp.trace in
      let reg = Exom_align.Region.build trace in
      let info = Proginfo.build prog in
      let label =
        if by_line then
          Some
            (fun r idx ->
              Proginfo.line_of_sid info (Exom_align.Region.sid r idx))
        else None
      in
      print_endline (Exom_align.Region.render_forest ?label reg);
      0
  in
  let by_line =
    Arg.(
      value & flag
      & info [ "lines" ] ~doc:"Label regions with source lines instead of statement ids")
  in
  Cmd.v
    (Cmd.info "regions"
       ~doc:"The execution's region decomposition (Definition 3), paper-style")
    Term.(const action $ file_arg $ input_arg $ text_arg $ by_line)

(* bench *)

let bench_suite jobs json_out corpus_count no_rank =
  let jobs =
    match jobs with Some j -> j | None -> Pool.default_jobs ()
  in
  let config =
    if no_rank then Some { Demand.default_config with Demand.ranking = None }
    else None
  in
  let reg = Perf.run_suite ?config ~jobs ?corpus_count () in
  Printf.printf "suite (%d job(s)): %s\n" jobs (Perf.summary reg);
  print_string (Exom_obs.Metrics.render reg);
  (match json_out with
  | Some path ->
    Vfs.get_ok (Export.write_metrics path reg);
    Printf.eprintf "snapshot written to %s\n" path
  | None -> ());
  0

(* --export: materialize one fault as files so external drivers (the
   serve-stress CI job, exom client) can feed it back without linking
   the suite. *)
(* The machine-readable side of --export: external drivers (the corpus
   campaign runner, the serve-stress CI job) consume the fixture without
   hardcoding file names. *)
let fixtures_manifest entries =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str "exom.fixtures");
         ("version", Json.Num 1.0);
         ( "fixtures",
           Json.Arr
             (List.map
                (fun (name, fid, input, root_line) ->
                  Json.Obj
                    [
                      ("name", Json.Str name);
                      ("fid", Json.Str fid);
                      ("faulty", Json.Str "faulty.mc");
                      ("correct", Json.Str "correct.mc");
                      ( "input",
                        Json.Arr
                          (List.map
                             (fun i -> Json.Num (float_of_int i))
                             input) );
                      ("root_line", Json.Num (float_of_int root_line));
                    ])
                entries) );
       ])
  ^ "\n"

let bench_export name fid dir bench fault =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  write_file (Filename.concat dir "faulty.mc") (B.faulty_source bench fault);
  write_file (Filename.concat dir "correct.mc") bench.B.source;
  write_file
    (Filename.concat dir "input.txt")
    (String.concat " " (List.map string_of_int fault.B.failing_input) ^ "\n");
  write_file
    (Filename.concat dir "root_line.txt")
    (string_of_int (B.fault_line bench fault) ^ "\n");
  write_file
    (Filename.concat dir "fixtures.json")
    (fixtures_manifest
       [ (name, fid, fault.B.failing_input, B.fault_line bench fault) ]);
  Printf.printf
    "%s %s exported to %s (faulty.mc correct.mc input.txt root_line.txt \
     fixtures.json)\n"
    name fid dir;
  0

let bench_one name fid jobs store_dir trace_out metrics_out ledger_out export
    no_rank =
  match Suite.find name with
    | None ->
      Printf.eprintf "unknown benchmark %s (have: %s)\n" name
        (String.concat ", " (List.map (fun b -> b.B.name) Suite.all));
      1
    | Some bench -> (
      match Suite.find_fault bench fid with
      | None ->
        Printf.eprintf "unknown fault %s (have: %s)\n" fid
          (String.concat ", "
             (List.map (fun f -> f.B.fid) bench.B.faults));
        1
      | Some fault when export <> None ->
        bench_export name fid (Option.get export) bench fault
      | Some fault ->
        let pool = make_pool jobs in
        let obs = make_obs ~trace_out in
        let store =
          Option.map (fun dir -> Store.create ~obs ~dir ()) store_dir
        in
        let ledger = make_ledger ledger_out in
        let config =
          if no_rank then Some { Demand.default_config with Demand.ranking = None }
          else None
        in
        let r = Runner.run_fault ~obs ~pool ?store ?ledger ?config bench fault in
        write_obs obs ~trace_out ~metrics_out;
        write_ledger ledger ~ledger_out;
        Printf.printf "%s %s (%d job(s)): %s\n" name fid (Pool.jobs pool)
          fault.B.description;
        Printf.printf
          "  RS %d/%d  DS %d/%d  PS %d/%d  IPS %d/%d\n"
          r.Runner.rs.Runner.static_size r.Runner.rs.Runner.dynamic_size
          r.Runner.ds.Runner.static_size r.Runner.ds.Runner.dynamic_size
          r.Runner.ps.Runner.static_size r.Runner.ps.Runner.dynamic_size
          r.Runner.ips.Runner.static_size r.Runner.ips.Runner.dynamic_size;
        Printf.printf
          "  prunings %d, verifications %d (of %d queries), iterations %d, \
           edges %d -> %s\n"
          r.Runner.report.Demand.user_prunings
          r.Runner.report.Demand.verifications
          r.Runner.report.Demand.verify_queries
          r.Runner.report.Demand.iterations
          r.Runner.report.Demand.expanded_edges
          (if r.Runner.report.Demand.found then "LOCATED" else "not located");
        Printf.printf "  ";
        print_store_stats r.Runner.report.Demand.store;
        let g = r.Runner.robustness in
        Printf.printf
          "  robustness: %d completed, %d aborted, %d retried, breaker \
           trips/skips %d/%d, deadline %d, captured %d\n"
          g.Guard.completed g.Guard.aborted g.Guard.retried
          g.Guard.breaker_trips g.Guard.breaker_skips g.Guard.deadline_expired
          g.Guard.captured;
        0)

let bench_cmd =
  let action name fid all jobs store_dir trace_out metrics_out ledger_out
      json_out export corpus_count no_rank =
    if all then bench_suite jobs json_out corpus_count no_rank
    else
      match (name, fid) with
      | Some name, Some fid ->
        bench_one name fid jobs store_dir trace_out metrics_out ledger_out
          export no_rank
      | _ ->
        prerr_endline "exom bench: need BENCH FAULT (or --all for the suite)";
        1
  in
  let name_arg =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"BENCH" ~doc:"flexsim | grepsim | gzipsim | sedsim")
  in
  let fid_arg =
    Arg.(
      value & pos 1 (some string) None
      & info [] ~docv:"FAULT" ~doc:"Fault id, e.g. V2-F3")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Run the whole suite and reduce it to a perf snapshot")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "With --all: write the snapshot, a metrics registry log that \
             $(b,exom stats) and $(b,exom regress) read")
  in
  let export_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "export" ] ~docv:"DIR"
          ~doc:
            "Instead of running the fault, write its materials to DIR: \
             $(b,faulty.mc), $(b,correct.mc), $(b,input.txt) (failing \
             input as integers) and $(b,root_line.txt) — the files \
             $(b,exom client) and $(b,exom locate) need to reproduce it")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "corpus" ] ~docv:"N"
          ~doc:
            "With --all: also run a fixed-seed N-triple generated-corpus \
             campaign and record it as the snapshot's corpus leg")
  in
  let no_rank_arg =
    Arg.(
      value & flag
      & info [ "no-rank" ]
          ~doc:
            "With --all: run the suite (and corpus leg) under the static \
             verification order instead of evidence-driven ranking — the \
             control snapshot for the rank gate")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run one benchmark fault from the built-in suite, or the whole \
          suite with --all")
    Term.(
      const action $ name_arg $ fid_arg $ all_arg $ jobs_arg $ store_arg
      $ trace_out_arg $ metrics_out_arg $ ledger_out_arg $ json_arg
      $ export_arg $ corpus_arg $ no_rank_arg)

(* regress *)

let regress_cmd =
  let action old_file new_file tolerance time_tolerance check =
    match (Perf.load old_file, Perf.load new_file) with
    | Error e, _ ->
      Printf.eprintf "%s: %s\n" old_file e;
      1
    | _, Error e ->
      Printf.eprintf "%s: %s\n" new_file e;
      1
    | Ok older, Ok newer ->
      Printf.printf "old: %s\nnew: %s\n" (Perf.summary older)
        (Perf.summary newer);
      let findings = Perf.drift ~tolerance ~time_tolerance older newer in
      print_string (Exom_obs.Metrics.render_drift findings);
      if check && Exom_obs.Metrics.has_drift findings then 1 else 0
  in
  let old_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD" ~doc:"Baseline snapshot")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW" ~doc:"Candidate snapshot")
  in
  let tolerance_arg =
    Arg.(
      value & opt float 0.1
      & info [ "tolerance" ] ~docv:"REL"
          ~doc:
            "Relative tolerance for deterministic counts and store hit \
             rates (0.1 = 10%); a located fault may never be lost")
  in
  let time_tolerance_arg =
    Arg.(
      value & opt float 0.5
      & info [ "time-tolerance" ] ~docv:"REL"
          ~doc:
            "Relative tolerance for wall-clock figures, compared only \
             when both snapshots measured them")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ] ~doc:"Exit non-zero if any regression is flagged")
  in
  Cmd.v
    (Cmd.info "regress"
       ~doc:
         "Compare two perf snapshots from $(b,exom bench --all) and flag \
          metric movements beyond tolerance")
    Term.(
      const action $ old_arg $ new_arg $ tolerance_arg $ time_tolerance_arg
      $ check_arg)

(* stats *)

let stats_cmd =
  let load_metrics file =
    match read_file file with
    | exception Sys_error e -> Error e
    | content -> (
      match Export.metrics_of_jsonl content with
      | Error e -> Error (Printf.sprintf "%s: %s" file e)
      | Ok (reg, salvaged) ->
        (match salvaged with
        | Some { Export.torn_line; torn_byte } ->
          Printf.eprintf
            "%s: torn record at line %d (byte %d) dropped (salvaged)\n" file
            torn_line torn_byte
        | None -> ());
        Ok reg)
  in
  let action file file2 diff no_timings =
    match (load_metrics file, file2) with
    | Error e, _ ->
      prerr_endline e;
      1
    | Ok reg, None ->
      if diff then begin
        prerr_endline "exom stats: --diff needs a second FILE";
        1
      end
      else begin
        print_string (Exom_obs.Metrics.render ~timings:(not no_timings) reg);
        0
      end
    | Ok reg, Some file2 -> (
      match load_metrics file2 with
      | Error e ->
        prerr_endline e;
        1
      | Ok reg2 ->
        print_string
          (Exom_obs.Metrics.render_diff ~timings:(not no_timings) reg reg2);
        0)
  in
  let stats_file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A JSONL event log written by --metrics-out")
  in
  let stats_file2_arg =
    Arg.(
      value
      & pos 1 (some file) None
      & info [] ~docv:"FILE2"
          ~doc:"A second event log to compare against (side-by-side diff)")
  in
  let diff_arg =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:"Compare two event logs side by side (implied by FILE2)")
  in
  let no_timings_arg =
    Arg.(
      value & flag
      & info [ "no-timings" ]
          ~doc:
            "Suppress wall-clock figures, leaving the subset that is \
             bit-identical across job counts and machines")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Pretty-print the metric tree of a --metrics-out event log, or \
          diff two of them")
    Term.(
      const action $ stats_file_arg $ stats_file2_arg $ diff_arg
      $ no_timings_arg)

(* serve *)

module Serve = Exom_serve.Serve
module Proto = Exom_serve.Proto
module Client = Exom_serve.Client

let serve_cmd =
  let action state socket jobs queue_limit shards lease retries resume trace =
    if queue_limit < 1 then begin
      prerr_endline "exom serve: --queue-limit must be >= 1";
      1
    end
    else if retries < 0 then begin
      prerr_endline "exom serve: --request-retries must be >= 0";
      1
    end
    else begin
      let socket_path =
        match socket with
        | Some s -> s
        | None -> Filename.concat state "exom.sock"
      in
      let base = Serve.default_config ~socket_path ~state_dir:state in
      let jobs =
        match jobs with None -> base.Serve.jobs | Some j -> j
      in
      Serve.run
        {
          base with
          Serve.jobs;
          queue_limit;
          shards;
          lease;
          request_retries = retries;
          resume;
          trace;
        }
    end
  in
  let state_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "state" ] ~docv:"DIR"
          ~doc:
            "Daemon state directory (created if missing): accepted \
             requests, their journaled ledgers and the shared sharded \
             verdict store live under it, so a killed daemon restarted \
             with $(b,--resume) replays every in-flight request")
  in
  let socket_opt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket to listen on (default DIR/exom.sock)")
  in
  let queue_limit_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:
            "Bounded request queue: further locate requests are shed \
             with an explicit reply instead of growing memory")
  in
  let shards_arg =
    Arg.(
      value & opt int Store.default_shards
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Store partition count for a fresh store directory (an \
             existing store's manifest wins)")
  in
  let lease_arg =
    Arg.(
      value & opt float Store.default_lease
      & info [ "lease" ] ~docv:"SECONDS"
          ~doc:
            "Store writer-lock lease: a shard lock older than this is \
             stolen, so a crashed writer never wedges the cache")
  in
  let retries_arg =
    Arg.(
      value & opt int 2
      & info [ "request-retries" ] ~docv:"N"
          ~doc:
            "Re-runs of a request whose localization came back DEGRADED \
             (transient worker kills), with exponential backoff")
  in
  let resume_flag =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay journaled in-flight requests from the state \
             directory before accepting new ones; each replays to a \
             ledger byte-identical to an uninterrupted run")
  in
  let trace_flag =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Record a span tree per request and export it as a Chrome \
             trace under DIR/traces/<fingerprint>.trace.json, keyed by \
             the request fingerprint for cross-run auditing")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Localization daemon: concurrent requests over a Unix-domain \
          socket, one shared sharded verdict store, crash-safe journaling")
    Term.(
      const action $ state_arg $ socket_opt_arg $ jobs_arg $ queue_limit_arg
      $ shards_arg $ lease_arg $ retries_arg $ resume_flag $ trace_flag)

(* client *)

let client_cmd =
  let print_served (s : Proto.served) =
    print_string s.Proto.sv_report;
    Printf.eprintf "fingerprint %s\nledger %s%s\n" s.Proto.sv_fingerprint
      s.Proto.sv_ledger
      (if s.Proto.sv_replayed then " (replayed from journal)" else "")
  in
  let action file correct_file input text root_line deadline socket stress ping
      stats =
    if ping then begin
      match Client.request ~socket Proto.Ping with
      | Ok Proto.Pong ->
        print_endline "pong";
        0
      | Ok _ ->
        prerr_endline "unexpected reply to ping";
        1
      | Error e ->
        prerr_endline e;
        1
    end
    else if stats then begin
      match Client.request ~socket Proto.Stats with
      | Ok (Proto.Counters kvs) ->
        List.iter (fun (k, v) -> Printf.printf "%-18s %d\n" k v) kvs;
        0
      | Ok _ ->
        prerr_endline "unexpected reply to stats";
        1
      | Error e ->
        prerr_endline e;
        1
    end
    else
      match (file, correct_file) with
      | None, _ | _, None ->
        prerr_endline
          "exom client: need FILE and --correct FILE (or --ping / --stats)";
        1
      | Some file, Some correct_file -> (
        match (read_file file, read_file correct_file) with
        | exception Sys_error e ->
          prerr_endline e;
          1
        | program, correct -> (
          let locate =
            {
              Proto.lc_program = program;
              lc_correct = correct;
              lc_input = resolve_input input text;
              lc_root_line = root_line;
              lc_deadline = deadline;
            }
          in
          match stress with
          | Some n ->
            let r = Client.stress ~socket ~clients:n [ locate ] in
            Printf.printf
              "stress: %d client(s): %d served (%d replayed), %d shed, %d \
               failed, %d transport errors\n"
              n r.Client.st_served r.Client.st_replayed r.Client.st_shed
              r.Client.st_failed r.Client.st_errors;
            if r.Client.st_failed = 0 && r.Client.st_errors = 0 then 0 else 1
          | None -> (
            match Client.request ~socket (Proto.Locate locate) with
            | Ok (Proto.Served s) ->
              print_served s;
              0
            | Ok (Proto.Shed reason) ->
              Printf.eprintf "shed by the daemon: %s\n" reason;
              2
            | Ok (Proto.Failed reason) ->
              Printf.eprintf "request failed: %s\n" reason;
              1
            | Ok (Proto.Pong | Proto.Counters _) ->
              prerr_endline "unexpected reply";
              1
            | Error e ->
              prerr_endline e;
              1)))
  in
  let opt_file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Faulty MCL source to localize")
  in
  let correct_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "correct" ] ~docv:"FILE" ~doc:"The corrected program (the oracle)")
  in
  let root_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "root-line" ] ~docv:"LINE"
          ~doc:"Ground-truth fault line (stops the search when reached)")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-request deadline, enforced by the daemon (verification \
             escalation stops; a request stale in the queue is shed)")
  in
  let socket_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"The daemon's Unix-domain socket")
  in
  let stress_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "stress" ] ~docv:"N"
          ~doc:
            "Fire the request from N concurrent connections (one domain \
             each) and tally served/shed/failed")
  in
  let ping_flag =
    Arg.(value & flag & info [ "ping" ] ~doc:"Liveness probe: expect pong")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print the daemon's request counters")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one localization request to an $(b,exom serve) daemon \
          (--stress N for N concurrent clients)")
    Term.(
      const action $ opt_file_arg $ correct_arg $ input_arg $ text_arg
      $ root_arg $ deadline_arg $ socket_arg $ stress_arg $ ping_flag
      $ stats_flag)

(* corpus *)

module Factory = Exom_corpus.Factory
module Seeder = Exom_corpus.Seeder
module Campaign = Exom_corpus.Campaign
module Mine = Exom_corpus.Mine

let corpus_classes_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "classes" ] ~docv:"C1,C2"
        ~doc:
          "Restrict seeding to these fault classes (stmt_delete, \
           guard_strengthen, guard_weaken, call_drop, flag_init)")

let parse_classes = function
  | None -> Ok None
  | Some s ->
    let names =
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun x -> x <> "")
    in
    let rec go acc = function
      | [] -> Ok (Some (List.rev acc))
      | n :: rest -> (
        match Seeder.class_of_string n with
        | Some c -> go (c :: acc) rest
        | None -> Error (Printf.sprintf "unknown fault class %S" n))
    in
    go [] names

let corpus_gen_cmd =
  let action seed count family classes out =
    match parse_classes classes with
    | Error e ->
      Printf.eprintf "%s\n" e;
      1
    | Ok classes -> (
      match Campaign.generate ?classes ~family ~seed ~count () with
      | exception Failure e ->
        Printf.eprintf "%s\n" e;
        1
      | manifest ->
        Campaign.write_manifest out manifest;
        Printf.eprintf "%d triples (family %s, %d generation attempts) -> %s\n"
          (List.length manifest.Campaign.m_triples)
          manifest.Campaign.m_family manifest.Campaign.m_attempts out;
        0)
  in
  let seed_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "seed" ] ~docv:"S" ~doc:"Corpus seed (determines every triple)")
  in
  let count_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "count" ] ~docv:"N" ~doc:"Validated triples to generate")
  in
  let family_arg =
    Arg.(
      value & opt string "mixed"
      & info [ "family" ] ~docv:"FAM"
          ~doc:
            "Program family: small, medium, large, or mixed (rotate all \
             three)")
  in
  let out_arg =
    Arg.(
      value & opt string "manifest.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Manifest output path")
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a corpus manifest: factory programs + seeded, validated \
          execution-omission faults.  Byte-deterministic in (seed, count, \
          family, classes)")
    Term.(
      const action $ seed_arg $ count_arg $ family_arg $ corpus_classes_arg
      $ out_arg)

let corpus_run_cmd =
  let action manifest_path dir shards jobs resume socket =
    match Campaign.load_manifest manifest_path with
    | Error e ->
      Printf.eprintf "%s: %s\n" manifest_path e;
      1
    | Ok manifest when shards < 1 ->
      ignore manifest;
      Printf.eprintf "--shards must be >= 1\n";
      1
    | Ok manifest ->
      Campaign.ensure_layout dir;
      if not resume then Campaign.reset dir;
      Campaign.ensure_layout dir;
      let skip =
        if resume then begin
          let h = Hashtbl.create 64 in
          List.iter
            (fun r -> Hashtbl.add h r.Campaign.o_id ())
            (Campaign.journaled_rows dir);
          Hashtbl.mem h
        end
        else fun _ -> false
      in
      let failed = ref 0 in
      let run_one shard =
        try
          ignore
            (Campaign.run_shard ?jobs ?socket ~dir ~manifest ~shard ~shards
               ~skip ())
        with e ->
          Printf.eprintf "shard %d failed: %s\n%!" shard (Printexc.to_string e);
          incr failed
      in
      if shards = 1 then run_one 0
      else begin
        (* fork-per-shard: children are forked before any domain pool
           exists (each shard creates its own), which is the only safe
           ordering of fork and domains *)
        let pids =
          List.init shards (fun shard ->
              match Unix.fork () with
              | 0 ->
                let code =
                  try
                    ignore
                      (Campaign.run_shard ?jobs ?socket ~dir ~manifest ~shard
                         ~shards ~skip ());
                    0
                  with e ->
                    Printf.eprintf "shard %d failed: %s\n%!" shard
                      (Printexc.to_string e);
                    1
                in
                exit code
              | pid -> pid)
        in
        List.iter
          (fun pid ->
            match Unix.waitpid [] pid with
            | _, Unix.WEXITED 0 -> ()
            | _, _ -> incr failed)
          pids
      end;
      let rows, missing = Campaign.merge ~dir ~manifest in
      print_string (Campaign.render_summary (Campaign.summarize rows));
      Printf.printf "outcomes: %s\n" (Filename.concat dir "outcomes.jsonl");
      Printf.printf "metrics: %s\n" (Campaign.campaign_metrics dir);
      if missing <> [] then begin
        Printf.eprintf "%d triples have no outcome row (first: %s)\n"
          (List.length missing) (List.hd missing);
        2
      end
      else if !failed > 0 then 1
      else 0
  in
  let manifest_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"MANIFEST" ~doc:"Corpus manifest (from corpus gen)")
  in
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Campaign directory: shared store, ledger journals and outcome \
             rows live here")
  in
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"P"
          ~doc:
            "Worker processes: triples are dealt round-robin across P \
             forked shards sharing one store.  Outcomes are byte-identical \
             at any P")
  in
  let resume_flag =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Keep rows already journaled under --dir and re-run only the \
             missing triples (replaying complete per-triple journals)")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Run triples through the exom serve daemon listening on PATH \
             instead of in-process")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run the localization campaign over a corpus manifest, sharded \
          across processes against one shared store; crash-safe and \
          resumable (--resume)")
    Term.(
      const action $ manifest_arg $ dir_arg $ shards_arg $ jobs_arg
      $ resume_flag $ socket_arg)

let corpus_rows_of_path path =
  let file =
    if Sys.is_directory path then Filename.concat path "outcomes.jsonl"
    else path
  in
  (file, Campaign.read_rows file)

let corpus_report_cmd =
  let action path min_located =
    let file, rows = corpus_rows_of_path path in
    if rows = [] then begin
      Printf.eprintf "no outcome rows in %s\n" file;
      1
    end
    else begin
      let s = Campaign.summarize rows in
      print_string (Campaign.render_summary s);
      print_string (Campaign.render_rollup rows);
      match min_located with
      | None -> 0
      | Some floor ->
        let rate = float_of_int s.Campaign.s_located /. float_of_int s.Campaign.s_total in
        if rate >= floor then 0
        else begin
          Printf.eprintf "located rate %.3f below floor %.3f\n" rate floor;
          1
        end
    end
  in
  let path_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"PATH" ~doc:"Campaign directory or outcomes.jsonl")
  in
  let floor_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-located" ] ~docv:"RATE"
          ~doc:"Exit nonzero when the located rate is below RATE (0..1)")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Summarize campaign outcomes (optionally gate on located rate)")
    Term.(const action $ path_arg $ floor_arg)

let corpus_mine_cmd =
  let action path out =
    let file, rows = corpus_rows_of_path path in
    if rows = [] then begin
      Printf.eprintf "no outcome rows in %s\n" file;
      1
    end
    else begin
      let table = Mine.mine rows in
      (match out with
      | Some o ->
        write_file o (Mine.table_to_string table);
        Printf.eprintf "feature table -> %s\n" o
      | None -> ());
      print_string (Mine.render table);
      0
    end
  in
  let path_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"PATH" ~doc:"Campaign directory or outcomes.jsonl")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the feature table as JSON to FILE")
  in
  Cmd.v
    (Cmd.info "mine"
       ~doc:
         "Mine campaign outcomes into feature tables (located rate, \
          iterations and verifications by fault class, family, program \
          size, predicate density)")
    Term.(const action $ path_arg $ out_arg)

let corpus_seed_cmd =
  let action file seed cls line input out =
    let source = read_file file in
    match Typecheck.parse_and_check source with
    | exception Loc.Error (loc, msg) ->
      Printf.eprintf "%s:%d:%d: %s\n" file (Loc.line loc) (Loc.col loc) msg;
      1
    | prog -> (
      let cls =
        Option.map
          (fun c ->
            match Seeder.class_of_string c with
            | Some c -> c
            | None -> failwith (Printf.sprintf "unknown fault class %S" c))
          cls
      in
      let line_of_sid p sid =
        let l = ref 0 in
        Ast.iter_program
          (fun st -> if st.Ast.sid = sid then l := Loc.line st.Ast.sloc)
          p;
        !l
      in
      let sites =
        Seeder.sites prog
        |> List.filter (fun (c, sid) ->
               (match cls with Some cls -> c = cls | None -> true)
               &&
               match line with
               | Some line -> line_of_sid prog sid = line
               | None -> true)
      in
      let input = parse_ints input in
      let inputs =
        if input = [] then
          let st = Random.State.make [| 0x0fa1; seed |] in
          List.init 6 (fun _ ->
              List.init
                (8 + Random.State.int st 9)
                (fun _ -> Random.State.int st 101 - 50))
        else [ input ]
      in
      let validated =
        List.find_map
          (fun (c, sid) ->
            match Seeder.apply prog c sid with
            | None -> None
            | Some faulty ->
              List.find_opt
                (fun input -> Seeder.validates ~correct:prog ~faulty ~input)
                inputs
              |> Option.map (fun input -> (c, sid, faulty, input)))
          sites
      in
      match validated with
      | None ->
        Printf.eprintf
          "no validated omission fault at the requested sites (%d candidates)\n"
          (List.length sites);
        1
      | Some (c, sid, faulty, input) ->
        (* the emitted faulty.mc is the pretty-printed mutant, so the
           recorded root line must use its numbering, not the input
           file's (sids survive the reparse: mutations preserve
           statement order and count) *)
        let line = line_of_sid faulty sid in
        let faulty_src = Exom_lang.Pretty.program_to_string faulty in
        (match out with
        | Some dir ->
          (try Unix.mkdir dir 0o755
           with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          write_file (Filename.concat dir "faulty.mc") faulty_src;
          write_file (Filename.concat dir "correct.mc") source;
          write_file
            (Filename.concat dir "input.txt")
            (String.concat " " (List.map string_of_int input) ^ "\n");
          write_file
            (Filename.concat dir "root_line.txt")
            (string_of_int line ^ "\n");
          write_file
            (Filename.concat dir "fixtures.json")
            (fixtures_manifest
               [
                 ( Filename.remove_extension (Filename.basename file),
                   Seeder.class_to_string c, input, line );
               ])
        | None -> print_string faulty_src);
        Printf.eprintf
          "seeded %s at line %d (sid %d), failing input: %s\n"
          (Seeder.class_to_string c) line sid
          (String.concat "," (List.map string_of_int input));
        0)
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S" ~doc:"Seed for candidate-input derivation")
  in
  let class_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "class" ] ~docv:"CLS" ~doc:"Restrict to one fault class")
  in
  let line_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "line" ] ~docv:"N" ~doc:"Restrict to statements on line N")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR"
          ~doc:
            "Write faulty.mc, correct.mc, input.txt, root_line.txt and \
             fixtures.json to DIR (default: faulty source on stdout)")
  in
  Cmd.v
    (Cmd.info "seed"
       ~doc:
         "Seed one validated execution-omission fault into a correct MCL \
          program")
    Term.(
      const action $ file_arg $ seed_arg $ class_arg $ line_arg $ input_arg
      $ out_arg)

let corpus_cmd =
  Cmd.group
    (Cmd.info "corpus"
       ~doc:
         "Corpus factory: generate thousands of seeded omission faults, run \
          sharded campaigns, mine the evidence")
    [ corpus_gen_cmd; corpus_run_cmd; corpus_report_cmd; corpus_mine_cmd;
      corpus_seed_cmd ]

(* chaos *)

module Storm = Exom_bench.Storm

let chaos_cmd =
  let action seed jobs corpus dir out faults check =
    let faults =
      match faults with
      | [] -> None
      | fs ->
        Some
          (List.map
             (fun s ->
               match String.index_opt s '/' with
               | Some i ->
                 ( String.sub s 0 i,
                   String.sub s (i + 1) (String.length s - i - 1) )
               | None ->
                 raise
                   (Invalid_argument
                      (Printf.sprintf "--fault %S: expected BENCH/FID" s)))
             fs)
    in
    let dir =
      match dir with
      | Some d -> d
      | None ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "exom_chaos_%d" (Unix.getpid ()))
    in
    match Storm.run ~jobs ~corpus ?faults ~seed ~dir () with
    | exception Invalid_argument m | exception Failure m ->
      Printf.eprintf "exom chaos: %s\n" m;
      1
    | report ->
      print_string (Storm.render report);
      (match out with
      | Some path ->
        write_file path (Json.to_string (Storm.report_to_json report) ^ "\n");
        Printf.eprintf "storm report written to %s\n" path
      | None -> ());
      if check && not report.Storm.r_ok then 1 else 0
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"Storm seed: the same seed replays the same faults")
  in
  let jobs_arg =
    Arg.(
      value & opt int 2
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Verification pool size per localization (>= 2 gives worker \
             kills a supervisor)")
  in
  let corpus_arg =
    Arg.(
      value & opt int 20
      & info [ "corpus" ] ~docv:"N"
          ~doc:"Corpus triples for the campaign legs (0 disables them)")
  in
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Scratch workspace for journals, stores and campaign state \
             (default: a per-process directory under the system temp dir)")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the storm report as JSON")
  in
  let faults_arg =
    Arg.(
      value & opt_all string []
      & info [ "fault" ] ~docv:"BENCH/FID"
          ~doc:
            "Suite fault to storm, as $(b,bench/fault-id) (repeatable; \
             default gzipsim/V2-F3 and grepsim/V4-F2)")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Exit non-zero on any violated invariant: a raised \
             localization, a wrong verdict, a non-identical undegraded \
             resume, or an unaccounted injected fault")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Storm every persistence path with seeded storage faults \
          (ENOSPC, EIO, torn writes, torn renames) composed with worker \
          kills and kill+resume cuts, and audit the degradation \
          contracts")
    Term.(
      const action $ seed_arg $ jobs_arg $ corpus_arg $ dir_arg $ out_arg
      $ faults_arg $ check_arg)

(* audit *)

module Audit = Exom_audit
module Spine = Exom_obs.Spine

let lanes_conv =
  let parse s =
    match Spine.lanes_of_string s with
    | Some l -> Ok l
    | None ->
      Error (`Msg (Printf.sprintf "unknown lane projection %S" s))
  in
  Arg.conv (parse, fun ppf l -> Fmt.string ppf (Spine.lanes_to_string l))

let audit_cmd =
  let action run_a run_b spine metrics ledger lanes tolerance check =
    let legs =
      (if spine then [ Audit.Spine_leg ] else [])
      @ (if metrics then [ Audit.Metrics_leg ] else [])
      @ if ledger then [ Audit.Ledger_leg ] else []
    in
    let legs = if legs = [] then None else Some legs in
    match (Audit.load run_a, Audit.load run_b) with
    | Error e, _ | _, Error e ->
      prerr_endline e;
      1
    | Ok a, Ok b -> (
      match Audit.audit ~lanes ~tolerance ?legs a b with
      | Error e ->
        prerr_endline e;
        1
      | Ok t ->
        print_string (Audit.render t);
        if check && not (Audit.clean t) then 1 else 0)
  in
  let run_a_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"RUN_A"
          ~doc:
            "The reference run: a Chrome trace (--trace-out), a JSONL \
             event log (--metrics-out) or a ledger/journal")
  in
  let run_b_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"RUN_B" ~doc:"The run to audit against RUN_A")
  in
  let spine_flag =
    Arg.(
      value & flag
      & info [ "spine" ]
          ~doc:
            "Compare the span spines (error if either side lacks spans)")
  in
  let metrics_flag =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Compare the metric registries (error if either side lacks \
             them)")
  in
  let ledger_flag =
    Arg.(
      value & flag
      & info [ "ledger" ]
          ~doc:
            "Compare the ledger event streams (error if either side is \
             not a ledger)")
  in
  let lanes_arg =
    Arg.(
      value
      & opt lanes_conv Spine.All
      & info [ "lanes" ] ~docv:"PROJECTION"
          ~doc:
            "Spine projection: $(b,all) for uninterrupted-run \
             comparisons (-j1 vs -j4), $(b,coordinator) for \
             resume-vs-uninterrupted comparisons (replayed batches have \
             no worker-lane spans)")
  in
  let tolerance_arg =
    Arg.(
      value & opt float 0.0
      & info [ "tolerance" ] ~docv:"REL"
          ~doc:
            "Relative metric movement tolerated before the drift leg \
             breaches (0.0 = any movement)")
  in
  let check_flag =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Exit non-zero unless the verdict is CLEAN (the CI gate)")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Diff two runs' deterministic residue — span spine, metric \
          drift, ledger stream, resume lineage — into one verdict")
    Term.(
      const action $ run_a_arg $ run_b_arg $ spine_flag $ metrics_flag
      $ ledger_flag $ lanes_arg $ tolerance_arg $ check_flag)

(* trace *)

let trace_spine_cmd =
  let action file lanes out =
    match read_file file with
    | exception Sys_error e ->
      prerr_endline e;
      1
    | content -> (
      match Export.spans_of_string content with
      | Error e ->
        Printf.eprintf "%s: %s\n" file e;
        1
      | Ok (spans, salvage) ->
        (match salvage with
        | Some { Export.torn_line; torn_byte } ->
          Printf.eprintf
            "%s: torn record at line %d (byte %d) dropped (salvaged)\n"
            file torn_line torn_byte
        | None -> ());
        let spine = Spine.of_spans ~lanes spans in
        (match out with
        | Some path -> write_file path (Spine.to_string spine ^ "\n")
        | None -> print_string (Spine.render spine));
        0)
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "A Chrome trace (--trace-out) or JSONL event log \
             (--metrics-out)")
  in
  let lanes_arg =
    Arg.(
      value
      & opt lanes_conv Spine.All
      & info [ "lanes" ] ~docv:"PROJECTION"
          ~doc:"Projection to extract: $(b,all) or $(b,coordinator)")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"PATH"
          ~doc:
            "Write the versioned spine codec (exom.spine v1) to PATH \
             instead of rendering the tree")
  in
  Cmd.v
    (Cmd.info "spine"
       ~doc:
         "Extract the deterministic span spine from a trace export: the \
          wall-clock-free canonical tree exom audit compares")
    Term.(const action $ file_arg $ lanes_arg $ out_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Operate on trace exports (--trace-out / --metrics-out)")
    [ trace_spine_cmd ]

let () =
  let doc = "locating execution omission errors via implicit dependences" in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default
          (Cmd.info "exom" ~version:"1.0.0" ~doc)
          [ run_cmd; info_cmd; slice_cmd; rslice_cmd; locate_cmd; explain_cmd;
            recover_cmd; dot_cmd; regions_cmd; bench_cmd; regress_cmd;
            stats_cmd; audit_cmd; trace_cmd; serve_cmd; client_cmd;
            corpus_cmd; chaos_cmd ]))
