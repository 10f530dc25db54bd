(* The compiled interpreter against the reference AST walker
   ([Ref_interp]), run for run.

   Each case runs a program both ways with the same switches, budget,
   chaos fault and tracing mode, and compares everything a run shows:
   its outputs with their instance indexes, its outcome with the crash
   text, its step count and [switch_fired], its trace as [Trace_io]
   bytes, its occurrence counts, and the sequence of [observe] calls.
   The compiled traced runs are made both without a prefix and sharing
   the trace of an unswitched compiled run, itself cut at a random
   budget.  A chaos fault that raises ([Raise_at], [Kill_worker]) must
   raise the same exception, which names its step, after the same
   [observe] calls.

   Programs: corpus-factory programs and Seeder mutants of them
   (property), and the 13 suite faults (sweep). *)

module Ast = Exom_lang.Ast
module Typecheck = Exom_lang.Typecheck
module Interp = Exom_interp.Interp
module Trace = Exom_interp.Trace
module Trace_io = Exom_interp.Trace_io
module Value = Exom_interp.Value
module Chaos = Exom_interp.Chaos
module Factory = Exom_corpus.Factory
module Seeder = Exom_corpus.Seeder
module Pretty = Exom_lang.Pretty
module B = Exom_bench.Bench_types
module Suite = Exom_bench.Suite

let seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> ( try int_of_string s with _ -> 42)
  | None -> 42

type shown =
  | Ran of Interp.run * (int * Trace.ikind * Value.t) list
  | Raised of exn * (int * Trace.ikind * Value.t) list

let watch f =
  let log = ref [] in
  let observe sid kind v = log := (sid, kind, v) :: !log in
  match f observe with
  | r -> Ran (r, List.rev !log)
  | exception ((Chaos.Injected _ | Chaos.Killed_worker _) as e) ->
    Raised (e, List.rev !log)

let same_trace a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    Trace_io.to_string a = Trace_io.to_string b
    && List.for_all
         (fun sid -> Trace.occurrences a sid = Trace.occurrences b sid)
         (List.init (max (Trace.sid_range a) (Trace.sid_range b) + 1) Fun.id)
  | _ -> false

(* [None] when the two agree, else what differs. *)
let diff a b =
  match (a, b) with
  | Raised (e, l), Raised (e', l') ->
    if e <> e' then Some "raised exceptions differ"
    else if l <> l' then Some "observe calls differ"
    else None
  | Ran (r, l), Ran (r', l') ->
    if r.Interp.outputs <> r'.Interp.outputs then Some "outputs differ"
    else if r.Interp.outcome <> r'.Interp.outcome then Some "outcomes differ"
    else if r.Interp.steps <> r'.Interp.steps then Some "steps differ"
    else if r.Interp.switch_fired <> r'.Interp.switch_fired then
      Some "switch_fired differs"
    else if not (same_trace r.Interp.trace r'.Interp.trace) then
      Some "traces differ"
    else if l <> l' then Some "observe calls differ"
    else None
  | Ran _, Raised _ -> Some "only the reference raised"
  | Raised _, Ran _ -> Some "only the compiled run raised"

(* One run configuration, checked both ways (and with a prefix). *)
type config = {
  switch : Interp.switch_spec option;
  vswitch : Interp.value_switch_spec option;
  chaos : Chaos.t option;
  budget : int;
  prefix_budget : int;  (* of the unswitched run whose trace is shared *)
}

let check_config prog code input c =
  let reference tracing =
    watch (fun observe ->
        Ref_interp.run ?switch:c.switch ?vswitch:c.vswitch ?chaos:c.chaos
          ~budget:c.budget ~tracing ~observe prog ~input)
  in
  let compiled ?prefix tracing =
    watch (fun observe ->
        Interp.exec ?switch:c.switch ?vswitch:c.vswitch ?chaos:c.chaos
          ~budget:c.budget ~tracing ?prefix ~observe code ~input)
  in
  let prefix =
    (Interp.exec ~budget:c.prefix_budget code ~input).Interp.trace
  in
  let traced = reference true in
  List.find_map
    (fun (label, a, b) ->
      Option.map (fun d -> Printf.sprintf "%s: %s" label d) (diff a b))
    [
      ("untraced", reference false, compiled false);
      ("traced", traced, compiled true);
      ("shared", traced, compiled ?prefix true);
    ]

(* The configurations of one case, from a few random numbers: the
   unswitched run at a random budget, a random branch switch, a random
   value switch, and one fault of each chaos kind at a random step. *)
let configs code input rand =
  (* mutants may spin: a budget the unmutated programs never reach *)
  let cap = 4_000 in
  let full = Interp.exec ~budget:cap code ~input in
  let steps = full.Interp.steps in
  let tr = Option.get full.Interp.trace in
  let n = Trace.length tr in
  let budget () =
    if Random.State.bool rand then cap
    else 1 + Random.State.int rand (2 * steps + 2)
  in
  let base () =
    {
      switch = None;
      vswitch = None;
      chaos = None;
      budget = budget ();
      prefix_budget = budget ();
    }
  in
  let pick pred =
    match List.filter (fun i -> pred (Trace.get tr i)) (List.init n Fun.id) with
    | [] -> None
    | l -> Some (Trace.get tr (List.nth l (Random.State.int rand (List.length l))))
  in
  let switch =
    Option.map
      (fun i ->
        {
          (base ()) with
          switch =
            Some { Interp.switch_sid = i.Trace.sid; switch_occ = i.Trace.occ };
        })
      (pick Trace.is_predicate)
  in
  let vswitch =
    Option.map
      (fun i ->
        {
          (base ()) with
          vswitch =
            Some
              {
                Interp.vswitch_sid = i.Trace.sid;
                vswitch_occ = i.Trace.occ;
                vswitch_value =
                  Value.Vint
                    (Value.as_int i.Trace.value + Random.State.int rand 21 - 10);
              };
        })
      (pick (fun i ->
           i.Trace.kind = Trace.Kassign
           && match i.Trace.value with Value.Vint _ -> true | _ -> false))
  in
  let chaos =
    List.map
      (fun mk ->
        let step = 1 + Random.State.int rand (steps + 1) in
        {
          (base ()) with
          chaos = Some { Chaos.seed = Random.State.int rand 1000; fault = mk step };
        })
      [
        (fun k -> Chaos.Crash_at k);
        (fun k -> Chaos.Truncate_budget k);
        (fun k -> Chaos.Corrupt_value k);
        (fun k -> Chaos.Raise_at k);
        (fun k -> Chaos.Kill_worker k);
      ]
  in
  (base () :: Option.to_list switch) @ Option.to_list vswitch @ chaos

let check_program rand prog input =
  let code = Interp.compile prog in
  List.find_map (check_config prog code input) (configs code input rand)

(* A generated program, or one Seeder mutant of it (any site, any
   class: mutants need not validate to be run). *)
let subject rand prog =
  match Seeder.sites prog with
  | sites when sites <> [] && Random.State.bool rand -> (
    let cls, sid = List.nth sites (Random.State.int rand (List.length sites)) in
    match Seeder.apply prog cls sid with Some m -> m | None -> prog)
  | _ -> prog

let prop_compiled =
  QCheck.Test.make ~name:"compiled run = reference run" ~count:150
    (QCheck.make
       ~print:(fun ((prog, input), s) ->
         Printf.sprintf "%s\n// input: [%s], case seed %d"
           (Pretty.program_to_string prog)
           (String.concat "; " (List.map string_of_int input))
           s)
       QCheck.Gen.(pair Factory.gen_program (int_bound 1_000_000)))
    (fun ((prog, input), s) ->
      let rand = Random.State.make [| s |] in
      let prog = subject rand prog in
      match check_program rand prog input with
      | None -> true
      | Some d -> QCheck.Test.fail_report d)

let test_suite () =
  List.iteri
    (fun k (bench, fault) ->
      let prog = Typecheck.parse_and_check (B.faulty_source bench fault) in
      let rand = Random.State.make [| seed; k |] in
      List.iter
        (fun input ->
          match check_program rand prog input with
          | None -> ()
          | Some d ->
            Alcotest.failf "%s %s on [%s]: %s" bench.B.name fault.B.fid
              (String.concat "; " (List.map string_of_int input))
              d)
        [ fault.B.failing_input; fault.B.failing_input ])
    Suite.rows

(* A prefix cut short inside a loop condition's call, or inside an
   [if]'s branch, leaves records a shared run must not take over as
   they stand (DESIGN.md, "Compiled interpreter").  Every cut of the
   prefix, against every predicate switch. *)
let test_cut_prefixes () =
  let prog =
    Typecheck.parse_and_check
      {|
int next(int x) {
  return x + 1;
}
int weight(int x) {
  if (x > 1) {
    return 2;
  }
  return 1;
}
void main() {
  int i = 0;
  int s = 0;
  while (next(i) < 5) {
    if (i > 0) {
      s = s + weight(i);
    }
    i = i + 1;
  }
  print(s);
}
|}
  in
  let code = Interp.compile prog in
  let full = Interp.exec code ~input:[] in
  let tr = Option.get full.Interp.trace in
  let switches =
    None
    :: List.filter_map
         (fun i ->
           let inst = Trace.get tr i in
           if Trace.is_predicate inst then
             Some
               (Some
                  { Interp.switch_sid = inst.Trace.sid;
                    switch_occ = inst.Trace.occ })
           else None)
         (List.init (Trace.length tr) Fun.id)
  in
  for prefix_budget = 1 to full.Interp.steps do
    List.iter
      (fun switch ->
        let c =
          { switch; vswitch = None; chaos = None; budget = 1000; prefix_budget }
        in
        match check_config prog code [] c with
        | None -> ()
        | Some d -> Alcotest.failf "prefix cut at %d: %s" prefix_budget d)
      switches
  done

let () =
  let rand = Random.State.make [| seed |] in
  Alcotest.run "compiled"
    [
      ("generated", [ QCheck_alcotest.to_alcotest ~rand prop_compiled ]);
      ("suite", [ Alcotest.test_case "13 faults" `Quick test_suite ]);
      ("prefixes", [ Alcotest.test_case "every cut" `Quick test_cut_prefixes ]);
    ]
