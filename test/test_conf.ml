(* Tests for confidence analysis: re-evaluation, alt sets, the
   confidence formula, pruning and ranking — including the paper's
   Figure 4 example. *)

module Ast = Exom_lang.Ast
module Typecheck = Exom_lang.Typecheck
module Confidence = Exom_conf.Confidence
module Prune = Exom_conf.Prune
module Reval = Exom_conf.Reval
module Interp = Exom_interp.Interp
module Profile = Exom_interp.Profile
module Trace = Exom_interp.Trace
module Value = Exom_interp.Value
module Proginfo = Exom_cfg.Proginfo
module Slice = Exom_ddg.Slice

let compile src = Typecheck.parse_and_check src

let sid_on_line prog line =
  let found = ref None in
  Ast.iter_program
    (fun s ->
      if Exom_lang.Loc.line s.Ast.sloc = line && !found = None then
        found := Some s.Ast.sid)
    prog;
  match !found with
  | Some sid -> sid
  | None -> Alcotest.failf "no statement on line %d" line

let traced prog input =
  let r = Interp.run prog ~input in
  match r.Interp.trace with
  | Some t -> (r, t)
  | None -> Alcotest.fail "no trace"

let instance_of t ~sid =
  match Trace.find_instance t ~sid ~occ:1 with
  | Some i -> i
  | None -> Alcotest.failf "no instance of s%d" sid

(* Re-evaluation *)

let reval_fixture () =
  let src =
    {|
void main() {
  int a = 3;
  int b = a * 2 + 1;
  print(b);
}
|}
  in
  let prog = compile src in
  let info = Proginfo.build prog in
  let _, t = traced prog [] in
  (prog, info, t)

let test_reval_known () =
  let prog, info, t = reval_fixture () in
  let b_sid = sid_on_line prog 4 in
  let inst = instance_of t ~sid:b_sid in
  let stmt = Proginfo.stmt_of_sid info b_sid in
  let a_cell =
    match inst.Trace.uses with (c, _, _) :: _ -> c | [] -> Alcotest.fail "no use"
  in
  (match Reval.run stmt inst ~cell:a_cell ~value:(Value.Vint 10) with
  | Reval.Known (Value.Vint 21) -> ()
  | _ -> Alcotest.fail "expected 10*2+1 = 21");
  match Reval.run stmt inst ~cell:a_cell ~value:(Value.Vint 3) with
  | Reval.Known (Value.Vint 7) -> ()
  | _ -> Alcotest.fail "expected identity replay 7"

let test_reval_rejects_div_by_zero () =
  let src =
    {|
void main() {
  int d = 2;
  int q = 10 / d;
  print(q);
}
|}
  in
  let prog = compile src in
  let info = Proginfo.build prog in
  let _, t = traced prog [] in
  let q_sid = sid_on_line prog 4 in
  let inst = instance_of t ~sid:q_sid in
  let stmt = Proginfo.stmt_of_sid info q_sid in
  let d_cell =
    match inst.Trace.uses with (c, _, _) :: _ -> c | [] -> Alcotest.fail "no use"
  in
  match Reval.run stmt inst ~cell:d_cell ~value:(Value.Vint 0) with
  | Reval.Rejected -> ()
  | _ -> Alcotest.fail "candidate 0 must be rejected"

let test_reval_unknown_on_call_arg () =
  let src =
    {|
int twice(int n) { return n + n; }
void main() {
  int a = 4;
  int b = twice(a);
  print(b);
}
|}
  in
  let prog = compile src in
  let info = Proginfo.build prog in
  let _, t = traced prog [] in
  let b_sid = sid_on_line prog 5 in
  let inst = instance_of t ~sid:b_sid in
  let stmt = Proginfo.stmt_of_sid info b_sid in
  let a_cell =
    match inst.Trace.uses with (c, _, _) :: _ -> c | [] -> Alcotest.fail "no use"
  in
  match Reval.run stmt inst ~cell:a_cell ~value:(Value.Vint 5) with
  | Reval.Unknown -> ()
  | _ -> Alcotest.fail "substituted call argument must be Unknown"

let test_reval_through_ret_cell () =
  (* substituting the return value itself is fine: the call is opaque
     but the ret-cell read is recorded *)
  let src =
    {|
int twice(int n) { return n + n; }
void main() {
  int a = 4;
  int b = twice(a) + 1;
  print(b);
}
|}
  in
  let prog = compile src in
  let info = Proginfo.build prog in
  let _, t = traced prog [] in
  let b_sid = sid_on_line prog 5 in
  let inst = instance_of t ~sid:b_sid in
  let stmt = Proginfo.stmt_of_sid info b_sid in
  let ret_cell =
    List.find_map
      (fun (c, _, _) ->
        match c with Exom_interp.Cell.Ret _ -> Some c | _ -> None)
      inst.Trace.uses
    |> Option.get
  in
  match Reval.run stmt inst ~cell:ret_cell ~value:(Value.Vint 100) with
  | Reval.Known (Value.Vint 101) -> ()
  | _ -> Alcotest.fail "expected 100 + 1"

let test_reval_store_index_moved () =
  let src =
    {|
void main() {
  int i = 1;
  int[] a = new_array(4);
  a[i] = 9;
  print(a[1]);
}
|}
  in
  let prog = compile src in
  let info = Proginfo.build prog in
  let _, t = traced prog [] in
  let st_sid = sid_on_line prog 5 in
  let inst = instance_of t ~sid:st_sid in
  let stmt = Proginfo.stmt_of_sid info st_sid in
  let i_cell =
    List.find_map
      (fun (c, _, _) ->
        match Exom_interp.Cell.static_var c with
        | Some "i" -> Some c
        | _ -> None)
      inst.Trace.uses
    |> Option.get
  in
  match Reval.run stmt inst ~cell:i_cell ~value:(Value.Vint 2) with
  | Reval.Rejected -> ()
  | _ -> Alcotest.fail "moving the store index must reject"

(* Figure 4: a=..., b=a%2, c=a+2, print(b) correct, print(c) wrong.
   b's producer gets confidence 1 (its value is pinned by the correct
   output); b = a%2 is many-to-one, so a's confidence is strictly
   between 0 and 1; c gets 0 (it only reaches the wrong output). *)

let fig4_src =
  {|
void main() {
  int a = input();
  int b = a % 2;
  int c = a + 2;
  print(b);
  print(c);
}
|}

let fig4 () =
  let prog = compile fig4_src in
  let info = Proginfo.build prog in
  let r, t = traced prog [ 5 ] in
  (* profile over several odd/even inputs: range(a) = {1..6} *)
  let profile = Profile.collect (Interp.compile prog) [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ]; [ 6 ] ] in
  let correct = [ fst (List.nth r.Interp.outputs 0) ] in
  let conf =
    Confidence.compute info profile t ~correct ~benign:[] ~implicit:[]
  in
  (prog, t, conf)

let test_fig4_confidences () =
  let prog, t, conf = fig4 () in
  let c_of line =
    Confidence.confidence conf
      (instance_of t ~sid:(sid_on_line prog line)).Trace.idx
  in
  Alcotest.(check bool) "C(b) = 1" true (c_of 4 >= 0.999);
  Alcotest.(check bool) "C(c) = 0" true (c_of 5 <= 0.001);
  let ca = c_of 3 in
  Alcotest.(check bool) "0 < C(a)" true (ca > 0.001);
  Alcotest.(check bool) "C(a) < 1" true (ca < 0.999)

let test_invertible_chain_full_confidence () =
  (* x -> y = x + 1 -> print(y) correct: addition by a constant is
     one-to-one, so x's alt is a singleton and C(x) = 1. *)
  let src =
    {|
void main() {
  int x = input();
  int y = x + 1;
  print(y);
  print(0 - 1);
}
|}
  in
  let prog = compile src in
  let info = Proginfo.build prog in
  let r, t = traced prog [ 7 ] in
  let profile = Profile.collect (Interp.compile prog) [ [ 1 ]; [ 2 ]; [ 9 ] ] in
  let correct = [ fst (List.nth r.Interp.outputs 0) ] in
  let conf =
    Confidence.compute info profile t ~correct ~benign:[] ~implicit:[]
  in
  let x_idx = (instance_of t ~sid:(sid_on_line prog 3)).Trace.idx in
  Alcotest.(check bool) "C(x) = 1" true
    (Confidence.confidence conf x_idx >= 0.999)

let test_unreached_instances_zero () =
  let prog, t, conf = fig4 () in
  ignore prog;
  (* the wrong output itself is unconstrained *)
  let wrong = Trace.length t - 1 in
  Alcotest.(check bool) "wrong output C=0" true
    (Confidence.confidence conf wrong <= 0.001)

let test_control_parent_pinned () =
  (* A correct output inside a branch pins the branch predicate. *)
  let src =
    {|
void main() {
  int k = input();
  if (k > 0) {
    print(k);
  }
  print(k + 1);
}
|}
  in
  let prog = compile src in
  let info = Proginfo.build prog in
  let r, t = traced prog [ 5 ] in
  let profile = Profile.collect (Interp.compile prog) [ [ 1 ]; [ 2 ]; [ 3 ] ] in
  let correct = [ fst (List.nth r.Interp.outputs 0) ] in
  let conf =
    Confidence.compute info profile t ~correct ~benign:[] ~implicit:[]
  in
  let if_idx = (instance_of t ~sid:(sid_on_line prog 4)).Trace.idx in
  Alcotest.(check bool) "predicate pinned to C=1" true
    (Confidence.confidence conf if_idx >= 0.999)

let test_implicit_edge_pins_predicate () =
  (* Figure 5's mechanism: adding a verified implicit edge p -> t with a
     constrained t pins p (propagation only along *verified* edges). *)
  let src =
    {|
int g = 0;
void main() {
  int k = 5;
  if (g == 1) {
    k = 9;
  }
  print(k);
  print(k - 5);
}
|}
  in
  let prog = compile src in
  let info = Proginfo.build prog in
  let r, t = traced prog [] in
  let profile = Profile.collect (Interp.compile prog) [ [] ] in
  let correct = [ fst (List.nth r.Interp.outputs 0) ] in
  let if_idx = (instance_of t ~sid:(sid_on_line prog 5)).Trace.idx in
  let print_idx = fst (List.nth r.Interp.outputs 0) in
  let without =
    Confidence.compute info profile t ~correct ~benign:[] ~implicit:[]
  in
  let with_edge =
    Confidence.compute info profile t ~correct ~benign:[]
      ~implicit:[ (if_idx, print_idx) ]
  in
  Alcotest.(check bool) "unpinned without edge" true
    (Confidence.confidence without if_idx <= 0.001);
  Alcotest.(check bool) "pinned with edge" true
    (Confidence.confidence with_edge if_idx >= 0.999)

(* Pruning and ranking *)

let test_prune_removes_confident () =
  (* a feeds both outputs; the invertible chain a -> b -> correct output
     pins a to confidence 1, so pruning shrinks the wrong output's
     slice even though a is in it. *)
  let src =
    {|
void main() {
  int a = input();
  int b = a + 1;
  int c = a * 0;
  print(b);
  print(c);
}
|}
  in
  let prog = compile src in
  let info = Proginfo.build prog in
  let r, t = traced prog [ 5 ] in
  let profile = Profile.collect (Interp.compile prog) [ [ 1 ]; [ 2 ]; [ 7 ] ] in
  let correct = [ fst (List.nth r.Interp.outputs 0) ] in
  let conf =
    Confidence.compute info profile t ~correct ~benign:[] ~implicit:[]
  in
  let wrong = fst (List.nth r.Interp.outputs 1) in
  let slice = Slice.compute t ~criteria:[ wrong ] in
  let ps = Prune.compute t ~slice ~conf ~criterion:wrong in
  Alcotest.(check bool) "a in the slice" true
    (Slice.mem_sid slice (sid_on_line prog 3));
  Alcotest.(check bool) "smaller than slice" true
    (Prune.size ps < Slice.dynamic_size slice);
  List.iter
    (fun e ->
      Alcotest.(check bool) "no confident entries" true
        (e.Prune.confidence < 0.999))
    (Prune.entries ps)

let test_ranking_order () =
  let prog, t, conf = fig4 () in
  ignore prog;
  let wrong = Trace.length t - 1 in
  let slice = Slice.compute t ~criteria:[ wrong ] in
  let ps = Prune.compute t ~slice ~conf ~criterion:wrong in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      (a.Prune.confidence < b.Prune.confidence
      || (a.Prune.confidence = b.Prune.confidence
         && a.Prune.distance <= b.Prune.distance))
      && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "ranked by confidence then distance" true
    (sorted (Prune.entries ps))

let test_distances () =
  let src =
    {|
void main() {
  int a = 1;
  int b = a + 1;
  print(b);
}
|}
  in
  let _, t = traced (compile src) [] in
  let d = Prune.distances t ~criterion:2 in
  Alcotest.(check int) "criterion at 0" 0 d.(2);
  Alcotest.(check int) "b at 1" 1 d.(1);
  Alcotest.(check int) "a at 2" 2 d.(0)

(* Property: confidence is always within [0, 1]. *)
let prop_confidence_bounded =
  QCheck.Test.make ~name:"confidence within [0,1]" ~count:25
    QCheck.(int_range 0 20)
    (fun n ->
      let src =
        {|
void main() {
  int n = input();
  int a = n * 3 % 7;
  int b = a + n;
  if (b > 10) {
    b = b - 10;
  }
  print(a);
  print(b);
}
|}
      in
      let prog = compile src in
      let info = Proginfo.build prog in
      let _, t = traced prog [ n ] in
      let profile = Profile.collect (Interp.compile prog) [ [ 0 ]; [ 3 ]; [ 11 ]; [ 17 ] ] in
      let r = Interp.run prog ~input:[ n ] in
      let correct = [ fst (List.nth r.Interp.outputs 0) ] in
      let conf =
        Confidence.compute info profile t ~correct ~benign:[] ~implicit:[]
      in
      let ok = ref true in
      for i = 0 to Trace.length t - 1 do
        let c = Confidence.confidence conf i in
        if c < 0.0 || c > 1.0 then ok := false
      done;
      !ok)

(* Property: marking an instance benign never lowers anyone's
   confidence (constraints only shrink alt sets). *)
let prop_benign_monotone =
  QCheck.Test.make ~name:"benign marking is monotone" ~count:15
    QCheck.(int_range 1 15)
    (fun n ->
      let src =
        {|
void main() {
  int n = input();
  int a = n + 1;
  int b = a * 2;
  print(b);
  print(b + n);
}
|}
      in
      let prog = compile src in
      let info = Proginfo.build prog in
      let r, t = traced prog [ n ] in
      let profile = Profile.collect (Interp.compile prog) [ [ 1 ]; [ 2 ]; [ 5 ]; [ 8 ] ] in
      let correct = [ fst (List.nth r.Interp.outputs 0) ] in
      let base =
        Confidence.compute info profile t ~correct ~benign:[] ~implicit:[]
      in
      let marked =
        Confidence.compute info profile t ~correct ~benign:[ 1 ] ~implicit:[]
      in
      let ok = ref true in
      for i = 0 to Trace.length t - 1 do
        if
          Confidence.confidence marked i
          < Confidence.confidence base i -. 1e-9
        then ok := false
      done;
      !ok)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "conf"
    [ ( "reval",
        [ tc "known result" test_reval_known;
          tc "rejects div by zero" test_reval_rejects_div_by_zero;
          tc "unknown on call argument" test_reval_unknown_on_call_arg;
          tc "through ret cell" test_reval_through_ret_cell;
          tc "store index moved" test_reval_store_index_moved ] );
      ( "confidence",
        [ tc "figure 4" test_fig4_confidences;
          tc "invertible chain" test_invertible_chain_full_confidence;
          tc "unreached instances" test_unreached_instances_zero;
          tc "control parent pinned" test_control_parent_pinned;
          tc "implicit edge pins predicate" test_implicit_edge_pins_predicate
        ] );
      ( "pruning",
        [ tc "removes confident instances" test_prune_removes_confident;
          tc "ranking order" test_ranking_order;
          tc "distances" test_distances ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_confidence_bounded; prop_benign_monotone ] ) ]
