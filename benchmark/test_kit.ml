(* Tests for the benchmark's own helpers: the percentile rule, the metric
   catalogue (names, units, agreement with BENCHMARK.json) and the
   result-line codec. *)

module Json = Exom_obs.Json

let floats n = List.init n (fun i -> float_of_int (i + 1))

(* {2 Percentile rule} *)

let test_samples_needed () =
  Alcotest.(check int) "p90 needs 100" 100 (Kit.samples_needed 0.9);
  Alcotest.(check int) "p50 needs 20" 20 (Kit.samples_needed 0.5)

let test_ten_beyond () =
  List.iter
    (fun (p, n) ->
      let xs = List.rev (floats n) in
      match Kit.percentile p xs with
      | Error e -> Alcotest.failf "p%g of %d samples: %s" p n e
      | Ok v ->
        let beyond = List.length (List.filter (fun x -> x > v) xs) in
        let at_or_below = List.length (List.filter (fun x -> x <= v) xs) in
        Alcotest.(check bool)
          (Printf.sprintf "p%g of %d: >= %d beyond" p n Kit.min_beyond)
          true (beyond >= Kit.min_beyond);
        Alcotest.(check bool)
          (Printf.sprintf "p%g of %d: share at or below" p n)
          true
          (float_of_int at_or_below >= p *. float_of_int n))
    [ (0.9, 100); (0.9, 101); (0.9, 137); (0.9, 450); (0.5, 20); (0.5, 21) ]

let test_too_few () =
  List.iter
    (fun (p, n) ->
      match Kit.percentile p (floats n) with
      | Ok _ -> Alcotest.failf "p%g of %d samples must be refused" p n
      | Error _ -> ())
    [ (0.9, 99); (0.9, 1); (0.5, 19); (0.5, 0) ]

let test_values () =
  Alcotest.(check (result (float 0.) string)) "p90 of 1..100" (Ok 90.)
    (Kit.percentile 0.9 (floats 100));
  Alcotest.(check (result (float 0.) string)) "p50 of 1..20" (Ok 10.)
    (Kit.percentile 0.5 (floats 20));
  Alcotest.(check (float 0.)) "median odd" 2. (Kit.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "median even" 2.5 (Kit.median [ 4.; 1.; 3.; 2. ])

(* {2 Catalogue} *)

let catalogue = Kit.end_to_end @ Kit.per_layer

let test_names () =
  List.iter
    (fun (x : Kit.metric) ->
      Alcotest.(check bool) ("valid name " ^ x.Kit.name) true (Kit.valid_name x.Kit.name))
    catalogue;
  List.iter
    (fun bad -> Alcotest.(check bool) ("rejects " ^ bad) false (Kit.valid_name bad))
    [ ""; "a b"; "p90(ms)"; "_x"; ".x"; "-x"; "a/b"; "é"; String.make 65 'a' ];
  let names = List.map (fun (x : Kit.metric) -> x.Kit.name) catalogue in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_units () =
  let ok c =
    match c with
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
    | _ -> false
  in
  List.iter
    (fun (x : Kit.metric) ->
      Alcotest.(check bool) ("unit of " ^ x.Kit.name) true
        (String.length x.Kit.unit > 0
        && String.length x.Kit.unit <= 16
        && String.for_all ok x.Kit.unit))
    catalogue

(* A declared metric is carried by every workload's result line. *)
let test_declared_everywhere () =
  List.iter
    (fun (x : Kit.metric) ->
      if x.Kit.declared then
        Alcotest.(check (list string)) ("applies everywhere: " ^ x.Kit.name)
          Kit.workloads x.Kit.applies)
    catalogue

let benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse s with Ok j -> j | Error e -> Alcotest.fail e

let test_matches_benchmark_json () =
  let j = benchmark_json () in
  let list k = Option.value ~default:[] (Option.bind (Json.member k j) Json.to_list) in
  let str k o = Option.get (Option.bind (Json.member k o) Json.to_str) in
  Alcotest.(check (list string)) "workloads" Kit.workloads
    (List.map (str "name") (list "workloads"));
  let declared ms =
    List.filter_map
      (fun (x : Kit.metric) ->
        if x.Kit.declared then Some (x.Kit.name, x.Kit.unit) else None)
      ms
  in
  let entries k = List.map (fun o -> (str "name" o, str "unit" o)) (list k) in
  Alcotest.(check (list (pair string string))) "end_to_end"
    (declared Kit.end_to_end) (entries "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer"
    (declared Kit.per_layer) (entries "per_layer")

(* {2 Result line} *)

let test_round_trip () =
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let values =
            List.filter_map
              (fun (x : Kit.metric) ->
                if x.Kit.declared then
                  Some (x.Kit.name, 1.0 /. float_of_int (3 + String.length x.Kit.name), x.Kit.unit)
                else None)
              (Kit.metrics_for ~trace w)
          in
          let r = { Kit.correct = true; attempted = 120; failed = 0; values } in
          let line = Kit.result_to_string r in
          Alcotest.(check bool) "one line" false (String.contains line '\n');
          match Kit.result_of_string line with
          | Error e -> Alcotest.failf "%s: %s" w e
          | Ok r' ->
            Alcotest.(check bool) "correct" true r'.Kit.correct;
            Alcotest.(check int) "attempted" 120 r'.Kit.attempted;
            Alcotest.(check int) "failed" 0 r'.Kit.failed;
            let catalogue = if trace then Kit.per_layer else Kit.end_to_end in
            List.iter
              (fun (x : Kit.metric) ->
                if x.Kit.declared then
                  match List.find_opt (fun (n, _, _) -> n = x.Kit.name) r'.Kit.values with
                  | None -> Alcotest.failf "%s: %s missing" w x.Kit.name
                  | Some (_, v, u) ->
                    let _, v0, _ = List.find (fun (n, _, _) -> n = x.Kit.name) values in
                    Alcotest.(check (float 0.)) ("value of " ^ x.Kit.name) v0 v;
                    Alcotest.(check string) ("unit of " ^ x.Kit.name) x.Kit.unit u)
              catalogue)
        [ false; true ])
    Kit.workloads

let test_rejects () =
  List.iter
    (fun s ->
      match Kit.result_of_string s with
      | Ok _ -> Alcotest.failf "accepted %s" s
      | Error _ -> ())
    [
      "{}";
      "[1]";
      {|{"correct":true,"attempted":1,"failed":0}|};
      {|{"correct":true,"attempted":1,"failed":0,"metrics":{},"extra":1}|};
      {|{"correct":1,"attempted":1,"failed":0,"metrics":{}}|};
      {|{"correct":true,"attempted":1.5,"failed":0,"metrics":{}}|};
      {|{"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"value":1}}}|};
    ]

let () =
  Alcotest.run "benchmark kit"
    [
      ( "percentile",
        [
          Alcotest.test_case "samples needed" `Quick test_samples_needed;
          Alcotest.test_case "ten samples beyond" `Quick test_ten_beyond;
          Alcotest.test_case "too few samples refused" `Quick test_too_few;
          Alcotest.test_case "values" `Quick test_values;
        ] );
      ( "catalogue",
        [
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "units" `Quick test_units;
          Alcotest.test_case "declared metrics apply everywhere" `Quick
            test_declared_everywhere;
          Alcotest.test_case "matches BENCHMARK.json" `Quick
            test_matches_benchmark_json;
        ] );
      ( "result line",
        [
          Alcotest.test_case "round trip per workload" `Quick test_round_trip;
          Alcotest.test_case "malformed lines rejected" `Quick test_rejects;
        ] );
    ]
