(* Tests of the benchmark's own arithmetic and input generation. *)

open Perfbench

let floats = Alcotest.(float 1e-9)

let test_tail_rule () =
  let check n expected =
    Alcotest.(check (option (float 0.0))) (Printf.sprintf "n = %d" n) expected (Stats.tail_percentile n)
  in
  (* p90 needs ten samples beyond its nearest rank: n >= 100 *)
  check 100 (Some 0.9);
  check 99 (Some 0.5);
  check 1000 (Some 0.99);
  check 999 (Some 0.9);
  check 10_000 (Some 0.999);
  check 20 (Some 0.5);
  check 19 None;
  check 0 None

let test_percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check floats "p90 of 1..100" 90.0 (Stats.percentile xs 0.9);
  Alcotest.check floats "p50 of 1..100" 50.0 (Stats.percentile xs 0.5);
  Alcotest.check floats "median of 1..100" 50.5 (Stats.median xs);
  Alcotest.check floats "median of three" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check floats "p90 of one" 7.0 (Stats.percentile [ 7.0 ] 0.9)

let span id parent name start stop = { Spans.id; parent; group = 0; name; start; stop }

let test_self_time () =
  (* root [0,10] has children a [1,4] and b [3,6], which overlap, and d
     [9,12], which runs past it; a has a child c [2,3] *)
  let spans =
    [
      span 0 (-1) "pass" 0.0 10.0;
      span 1 0 "oracle.prepare" 1.0 4.0;
      span 2 0 "explore.run" 3.0 6.0;
      span 3 1 "p4.parse" 2.0 3.0;
      span 4 0 "backends.emit" 9.0 12.0;
    ]
  in
  let self = List.map (fun (s, v) -> (s.Spans.name, v)) (Spans.self_times spans) in
  let get n = List.assoc n self in
  Alcotest.check floats "root minus the union of its children" 4.0 (get "pass");
  Alcotest.check floats "nested child" 2.0 (get "oracle.prepare");
  Alcotest.check floats "leaf" 1.0 (get "p4.parse");
  Alcotest.check floats "leaf past its parent" 3.0 (get "backends.emit");
  let layers = Spans.layer_self_times spans in
  Alcotest.check floats "bench layer" 4.0 (List.assoc "bench" layers);
  Alcotest.check floats "oracle layer" 2.0 (List.assoc "oracle" layers);
  Alcotest.check floats "root time" 10.0 (Spans.root_time spans)

let test_recorder () =
  let t = Spans.create ~on:true in
  Spans.with_ t ~group:5 "program" (fun () ->
      Spans.with_ t ~group:5 "oracle.prepare" (fun () ->
          let start = Obs.Clock.now () in
          while Obs.Clock.now () < start +. 0.002 do () done;
          ignore (Spans.add_reported t ~group:5 ~start "p4.parse" 0.001)));
  let spans = Spans.spans t in
  let by name = List.find (fun s -> s.Spans.name = name) spans in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  Alcotest.(check int) "reported span nests in the open one" (by "oracle.prepare").id
    (by "p4.parse").parent;
  Alcotest.(check int) "prepare nests in program" (by "program").id (by "oracle.prepare").parent;
  Alcotest.(check bool) "one group" true (List.for_all (fun s -> s.Spans.group = 5) spans);
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0.0 (Spans.layer_self_times spans) in
  Alcotest.(check (float 1e-6)) "self times add up to the root" (Spans.root_time spans) sum;
  let off = Spans.create ~on:false in
  Alcotest.(check int) "tracing off: the bare call" 42 (Spans.with_ off "x" (fun () -> 42));
  Alcotest.(check int) "tracing off: no spans" 0 (List.length (Spans.spans off))

(* every input of every workload for [seed], as bytes *)
let inputs ~seed =
  let describe (p : Inputs.program) =
    Printf.sprintf "%s\n%s\n%d\n%s\n%s" p.label p.arch p.oracle_seed
      (match p.max_tests with Some n -> string_of_int n | None -> "-")
      p.source
  in
  String.concat "\000"
    (List.map describe (Inputs.tbl4a ~seed @ (Inputs.random_rounds ~seed 0).(0) @ Inputs.serve ~seed)
    @ List.map string_of_int (Inputs.serve_stream ~seed ~pass:0 200 @ Inputs.serve_stream ~seed ~pass:1 200))

let test_inputs_repeat () =
  let d seed = inputs ~seed in
  Alcotest.(check bool) "same seed, same inputs" true (String.equal (d 7) (d 7));
  Alcotest.(check bool) "another seed, other inputs" true (d 7 <> d 8);
  let rounds = Inputs.random_rounds ~seed:3 0 in
  Alcotest.(check bool) "a random round holds every architecture equally" true
    (Array.for_all
       (fun round ->
         List.for_all
           (fun arch ->
             List.length (List.filter (fun (p : Inputs.program) -> p.arch = arch) round)
             = Inputs.round_per_arch)
           [ "v1model"; "ebpf_model"; "tna" ])
       rounds);
  let labels = List.concat_map (List.map (fun (p : Inputs.program) -> p.label)) (Array.to_list rounds) in
  Alcotest.(check int) "a draw holds distinct programs" (List.length labels)
    (List.length (List.sort_uniq compare labels));
  let widths = Inputs.serve_widths ~seed:3 in
  Alcotest.(check int) "more serve programs than cache slots" 16
    (List.length (List.sort_uniq compare widths));
  Alcotest.(check bool) "serve widths within 32 of each other" true
    (List.for_all (fun w -> w >= Inputs.serve_width_lo && w < Inputs.serve_width_lo + 32) widths);
  let ranks = Inputs.serve_ranks ~seed:3 ~pass:0 in
  Alcotest.(check (list int)) "ranks are a permutation of the programs" (List.init 16 Fun.id)
    (List.sort compare (Array.to_list ranks));
  Alcotest.(check bool) "the ranks come from the seed" true
    (List.exists (fun s -> Inputs.serve_ranks ~seed:s ~pass:0 <> ranks) [ 4; 5; 6 ]);
  Alcotest.(check bool) "and change from pass to pass" true
    (List.exists (fun k -> Inputs.serve_ranks ~seed:3 ~pass:k <> ranks) [ 1; 2; 3 ])

let test_repeat_check () =
  let bad, n =
    Workloads.compare_runs
      [ ("pass", [ ("a", 1); ("b", 2) ]); ("pass", [ ("a", 1); ("b", 2) ]); ("pass", [ ("a", 1); ("b", 3) ]) ]
  in
  Alcotest.(check int) "two runs compared" 2 n;
  Alcotest.(check (list string)) "the differing counter is reported" [ "pass: b 2 vs 3" ] bad

let test_parse_obs () =
  Alcotest.(check (list (pair string (float 0.0))))
    "flat snapshot JSON"
    [ ("solver.checks", 3.0); ("solver.time", 0.25) ]
    (Workloads.parse_obs "{\"solver.checks\":3,\"solver.time\":0.25}")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time over nested spans" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "same seed gives byte-identical inputs" `Quick test_inputs_repeat;
          Alcotest.test_case "counter repeat check" `Quick test_repeat_check;
          Alcotest.test_case "daemon obs parsing" `Quick test_parse_obs;
        ] );
    ]
