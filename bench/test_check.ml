(* Tests for the verdicts of `bench check` (bench/gates.ml): each bound
   is exercised on both sides, and a baseline driver that produced no
   run fails its gate. *)

open Gates

(* the subjects of the failing lines *)
let failures lines =
  List.filter_map (fun l -> if l.status = Fail then Some l.subject else None) lines

let check_fails msg expected lines =
  Alcotest.(check (list string)) msg expected (failures lines)

let run driver time checks = { driver; time; checks }

(* every baseline driver measured at exactly its baseline values *)
let at_baseline = List.map (fun b -> run b.driver b.time b.checks)

let replace driver f runs = List.map (fun r -> if r.driver = driver then f r else r) runs

(* ------------------------------------------------------------------ *)
(* Baseline comparison (smoke, and the baseline half of qcache) *)

let test_checks_slack () =
  let base = [ run "d" 1.0 100 ] in
  check_fails "x1.02 passes" [] (vs_baseline ~noise_s:0.05 base [ run "d" 1.0 102 ]);
  check_fails "x1.03 fails" [ "d" ] (vs_baseline ~noise_s:0.05 base [ run "d" 1.0 103 ]);
  check_fails "smoke: baseline checks pass" [] (smoke (at_baseline smoke_baseline));
  check_fails "smoke: one more check fails" [ "fig1a" ]
    (smoke (replace "fig1a" (fun r -> { r with checks = 10 }) (at_baseline smoke_baseline)))

let test_wall_clock () =
  (* +11% is +60ms at 545ms and +40ms at 364ms *)
  let slow base delta =
    vs_baseline ~noise_s:0.05 [ run "d" base 1 ] [ run "d" (base +. delta) 1 ]
  in
  check_fails "+11% and +60ms fails" [ "d"; "total" ] (slow (0.06 /. 0.11) 0.06);
  check_fails "+11% and +40ms passes" [] (slow (0.04 /. 0.11) 0.04);
  check_fails "+60ms at +5% passes" [] (slow 1.2 0.06);
  let smoke_slower dt =
    smoke (replace "fig1a" (fun r -> { r with time = r.time +. dt }) (at_baseline smoke_baseline))
  in
  check_fails "smoke: +60ms fails" [ "fig1a"; "total" ] (smoke_slower 0.06);
  check_fails "smoke: +40ms passes the 50ms floor" [] (smoke_slower 0.04)

let test_wall_clock_total () =
  (* two drivers each +11% but under the noise floor; their sum is not *)
  let slow base delta =
    vs_baseline ~noise_s:0.05
      [ run "a" base 1; run "b" base 1 ]
      [ run "a" (base +. delta) 1; run "b" (base +. delta) 1 ]
  in
  check_fails "total +11% and +60ms fails" [ "total" ] (slow (0.03 /. 0.11) 0.03);
  check_fails "total +11% and +40ms passes" [] (slow (0.02 /. 0.11) 0.02)

let test_missing_driver () =
  let runs = List.filter (fun r -> r.driver <> "fig1b") (at_baseline smoke_baseline) in
  check_fails "smoke: missing driver fails" [ "fig1b" ] (smoke runs);
  check_fails "no runs at all" [ "fig1a"; "fig1b"; "register_seq2" ] (smoke [])

(* ------------------------------------------------------------------ *)
(* Allocation (smoke, path-jobs 0) *)

let test_allocation () =
  let scaled k = List.map (fun (d, w) -> (d, w *. k)) alloc_baseline in
  check_fails "baseline words pass" [] (allocation alloc_baseline);
  check_fails "x1.02 passes" [] (allocation (scaled 1.02));
  check_fails "x1.03 fails" [ "fig1a"; "fig1b"; "register_seq2" ] (allocation (scaled 1.03));
  check_fails "fewer words pass" [] (allocation (scaled 0.5));
  check_fails "one driver over fails" [ "fig1b" ]
    (allocation
       (List.map (fun (d, w) -> (d, if d = "fig1b" then w +. 0.03 *. w else w)) alloc_baseline));
  check_fails "missing driver fails" [ "register_seq2" ]
    (allocation (List.remove_assoc "register_seq2" alloc_baseline))

(* ------------------------------------------------------------------ *)
(* Scaling *)

let test_scaling () =
  let verdict t1 t4 = scaling ~driver:"d" [ (1, t1); (2, t1); (4, t4); (8, t4) ] in
  check_fails "pj4 = pj1 + 60ms fails" [ "d" ] (verdict 0.3 0.36);
  check_fails "pj4 = pj1 + 40ms passes" [] (verdict 0.3 0.34);
  let skipped = verdict 0.1 0.16 in
  check_fails "below min work: not gated" [] skipped;
  Alcotest.(check bool) "below min work: skipped" true
    (List.for_all (fun l -> l.status = Skip) skipped);
  check_fails "missing pj4 fails" [ "d" ] (scaling ~driver:"d" [ (1, 0.3); (2, 0.3) ])

(* ------------------------------------------------------------------ *)
(* Serve *)

let test_serve () =
  let s ?(cold = 0.02) ?(warm = 0.01) ?(prep = 0.0) () =
    serve [ { program = "p"; cold_p50 = cold; warm_p50 = warm; warm_prep_max = prep } ]
  in
  check_fails "warm < cold, prep 0 passes" [] (s ());
  check_fails "warm p50 = cold p50 fails" [ "p" ] (s ~warm:0.02 ());
  check_fails "warm prep > 0 fails" [ "p" ] (s ~prep:1e-6 ())

(* ------------------------------------------------------------------ *)
(* Query cache *)

(* cache-on runs at the baseline values (1100 checks in total); the
   cache-off runs spend [off] checks in total *)
let qruns ?(same_off_on = true) ?(same_pj = true) off =
  List.mapi
    (fun i on ->
      let rest = List.fold_left (fun acc b -> acc + b.checks) 0 qcache_baseline - on.checks in
      { on; checks_off = (if i = 0 then off - rest else on.checks); same_off_on; same_pj })
    (at_baseline qcache_baseline)

let test_qcache_drop () =
  check_fails "30.0% drop passes" [] (qcache (qruns 1572));
  check_fails "29.9% drop fails" [ "total" ] (qcache (qruns 1569))

let test_qcache_identity () =
  let all = List.map (fun b -> b.driver) qcache_baseline in
  check_fails "off/on mismatch fails" all (qcache (qruns ~same_off_on:false 1613));
  check_fails "pj1/pj4 mismatch fails" all (qcache (qruns ~same_pj:false 1613))

let test_qcache_baseline () =
  let with_up4 f = List.map (fun q -> if q.on.driver = "up4" then f q else q) (qruns 1613) in
  let runs = List.filter (fun q -> q.on.driver <> "up4") (qruns 1613) in
  Alcotest.(check bool) "missing baseline driver fails" true
    (List.mem "up4" (failures (qcache runs)));
  check_fails "checks past x1.02 fail" [ "up4" ]
    (qcache (with_up4 (fun q -> { q with on = { q.on with checks = 117 } })));
  let slower dt = with_up4 (fun q -> { q with on = { q.on with time = q.on.time +. dt } }) in
  check_fails "+1900ms passes the 2000ms floor" [] (qcache (slower 1.9));
  check_fails "+2100ms fails" [ "up4"; "total" ] (qcache (slower 2.1))

(* ------------------------------------------------------------------ *)
(* Corpus *)

let test_corpus () =
  check_fails "corpus beats random" []
    (corpus ~cov_corpus:10350.0 ~cov_random:10066.7 ~failures:0);
  check_fails "equal cov/1000 fails" [ "campaign" ]
    (corpus ~cov_corpus:10066.7 ~cov_random:10066.7 ~failures:0);
  check_fails "a differential failure fails" [ "campaign" ]
    (corpus ~cov_corpus:10350.0 ~cov_random:10066.7 ~failures:1)

let test_table () =
  Alcotest.(check (list string)) "one entry per gate"
    [ "smoke"; "scaling"; "serve"; "qcache"; "corpus" ]
    (List.map (fun e -> e.name) table);
  Alcotest.(check bool) "unknown gate" true (find "json" = None)

let () =
  Alcotest.run "bench gates"
    [
      ( "baseline",
        [
          Alcotest.test_case "solver.checks slack" `Quick test_checks_slack;
          Alcotest.test_case "wall-clock per driver" `Quick test_wall_clock;
          Alcotest.test_case "wall-clock total" `Quick test_wall_clock_total;
          Alcotest.test_case "missing driver" `Quick test_missing_driver;
          Alcotest.test_case "allocation" `Quick test_allocation;
        ] );
      ( "gates",
        [
          Alcotest.test_case "scaling" `Quick test_scaling;
          Alcotest.test_case "serve" `Quick test_serve;
          Alcotest.test_case "qcache drop" `Quick test_qcache_drop;
          Alcotest.test_case "qcache identity" `Quick test_qcache_identity;
          Alcotest.test_case "qcache baseline" `Quick test_qcache_baseline;
          Alcotest.test_case "corpus" `Quick test_corpus;
          Alcotest.test_case "table" `Quick test_table;
        ] );
    ]
