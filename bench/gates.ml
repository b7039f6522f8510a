(* The gate table of `bench check` and the gates' verdicts.

   Every CI performance gate is one entry of [table]: what it runs
   (bench/main.ml executes the workloads) and the bound it enforces.
   A verdict is a pure function from measured values to checked lines,
   so every bound is unit-tested (bench/test_check.ml) without running
   a workload. *)

type gate = Smoke | Scaling | Serve | Qcache | Corpus

type entry = { gate : gate; name : string; runs : string; bound : string }

let table =
  [
    (* smoke-level perf visibility: the two smallest drivers plus the
       register sequence at path-jobs 1 and 4, so every change leaves
       comparable data points; the sequential numbers are gated against
       the committed baseline.  That baseline postdates the query-cache
       split, which changed what solver.checks counts, so the older
       BENCH_pr3.json values no longer compare (the file stays as a
       historical record) *)
    { gate = Smoke; name = "smoke";
      runs = "fig1a, fig1b, register_seq2 at path-jobs 1 (gated) and 4 (recorded), \
              then at path-jobs 0 for allocation";
      bound = "vs BENCH_pr9_pj1, per driver and total: wall-clock <= +10% or <= +50ms; \
               solver.checks <= x1.02; pj0 minor words <= x1.02 vs inline baseline" };
    (* parallel exploration must pay for itself: a scaling run on the
       branchy driver (CI runners have >= 2 cores, so the frontier
       driver actually fans out there, unlike on a 1-core box); pj4 is
       never slower than pj1 beyond the noise floor when pj1 does real
       work *)
    { gate = Scaling; name = "scaling"; runs = "switch6_tna at path-jobs 1, 2, 4, 8";
      bound = "pj4 <= pj1 + 50ms whenever pj1 > 0.2s" };
    (* serve latency: cold-vs-warm request pairs against a live daemon,
       gated on every driver; a warm request is a pure cache hit *)
    { gate = Serve; name = "serve";
      runs = "daemon (8 slots, 2 workers); middleblock at 128, 400, 800 ACLs; 1 warm-up, \
              then 11 flush -> cold -> warm triples";
      bound = "warm p50 < cold p50 and every warm prep time = 0" };
    (* query cache: every driver with the cache off vs on emits the
       same suite (also at path-jobs 1 vs 4) while spending fewer
       solver checks; the run prints per-driver hit rates and records
       the cache-on rows.  solver.checks is deterministic, so it gates
       exactly against the committed baseline; wall-clock against a
       baseline recorded on another host is noise, so its floor is
       raised to 2000ms *)
    { gate = Qcache; name = "qcache";
      runs = "the 6 std drivers with the cache off and on, then on at pj1 and pj4 (split 6)";
      bound = "suites identical off/on and pj1/pj4; aggregate solver.checks drop >= 30%; \
               vs BENCH_pr9: solver.checks <= x1.02, wall-clock <= +10% or <= +2000ms" };
    (* coverage-guided corpus: the self-validation campaign in corpus
       mode must reach strictly higher oracle-code coverage per 1000
       cases than pure random at the same seed and budget; the row
       records both figures plus the corpus hit rate *)
    { gate = Corpus; name = "corpus";
      runs = "campaign, 60 cases, seed 7, jobs 1, no reduce; corpus mode vs pure random";
      bound = "cov/1000 corpus > random; 0 differential failures" };
  ]

let find name = List.find_opt (fun e -> e.name = name) table

(* ------------------------------------------------------------------ *)
(* Checked lines *)

type status = Pass | Fail | Skip

(* one bound applied to one subject (a driver, or the total) *)
type line = { subject : string; bound : string; measured : string; status : status }

let line subject bound ok fmt =
  Printf.ksprintf
    (fun measured -> { subject; bound; measured; status = (if ok then Pass else Fail) })
    fmt

let passed lines = List.for_all (fun l -> l.status <> Fail) lines

let status_name = function Pass -> "ok" | Fail -> "FAIL" | Skip -> "skip"

(* ------------------------------------------------------------------ *)
(* Baselines: wall-clock and solver.checks per driver *)

type run = { driver : string; time : float; checks : int }

(* total_time and metrics."solver.checks" of BENCH_pr9_pj1.json *)
let smoke_baseline =
  [
    { driver = "fig1a"; time = 0.006541; checks = 9 };
    { driver = "fig1b"; time = 0.004622; checks = 9 };
    { driver = "register_seq2"; time = 0.003716; checks = 4 };
  ]

(* total_time and metrics."solver.checks" of BENCH_pr9.json *)
let qcache_baseline =
  [
    { driver = "fig1a"; time = 0.001543; checks = 6 };
    { driver = "fig1b"; time = 0.002527; checks = 7 };
    { driver = "middleblock_2acl"; time = 0.468596; checks = 563 };
    { driver = "up4"; time = 0.100685; checks = 114 };
    { driver = "switch6_tna"; time = 0.547132; checks = 406 };
    { driver = "register_seq2"; time = 0.002172; checks = 4 };
  ]

(* minor words allocated by one path-jobs-0 run of each smoke driver,
   measured by `bench check smoke` in dune's default (dev) profile.
   Gc.minor_words counts the calling domain only, so only the
   sequential driver measures a whole run; there the count is exact
   and repeats to the word, so it gates like solver.checks *)
let alloc_baseline =
  [ ("fig1a", 123442.0); ("fig1b", 190256.0); ("register_seq2", 165727.0) ]

let regression_pct = 10.0

(* solver.checks is deterministic per driver, so any increase past
   this slack means the query cache or the exploration lost ground *)
let checks_slack = 1.02

let pct old now = if old > 0.0 then 100.0 *. (now -. old) /. old else 0.0

(* percentages on sub-millisecond drivers are timer noise: a driver
   regressed only when it also lost [noise_s] of absolute time *)
let slower ~noise_s old now = pct old now > regression_pct && now -. old > noise_s

(* Every baseline driver must have produced a run: a missing one fails. *)
let vs_baseline ~noise_s baseline runs =
  let time_bound =
    Printf.sprintf "wall-clock <= +%.0f%% or <= +%.0fms" regression_pct (noise_s *. 1000.0)
  in
  let checks_bound = Printf.sprintf "solver.checks <= base x%.2f" checks_slack in
  let found =
    List.map (fun b -> (b, List.find_opt (fun r -> r.driver = b.driver) runs)) baseline
  in
  let per_driver =
    List.concat_map
      (fun (b, run) ->
        match run with
        | None -> [ line b.driver "present in the run" false "missing" ]
        | Some r ->
            [
              line b.driver time_bound
                (not (slower ~noise_s b.time r.time))
                "%.3fs -> %.3fs (%+.1f%%)" b.time r.time (pct b.time r.time);
              line b.driver checks_bound
                (float_of_int r.checks <= float_of_int b.checks *. checks_slack)
                "%d -> %d" b.checks r.checks;
            ])
      found
  in
  let matched = List.filter_map (fun (b, r) -> Option.map (fun r -> (b, r)) r) found in
  let sum f = List.fold_left (fun acc br -> acc +. f br) 0.0 matched in
  let bt = sum (fun (b, _) -> b.time) and ct = sum (fun (_, r) -> r.time) in
  per_driver
  @ [
      line "total" time_bound
        (not (slower ~noise_s bt ct))
        "%.3fs -> %.3fs (%+.1f%%)" bt ct (pct bt ct);
    ]

(* ------------------------------------------------------------------ *)
(* Verdicts, one per gate *)

let smoke runs = vs_baseline ~noise_s:0.05 smoke_baseline runs

let alloc_slack = 1.02

(* [words]: (driver, minor words) of the path-jobs-0 runs *)
let allocation words =
  let bound = Printf.sprintf "pj0 minor words <= base x%.2f" alloc_slack in
  List.map
    (fun (driver, base) ->
      match List.assoc_opt driver words with
      | None -> line driver bound false "missing"
      | Some w -> line driver bound (w <= base *. alloc_slack) "%.0f -> %.0f" base w)
    alloc_baseline

let min_work_s = 0.2 (* below this pj1 time the run is fixed cost, not scaling *)

let scaling_noise_s = 0.05 (* scheduler jitter allowance *)

(* [times]: (path-jobs, wall-clock seconds) pairs of one driver *)
let scaling ~driver times =
  let bound =
    Printf.sprintf "pj4 <= pj1 + %.0fms if pj1 > %.1fs" (scaling_noise_s *. 1000.0)
      min_work_s
  in
  match (List.assoc_opt 1 times, List.assoc_opt 4 times) with
  | Some t1, Some _ when t1 <= min_work_s ->
      [ { subject = driver; bound; measured = Printf.sprintf "pj1 %.3fs" t1; status = Skip } ]
  | Some t1, Some t4 ->
      [ line driver bound (t4 <= t1 +. scaling_noise_s) "pj1 %.3fs, pj4 %.3fs" t1 t4 ]
  | _ -> [ line driver bound false "missing pj1 or pj4 run" ]

type serve_run = {
  program : string;
  cold_p50 : float;  (** seconds *)
  warm_p50 : float;
  warm_prep_max : float;  (** largest preparation time of any warm response *)
}

let serve runs =
  List.concat_map
    (fun s ->
      [
        line s.program "warm p50 < cold p50" (s.warm_p50 < s.cold_p50) "%.3fms vs %.3fms"
          (1e3 *. s.warm_p50) (1e3 *. s.cold_p50);
        line s.program "every warm prep = 0" (s.warm_prep_max = 0.0) "max %.3fms"
          (1e3 *. s.warm_prep_max);
      ])
    runs

type qcache_run = {
  on : run;  (** cache on, default config *)
  checks_off : int;
  same_off_on : bool;  (** cache-off and cache-on suites are identical *)
  same_pj : bool;  (** cache-on suites at pj1 and pj4 are identical *)
}

let min_drop_pct = 30.0

let qcache runs =
  let identity =
    List.concat_map
      (fun q ->
        [
          line q.on.driver "suite off = on" q.same_off_on "%s"
            (if q.same_off_on then "identical" else "differs");
          line q.on.driver "suite pj1 = pj4" q.same_pj "%s"
            (if q.same_pj then "identical" else "differs");
        ])
      runs
  in
  let off = List.fold_left (fun acc q -> acc + q.checks_off) 0 runs
  and on = List.fold_left (fun acc q -> acc + q.on.checks) 0 runs in
  let drop = if off > 0 then 100.0 *. float_of_int (off - on) /. float_of_int off else 0.0 in
  identity
  @ [
      line "total" (Printf.sprintf "solver.checks drop >= %.0f%%" min_drop_pct)
        (drop >= min_drop_pct) "%d -> %d (%.1f%%)" off on drop;
    ]
  @ vs_baseline ~noise_s:2.0 qcache_baseline (List.map (fun q -> q.on) runs)

let corpus ~cov_corpus ~cov_random ~failures =
  [
    line "campaign" "cov/1000 corpus > random" (cov_corpus > cov_random) "%.1f vs %.1f"
      cov_corpus cov_random;
    line "campaign" "differential failures = 0" (failures = 0) "%d" failures;
  ]
