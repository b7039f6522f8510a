(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (§7).

     dune exec bench/main.exe              run everything
     dune exec bench/main.exe -- fig1      Fig. 1c  worked examples
     dune exec bench/main.exe -- tables    Tbl. 1 & Tbl. 5 (capability tables)
     dune exec bench/main.exe -- fig7      Fig. 7   CPU-time distribution
     dune exec bench/main.exe -- table2    Tbl. 2   bug classes found per target
     dune exec bench/main.exe -- table3    Tbl. 3   BMv2 bug details
     dune exec bench/main.exe -- table4a   Tbl. 4a  large-program statistics
     dune exec bench/main.exe -- table4b   Tbl. 4b  precondition effect
     dune exec bench/main.exe -- batch [N]   corpus-wide generation on N domains
     dune exec bench/main.exe -- check [GATE...] [--out F]
                                           CI performance gates (all by default;
                                           table and bounds in bench/gates.ml);
                                           rows -> F (default bench-check.json)

   Absolute numbers differ from the paper (its substrate was BMv2/Tofino
   hardware and 13-hour runs); the *shape* of each result is the claim
   being reproduced — see EXPERIMENTS.md. *)

module Bits = Bitv.Bits
module Oracle = Testgen.Oracle
module Explore = Testgen.Explore
module Runtime = Testgen.Runtime

let hr () = print_endline (String.make 78 '-')

let header title =
  hr ();
  Printf.printf "%s\n" title;
  hr ()

let target_of arch = Option.get (Targets.Registry.find arch)

let generate ?(opts = Runtime.default_options) ?(config = Explore.default_config) arch src =
  Oracle.generate ~opts ~config (target_of arch) src

(* ------------------------------------------------------------------ *)
(* Fig. 1c: worked examples *)

let fig1 () =
  header "Fig. 1c — tests generated for the programs of Fig. 1a / Fig. 1b";
  let show name src =
    Printf.printf "--- %s ---\n" name;
    Printf.printf "%-8s %-5s %-30s %-5s %-30s %s\n" "SizeIn" "In" "Input data" "Out"
      "Output data" "Config";
    let run = generate "v1model" src in
    List.iter
      (fun (t : Testgen.Testspec.t) ->
        let out_port, out_data =
          match (Testgen.Testspec.outputs t) with
          | [] -> ("X", "(drop)")
          | o :: _ -> (string_of_int (Bits.to_int o.port), Bits.to_hex o.data)
        in
        Printf.printf "%-8d %-5d %-30s %-5s %-30s %s\n" (Bits.width (Testgen.Testspec.input t).data)
          (Bits.to_int (Testgen.Testspec.input t).port) (Bits.to_hex (Testgen.Testspec.input t).data) out_port out_data
          (String.concat "; " (List.map (fun e -> Format.asprintf "%a" Testgen.Testspec.pp_entry e) t.entries)))
      run.Oracle.result.Explore.tests;
    print_newline ()
  in
  show "Fig. 1a (forward on EtherType)" Progzoo.Corpus.fig1a;
  show "Fig. 1b (checksum validation, concolic)" Progzoo.Corpus.fig1b

(* ------------------------------------------------------------------ *)
(* Tbl. 1 and Tbl. 5 *)

let tables () =
  header "Tbl. 1 — P4Testgen extensions";
  Printf.printf "%-14s %-14s %s\n" "Architecture" "Target" "Test back ends";
  List.iter
    (fun (arch, (device, backends)) ->
      Printf.printf "%-14s %-14s %s\n" arch device (String.concat ", " backends))
    Targets.Registry.capabilities;
  print_newline ();
  header "Tbl. 5 — tools that test the P4 toolchain (static comparison)";
  Printf.printf "%-12s %-12s %-12s %-16s %s\n" "Tool" "Method" "No input?" "Target agnostic"
    "Target semantics";
  List.iter
    (fun (t, m, ni, ta, ts) -> Printf.printf "%-12s %-12s %-12s %-16s %s\n" t m ni ta ts)
    [
      ("Gauntlet", "Symbex", "yes", "yes", "no");
      ("Meissa", "Symbex", "no", "no", "yes");
      ("SwitchV", "Hybrid", "no", "no", "yes");
      ("Petr4", "Symbex", "no", "yes", "yes");
      ("p4pktgen", "Symbex", "yes", "no", "no");
      ("PTA", "Fuzzing", "no", "yes", "no");
      ("DBVal", "Fuzzing", "no", "yes", "no");
      ("FP4", "Fuzzing", "no", "yes", "no");
      ("P4Testgen", "Symbex", "yes", "yes", "yes");
    ]

(* ------------------------------------------------------------------ *)
(* Fig. 7: CPU-time distribution *)

let fig7 () =
  header "Fig. 7 — average CPU time spent in P4Testgen phases";
  let sample name arch src config =
    let p = Oracle.prepare (target_of arch) src in
    let prep = p.Oracle.prep_time in
    let st = Oracle.initial_state p in
    let result = Explore.run ~config p.Oracle.ctx st in
    let total = prep +. result.Explore.total_time in
    let solve = result.Explore.solve_time in
    let step = result.Explore.stats.Explore.t_step in
    let emit = result.Explore.stats.Explore.t_emit in
    let emit_solve = result.Explore.stats.Explore.t_emit_solve in
    let readout = result.Explore.stats.Explore.t_readout in
    (* emission includes its own solver calls; attribute them to the
       solver bucket and keep buckets disjoint.  Emission splits into
       solve (inside the solver bucket) / readout / rest. *)
    let emit_pure = max 0.0 (emit -. emit_solve) in
    let other = max 0.0 (total -. prep -. step -. solve -. emit_pure) in
    let pct x = 100.0 *. x /. total in
    Printf.printf "%-24s %6d tests  %6.2fs total\n" name
      (List.length result.Explore.tests) total;
    Printf.printf "    IR preparation     %5.1f%%\n" (pct prep);
    Printf.printf "    symbolic stepping  %5.1f%%\n" (pct step);
    Printf.printf "    SMT solving        %5.1f%%   (the paper reports < 10%% for Z3)\n"
      (pct solve);
    Printf.printf "      emission solve   %5.1f%%\n" (pct emit_solve);
    Printf.printf "    test emission      %5.1f%%   (excluding its solving)\n" (pct emit_pure);
    Printf.printf "      readout          %5.1f%%\n" (pct readout);
    Printf.printf "      rest             %5.1f%%\n" (pct (max 0.0 (emit_pure -. readout)));
    Printf.printf "    other              %5.1f%%\n" (pct other);
    (pct solve, total)
  in
  let cap n = { Explore.default_config with Explore.max_tests = Some n } in
  let s1, _ = sample "middleblock (2 ACLs)" "v1model" (Progzoo.Generators.middleblock ~acl_stages:2 ()) (cap 400) in
  let s2, _ = sample "up4" "v1model" (Progzoo.Generators.up4 ()) Explore.default_config in
  let s3, _ = sample "switch (6 stages, tna)" "tna" (Progzoo.Generators.switch_tna ~stages:6 ()) (cap 400) in
  Printf.printf "\nsolver share across programs: %.1f%% / %.1f%% / %.1f%%\n" s1 s2 s3

(* ------------------------------------------------------------------ *)
(* Tbl. 2 / Tbl. 3: the bug-finding study, shared with the selftest
   subsystem's mutation scorer (which also runs on dune runtest) *)

module Mutscore = Selftest.Mutscore

let campaign () = Mutscore.score ()

let table2 () =
  header "Tbl. 2 — toolchain bugs discovered, by type and target";
  Printf.printf "(reproduced as a seeded-fault campaign: %d faults injected into the\n"
    (List.length Sim.Mutation.corpus);
  Printf.printf " simulated toolchains; a fault counts as a discovered bug when at least\n";
  Printf.printf " one generated test exposes it)\n\n";
  let results = campaign () in
  (* a detected fault counts under the bug's class (as the paper's
     tables classify bugs, not failure symptoms) *)
  let count target kind =
    List.length
      (List.filter
         (fun ((m : Sim.Mutation.t), d) ->
           m.m_target = target && m.m_kind = kind && d <> Mutscore.Undetected)
         results)
  in
  let undetected = Mutscore.undetected results in
  Printf.printf "%-12s %-8s %-8s %s\n" "Bug Type" "BMv2" "Tofino" "Total";
  let exc_b = count "BMv2" Sim.Mutation.Exception
  and exc_t = count "Tofino" Sim.Mutation.Exception in
  let wrg_b = count "BMv2" Sim.Mutation.Wrong_code
  and wrg_t = count "Tofino" Sim.Mutation.Wrong_code in
  Printf.printf "%-12s %-8d %-8d %d\n" "Exception" exc_b exc_t (exc_b + exc_t);
  Printf.printf "%-12s %-8d %-8d %d\n" "Wrong Code" wrg_b wrg_t (wrg_b + wrg_t);
  Printf.printf "%-12s %-8d %-8d %d\n" "Total" (exc_b + wrg_b) (exc_t + wrg_t)
    (exc_b + wrg_b + exc_t + wrg_t);
  Printf.printf "(paper: Exception 8/9/17, Wrong Code 1/7/8, Total 9/16/25)\n";
  if undetected <> [] then begin
    Printf.printf "\nundetected faults:\n";
    List.iter
      (fun ((m : Sim.Mutation.t), _) ->
        Printf.printf "  %-8s %s\n" m.m_label m.m_desc)
      undetected
  end

let table3 () =
  header "Tbl. 3 — BMv2/P4C bugs (details and campaign status)";
  let results = campaign () in
  Printf.printf "%-9s %-10s %-12s %s\n" "Bug" "Status" "Type" "Description";
  List.iter
    (fun ((m : Sim.Mutation.t), d) ->
      if m.m_target = "BMv2" then
        Printf.printf "%-9s %-10s %-12s %s\n" m.m_label
          (match d with Mutscore.Detected _ -> "Detected" | Mutscore.Undetected -> "Missed")
          (Sim.Mutation.kind_name m.m_kind) m.m_desc)
    results

(* ------------------------------------------------------------------ *)
(* Tbl. 4a: large-program statistics *)

let table4a () =
  header "Tbl. 4a — P4Testgen statistics for large P4 programs";
  Printf.printf "%-26s %-9s %-12s %-9s %s\n" "P4 program" "Arch." "Valid tests" "Time"
    "Stmt. cov.";
  let row name arch src cap =
    let config = { Explore.default_config with Explore.max_tests = cap } in
    let run = generate arch src ~config in
    let r = run.Oracle.result in
    let n = List.length r.Explore.tests in
    let capped = match cap with Some c when n >= c -> true | _ -> false in
    Printf.printf "%-26s %-9s %-12s %-9s %.0f%%\n" name arch
      ((if capped then ">" else "") ^ string_of_int n)
      (Printf.sprintf "%.1fs" r.Explore.total_time)
      (Explore.coverage_pct r)
  in
  row "middleblock (2 ACLs)" "v1model" (Progzoo.Generators.middleblock ~acl_stages:2 ()) None;
  row "up4" "v1model" (Progzoo.Generators.up4 ()) None;
  row "switch (8 stages)" "tna" (Progzoo.Generators.switch_tna ~stages:8 ()) (Some 1000);
  row "switch (8 stages)" "t2na" (Progzoo.Generators.switch_tna ~stages:8 ()) (Some 1000);
  Printf.printf
    "(paper: middleblock ~238k/13h/100%%, up4 ~34k/2h/95%%, switch >1000k/41%% and 30%%;\n\
    \ shape to check: middleblock reaches full coverage, up4 stops short of 100%%\n\
    \ because the unconfigured meter never returns RED, switch is capped with\n\
    \ coverage well below the others)\n"

(* ------------------------------------------------------------------ *)
(* Tbl. 4b: effect of preconditions *)

let table4b () =
  header "Tbl. 4b — preconditions vs number of generated tests (middleblock)";
  let src = Progzoo.Generators.middleblock ~acl_stages:2 () in
  let run_with name constraints fixed =
    let opts =
      {
        Runtime.default_options with
        apply_constraints = constraints;
        fixed_packet_bytes = fixed;
      }
    in
    let run = generate ~opts "v1model" src in
    let r = run.Oracle.result in
    (name, r.Explore.stats.Explore.paths, Explore.coverage_pct r)
  in
  let rows =
    [
      run_with "None" false None;
      run_with "Fixed-size pkt. (1500B)" false (Some 1500);
      run_with "P4-constraints" true None;
      run_with "P4-constraints & fixed-size" true (Some 1500);
    ]
  in
  let base = match rows with (_, n, _) :: _ -> float_of_int n | [] -> 1.0 in
  Printf.printf "%-30s %-18s %-11s %s\n" "Applied precondition" "Valid test paths" "Reduction"
    "Stmt. cov.";
  List.iter
    (fun (name, n, cov) ->
      Printf.printf "%-30s %-18d %-11s %.0f%%\n" name n
        (Printf.sprintf "%.0f%%" (100.0 *. (1.0 -. (float_of_int n /. base))))
        cov)
    rows;
  Printf.printf "(paper: 237846/0%%, 178384/25%%, 135719/43%%, 101789/57%%; all 100%% coverage)\n"

(* ------------------------------------------------------------------ *)
(* Corpus-wide batch generation across domains *)

let batch jobs =
  header (Printf.sprintf "Batch — corpus-wide generation on %d domain(s)" jobs);
  let arch_of = function
    | "ebpf_filter" -> "ebpf_model"
    | "tna_basic" -> "tna"
    | _ -> "v1model"
  in
  let js =
    List.map
      (fun (name, src) -> Oracle.job ~label:name (target_of (arch_of name)) src)
      Progzoo.Corpus.all
  in
  (* the large generated programs carry most of the work; without them
     the corpus is too small for the domain fan-out to pay off *)
  let cap = { Explore.default_config with Explore.max_tests = Some 300 } in
  let big =
    [
      Oracle.job ~label:"middleblock" ~config:cap (target_of "v1model")
        (Progzoo.Generators.middleblock ~acl_stages:2 ());
      Oracle.job ~label:"up4" ~config:cap (target_of "v1model") (Progzoo.Generators.up4 ());
      Oracle.job ~label:"switch4_tna" ~config:cap (target_of "tna")
        (Progzoo.Generators.switch_tna ~stages:4 ());
      Oracle.job ~label:"switch6_tna" ~config:cap (target_of "tna")
        (Progzoo.Generators.switch_tna ~stages:6 ());
    ]
  in
  let b = Oracle.generate_batch ~jobs (big @ js) in
  List.iter
    (fun (label, o) ->
      match o with
      | Oracle.Finished r ->
          Printf.printf "%-20s %5d tests  %6.2fs
" label
            (List.length r.Oracle.result.Explore.tests)
            r.Oracle.result.Explore.total_time
      | Oracle.Failed msg -> Printf.printf "%-20s FAILED: %s
" label msg)
    b.Oracle.outcomes;
  Printf.printf "
%d paths / %d tests across the corpus; wall-clock %.2fs on %d domain(s)
"
    b.Oracle.merged_stats.Explore.paths b.Oracle.merged_stats.Explore.tests
    b.Oracle.batch_wall jobs

(* ------------------------------------------------------------------ *)
(* check: every CI performance gate.  bench/gates.ml holds the gate
   table, the inline baselines and the verdicts; this part runs the
   workloads and hands the measurements to them. *)

let std_drivers () =
  let cap n = { Explore.default_config with Explore.max_tests = Some n } in
  let dflt = Runtime.default_options in
  [
    ("fig1a", "v1model", Progzoo.Corpus.fig1a, dflt, Explore.default_config);
    ("fig1b", "v1model", Progzoo.Corpus.fig1b, dflt, Explore.default_config);
    ( "middleblock_2acl",
      "v1model",
      Progzoo.Generators.middleblock ~acl_stages:2 (),
      dflt,
      cap 400 );
    ("up4", "v1model", Progzoo.Generators.up4 (), dflt, Explore.default_config);
    ("switch6_tna", "tna", Progzoo.Generators.switch_tna ~stages:6 (), dflt, cap 400);
    (* register-dependent 2-packet sequences: exercises cross-packet
       extern-state continuity on the oracle's hot path *)
    ( "register_seq2",
      "v1model",
      Progzoo.Corpus.register_program,
      { dflt with Runtime.seq_packets = 2 },
      Explore.default_config );
  ]

let std_driver name = List.find (fun (d, _, _, _, _) -> d = name) (std_drivers ())

(* Host identification, recorded in every JSON result row: scaling
   numbers from different machines must never be compared silently.
   [host_cores] counts the machine's processors (via /proc/cpuinfo
   where available); [Domain.recommended_domain_count] is what the
   runtime will actually fan out to. *)
let host_cores () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | s ->
      let n =
        List.length
          (List.filter
             (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
             (String.split_on_char '\n' s))
      in
      if n > 0 then n else Domain.recommended_domain_count ()

(* One result row; every gate writes this shape.  [extra] holds the
   gate's own figures and is written first inside "metrics", ahead of
   the run's Obs snapshot [obs] (a JSON object). *)
type row = {
  name : string;
  arch : string;
  total_time : float;
  extra : (string * float) list;
  obs : string;
}

let row_json r =
  let extra = List.map (fun (k, v) -> Printf.sprintf "%S: %.6g" k v) r.extra in
  let obs_fields = String.sub r.obs 1 (String.length r.obs - 2) in
  let fields = List.filter (( <> ) "") (extra @ [ obs_fields ]) in
  Printf.sprintf
    "  {\"name\": %S, \"arch\": %S, \"total_time\": %.6f, \"host_cores\": %d, \
     \"recommended_domains\": %d,\n\
    \   \"metrics\": {%s}}"
    r.name r.arch r.total_time (host_cores ()) (Domain.recommended_domain_count ())
    (String.concat ", " fields)

(* one measured oracle run: its row, its baseline-comparable figures,
   and the run itself *)
let measure ?path_jobs name (driver, arch, src, opts, config) =
  let path_jobs = Option.value path_jobs ~default:config.Explore.path_jobs in
  let w0 = Gc.minor_words () in
  let run = generate ~opts ~config:{ config with Explore.path_jobs } arch src in
  (* Gc.minor_words counts the calling domain only: a whole run's
     allocation only at path-jobs 0 *)
  let extra = if path_jobs = 0 then [ ("minor_words", Gc.minor_words () -. w0) ] else [] in
  let r = run.Oracle.result in
  let snap = Obs.Registry.snapshot (Oracle.registry run) in
  let time = r.Explore.total_time in
  Printf.printf "%-26s %5d tests  %6.2fs\n" name (List.length r.Explore.tests) time;
  ( { name; arch; total_time = time; extra; obs = Obs.Snapshot.to_json snap },
    { Gates.driver; time; checks = Obs.Snapshot.get_int snap "solver.checks" },
    run )

let smoke () =
  let at pj =
    List.map
      (fun d -> measure ~path_jobs:pj (Printf.sprintf "smoke/%s@pj%d" d pj) (std_driver d))
      [ "fig1a"; "fig1b"; "register_seq2" ]
  in
  let pj1 = at 1 in
  let pj4 = at 4 in
  let pj0 = at 0 in
  let rows = List.map (fun (row, _, _) -> row) in
  let words =
    List.map (fun (row, (run : Gates.run), _) -> (run.driver, List.assoc "minor_words" row.extra)) pj0
  in
  ( rows pj1 @ rows pj4 @ rows pj0,
    Gates.smoke (List.map (fun (_, run, _) -> run) pj1) @ Gates.allocation words )

let scaling () =
  let driver = "switch6_tna" in
  let measured =
    List.map
      (fun pj ->
        let name = Printf.sprintf "scaling/%s@pj%d" driver pj in
        let row, run, _ = measure ~path_jobs:pj name (std_driver driver) in
        (pj, row, run.Gates.time))
      [ 1; 2; 4; 8 ]
  in
  Printf.printf "(host reports %d usable core(s); speedup saturates at the hardware)\n"
    (Domain.recommended_domain_count ());
  ( List.map (fun (_, row, _) -> row) measured,
    Gates.scaling ~driver (List.map (fun (pj, _, t) -> (pj, t)) measured) )

(* serve: cold-vs-warm request latency through the daemon.  Every cold
   sample hits an emptied cache (a flush precedes it) and pays
   preparation; warm samples find the prepared oracle cached and skip
   it.  The exploration budget is pinned small so the request latency
   is dominated by what the cache can and cannot save — this measures
   the serving path, not the path-explosion budget. *)

let percentile p samples =
  let sorted = Array.of_list (List.sort compare samples) in
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let serve () =
  let sock = Filename.temp_file "p4tg-bench" ".sock" in
  let ep = Serve.Wire.Unix_sock sock in
  let server =
    Serve.Server.start
      {
        Serve.Server.default_config with
        Serve.Server.endpoint = ep;
        cache_slots = 8;
        workers = 2;
      }
  in
  Fun.protect ~finally:(fun () -> Serve.Server.stop server) @@ fun () ->
  if not (Serve.Client.wait_ready ep) then failwith ("serve daemon did not come up on " ^ sock);
  let rpc rq =
    match Serve.Client.request ep rq with
    | Ok evs -> evs
    | Error msg -> failwith ("serve request failed: " ^ msg)
  in
  let samples = 11 in
  (* programs sized so preparation is the dominant, measurable cost of
     a cold request (a few ms) while the capped exploration stays
     cheap: the quantity the cache saves has to clear scheduling noise *)
  let program acls =
    let name = Printf.sprintf "middleblock_%dacl" acls in
    let rq =
      {
        Serve.Wire.default_request with
        Serve.Wire.rq_arch = "v1model";
        rq_max_tests = Some 1;
        rq_source = Some (Progzoo.Generators.middleblock ~acl_stages:acls ());
      }
    in
    (* one request: latency, server-side prep seconds, Obs snapshot *)
    let sample () =
      let t0 = Obs.Clock.now () in
      let evs = rpc rq in
      let dt = Obs.Clock.now () -. t0 in
      Option.iter
        (fun (kind, msg) -> failwith (Printf.sprintf "%s: server said %s: %s" name kind msg))
        (Serve.Client.find_error evs);
      let summary = Option.value ~default:[] (Serve.Client.find_summary evs) in
      let prep = Option.value ~default:"" (Serve.Client.summary_get summary "prep_seconds") in
      let obs = List.fold_left (fun acc -> function Serve.Wire.Obs j -> j | _ -> acc) "{}" evs in
      (dt, float_of_string prep, obs)
    in
    ignore (sample ());  (* absorb one-off warm-up costs *)
    (* paired sampling: each flush -> cold -> warm triple shares its
       ambient conditions (GC phase, scheduling), so drift hits both
       series alike and the cold-warm gap survives it *)
    let pairs =
      List.init samples (fun _ ->
          ignore (rpc { Serve.Wire.default_request with Serve.Wire.rq_op = Serve.Wire.Flush });
          let cold = sample () in
          (cold, sample ()))
    in
    let lat = List.map (fun (d, _, _) -> d) and prep = List.map (fun (_, p, _) -> p) in
    let cold = List.map fst pairs and warm = List.map snd pairs in
    let cold_prep = percentile 0.50 (prep cold)
    and warm_prep_max = List.fold_left Float.max 0.0 (prep warm) in
    let s =
      {
        Gates.program = name;
        cold_p50 = percentile 0.50 (lat cold);
        warm_p50 = percentile 0.50 (lat warm);
        warm_prep_max;
      }
    in
    Printf.printf "%-20s cold p50 %7.3fms (prep %6.3fms)   warm p50 %7.3fms\n" name
      (1e3 *. s.cold_p50) (1e3 *. cold_prep) (1e3 *. s.warm_p50);
    let row phase series prep_time =
      let _, _, obs = List.nth series (samples - 1) in
      {
        name = Printf.sprintf "serve/%s@%s" name phase;
        arch = "v1model";
        total_time = percentile 0.50 (lat series);
        extra =
          [ ("lat_p95", percentile 0.95 (lat series)); ("prep_time", prep_time);
            ("samples", float_of_int samples) ];
        obs;
      }
    in
    ([ row "cold" cold cold_prep; row "warm" warm warm_prep_max ], s)
  in
  let measured = List.map program [ 128; 400; 800 ] in
  (List.concat_map fst measured, Gates.serve (List.map snd measured))

(* qcache: every std driver with the cache off and on, and on again at
   path-jobs 1 and 4; prints per-driver hit rates *)
let qcache () =
  let tests run = List.map Testgen.Testspec.to_string run.Oracle.result.Explore.tests in
  let metric run k = Obs.Snapshot.get_int (Obs.Registry.snapshot (Oracle.registry run)) k in
  let one ((d, arch, src, opts, config) as drv) =
    let off = generate ~opts ~config:{ config with Explore.query_cache = false } arch src in
    let row, run, on = measure ("qcache/" ^ d) drv in
    let at pj =
      generate ~opts ~config:{ config with Explore.path_jobs = pj; split_tasks = 6 } arch src
    in
    let q =
      {
        Gates.on = run;
        checks_off = metric off "solver.checks";
        same_off_on = tests off = tests on;
        same_pj = tests (at 1) = tests (at 4);
      }
    in
    Printf.printf
      "  %-24s checks %5d -> %5d   hits: model %d, unsat %d, subsumed %d (avoided %d / %d \
       sliced)\n"
      d q.checks_off run.Gates.checks (metric on "qcache.model_hits")
      (metric on "qcache.unsat_hits") (metric on "qcache.subsumed")
      (metric on "qcache.solver_checks_avoided") (metric on "qcache.slices");
    (row, q)
  in
  let measured = List.map one (std_drivers ()) in
  (List.map fst measured, Gates.qcache (List.map snd measured))

(* corpus: the self-validation campaign twice at the same master seed
   and per-case oracle budget, once in corpus mode (persisted to a
   scratch directory) and once pure random *)
let corpus () =
  let module Campaign = Selftest.Campaign in
  let cases = 60 in
  let base =
    { Campaign.default_config with Campaign.cases; seed = 7; jobs = 1; reduce = false }
  in
  let dir = Filename.temp_file "p4tg-bench-corpus" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rm_rf () =
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  let corpus, random =
    Fun.protect ~finally:rm_rf (fun () ->
        let corpus = Campaign.run { base with Campaign.corpus_dir = Some dir } in
        (corpus, Campaign.run base))
  in
  let cc = Campaign.cov_per_1000 corpus and cr = Campaign.cov_per_1000 random in
  let ran = corpus.Campaign.s_ran in
  let hit_rate =
    if ran = 0 then 0.0 else float_of_int corpus.Campaign.s_mutated /. float_of_int ran
  in
  let admits, evictions =
    match corpus.Campaign.s_corpus with
    | Some c -> Selftest.Seedpool.(c.admits, c.evictions)
    | None -> (0, 0)
  in
  let show label s =
    Printf.printf "%s  %s (%.2fs)\n" label (Campaign.summary_line s) s.Campaign.s_wall
  in
  show "corpus mode:" corpus;
  show "pure random:" random;
  let row =
    {
      name = "corpus/campaign";
      arch = "mixed";
      total_time = corpus.Campaign.s_wall;
      extra =
        [
          ("cases", float_of_int cases); ("cov1000_corpus", cc); ("cov1000_random", cr);
          ("hit_rate", hit_rate); ("admits", float_of_int admits);
          ("evictions", float_of_int evictions);
        ];
      obs = Obs.Snapshot.to_json corpus.Campaign.s_obs;
    }
  in
  let failures =
    List.length corpus.Campaign.s_failures + List.length random.Campaign.s_failures
  in
  ([ row ], Gates.corpus ~cov_corpus:cc ~cov_random:cr ~failures)

let run_gate : Gates.gate -> row list * Gates.line list = function
  | Gates.Smoke -> smoke ()
  | Scaling -> scaling ()
  | Serve -> serve ()
  | Qcache -> qcache ()
  | Corpus -> corpus ()

(* Runs the requested gates (all when none is named), each even after
   another failed, prints one verdict table and writes every row to
   [out].  A gate whose workload raises fails with the error as its
   measurement.  Exit status: 0 all passed, 1 a gate failed, 2 usage
   or I/O error. *)
let check args =
  let usage () =
    Printf.eprintf "usage: check [%s]... [--out FILE]\n"
      (String.concat "|" (List.map (fun (e : Gates.entry) -> e.name) Gates.table));
    exit 2
  in
  let rec parse gates out = function
    | "--out" :: file :: rest -> parse gates file rest
    | [] -> ((if gates = [] then Gates.table else List.rev gates), out)
    | name :: rest -> (
        match Gates.find name with Some e -> parse (e :: gates) out rest | None -> usage ())
  in
  let gates, out = parse [] "bench-check.json" args in
  let results =
    List.map
      (fun (e : Gates.entry) ->
        header (Printf.sprintf "Gate %s — %s" e.name e.runs);
        let rows, lines =
          try run_gate e.gate
          with Failure msg | Sys_error msg -> ([], [ Gates.line "error" e.bound false "%s" msg ])
        in
        (e, rows, lines))
      gates
  in
  header "Gate verdicts";
  let print_line gate subject bound measured verdict =
    Printf.printf "%-8s %-20s %-38s %-30s %s\n" gate subject bound measured verdict
  in
  print_line "gate" "subject" "bound" "measured" "verdict";
  List.iter
    (fun ((e : Gates.entry), _, lines) ->
      List.iter
        (fun (l : Gates.line) ->
          print_line e.name l.subject l.bound l.measured (Gates.status_name l.status))
        lines)
    results;
  let rows = List.concat_map (fun (_, rows, _) -> List.map row_json rows) results in
  (try
     Out_channel.with_open_text out (fun oc ->
         Printf.fprintf oc "{\"results\": [\n%s\n]}\n" (String.concat ",\n" rows))
   with Sys_error msg ->
     Printf.eprintf "error: %s\n" msg;
     exit 2);
  Printf.printf "wrote %s\n" out;
  let failed = List.filter (fun (_, _, lines) -> not (Gates.passed lines)) results in
  if failed <> [] then begin
    Printf.printf "FAIL: %s\n"
      (String.concat ", " (List.map (fun ((e : Gates.entry), _, _) -> e.name) failed));
    exit 1
  end;
  Printf.printf "OK: every gate passed\n"

(* ------------------------------------------------------------------ *)

let all () =
  fig1 ();
  tables ();
  table2 ();
  table3 ();
  table4a ();
  table4b ();
  fig7 ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> all ()
  | "fig1" :: _ -> fig1 ()
  | "tables" :: _ -> tables ()
  | "fig7" :: _ -> fig7 ()
  | "table2" :: _ -> table2 ()
  | "table3" :: _ -> table3 ()
  | "table4a" :: _ -> table4a ()
  | "table4b" :: _ -> table4b ()
  | "batch" :: rest -> batch (match rest with j :: _ -> int_of_string j | [] -> 1)
  | "check" :: rest -> check rest
  | other :: _ ->
      Printf.eprintf
        "unknown experiment %s (fig1, tables, fig7, table2, table3, table4a, table4b, \
         batch [jobs], check [gate...] [--out file])\n"
        other;
      exit 1
