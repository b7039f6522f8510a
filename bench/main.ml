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
     dune exec bench/main.exe -- json F [N] [D..]   machine-readable results -> F
                                           (default bench.json; a bare integer N
                                           sets --path-jobs, other args filter
                                           the driver list)
     dune exec bench/main.exe -- compare B [F] [--noise-ms N]  diff two json
                                           files; exit 1 on a >10% wall-clock
                                           regression past the noise floor
                                           (default 50ms) or any solver.checks
                                           increase vs baseline B (warns when
                                           the two hosts differ)
     dune exec bench/main.exe -- qcache [F]  query-cache gate: every driver with
                                           the cache off vs on must emit
                                           bit-identical suites (also pj1 vs
                                           pj4) and spend >=30% fewer solver
                                           checks; cache-on rows -> F
                                           (default BENCH_pr9.json)
     dune exec bench/main.exe -- corpus [F] [N]  coverage-guided-corpus gate:
                                           the selftest campaign at N cases
                                           (default 60) in corpus mode must
                                           beat pure random on coverage per
                                           1000 cases; row -> F
                                           (default BENCH_pr10.json)
     dune exec bench/main.exe -- scaling [D] [F]  wall-clock + speedup per
                                           path-jobs in {1,2,4,8} on driver D
                                           (default middleblock_2acl -> BENCH_pr6.json)
     dune exec bench/main.exe -- gate [F]  parallel-speedup gate over a scaling
                                           document: for every driver doing real
                                           work, path-jobs 4 must not be slower
                                           than path-jobs 1 (50ms noise floor)

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
    (* emission includes its own solver calls; attribute them to the
       solver bucket and keep buckets disjoint *)
    let emit_pure = max 0.0 (emit -. emit_solve) in
    let other = max 0.0 (total -. prep -. step -. solve -. emit_pure) in
    let pct x = 100.0 *. x /. total in
    Printf.printf "%-24s %6d tests  %6.2fs total\n" name
      (List.length result.Explore.tests) total;
    Printf.printf "    IR preparation     %5.1f%%\n" (pct prep);
    Printf.printf "    symbolic stepping  %5.1f%%\n" (pct step);
    Printf.printf "    SMT solving        %5.1f%%   (the paper reports < 10%% for Z3)\n"
      (pct solve);
    Printf.printf "    test emission      %5.1f%%\n" (pct emit_pure);
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
(* Machine-readable results: one JSON document over the standard
   drivers, for plotting / regression tracking outside the repo *)

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

(* one measured oracle run, printed and rendered as a JSON object;
   shared by [json] and [scaling] *)
let json_row name arch src opts config =
  let run = generate ~opts ~config arch src in
  let r = run.Oracle.result in
  Printf.printf "%-20s %5d tests  %6.2fs\n" name (List.length r.Explore.tests)
    r.Explore.total_time;
  ( Printf.sprintf
      "  {\"name\": %S, \"arch\": %S, \"tests\": %d, \"paths\": %d, \
       \"coverage_pct\": %.2f, \"prep_time\": %.6f, \"total_time\": %.6f, \
       \"solve_time\": %.6f, \"host_cores\": %d, \"recommended_domains\": %d,\n\
      \   \"metrics\": %s}"
      name arch
      (List.length r.Explore.tests)
      r.Explore.stats.Explore.paths (Explore.coverage_pct r)
      run.Oracle.prepared.Oracle.prep_time r.Explore.total_time r.Explore.solve_time
      (host_cores ())
      (Domain.recommended_domain_count ())
      (Obs.Snapshot.to_json (Obs.Registry.snapshot (Oracle.registry run))),
    r.Explore.total_time,
    run )

let write_bench_doc out rows =
  Out_channel.with_open_text out (fun oc ->
      Printf.fprintf oc "{\"results\": [\n%s\n]}\n" (String.concat ",\n" rows));
  Printf.printf "wrote %s\n" out

let json ?(only = []) ?(path_jobs = 0) out =
  header
    (if path_jobs > 0 then
       Printf.sprintf "JSON results (path-jobs %d) -> %s" path_jobs out
     else Printf.sprintf "JSON results -> %s" out);
  let drivers = std_drivers () in
  let drivers =
    match only with
    | [] -> drivers
    | names ->
        List.iter
          (fun n ->
            if not (List.exists (fun (d, _, _, _, _) -> d = n) drivers) then begin
              Printf.eprintf "unknown driver %s (have: %s)\n" n
                (String.concat ", " (List.map (fun (d, _, _, _, _) -> d) drivers));
              exit 1
            end)
          names;
        List.filter (fun (d, _, _, _, _) -> List.mem d names) drivers
  in
  let row (name, arch, src, opts, config) =
    let r, _, _ = json_row name arch src opts { config with Explore.path_jobs } in
    r
  in
  write_bench_doc out (List.map row drivers)

(* ------------------------------------------------------------------ *)
(* scaling: wall-clock per path-jobs value on one driver, written in
   the same JSON document shape so [compare] can gate it *)

let scaling driver out =
  header (Printf.sprintf "Scaling — %s at path-jobs {1,2,4,8} -> %s" driver out);
  match List.find_opt (fun (d, _, _, _, _) -> d = driver) (std_drivers ()) with
  | None ->
      Printf.eprintf "unknown driver %s (have: %s)\n" driver
        (String.concat ", " (List.map (fun (d, _, _, _, _) -> d) (std_drivers ())));
      exit 1
  | Some (name, arch, src, opts, config) ->
      let measured =
        List.map
          (fun pj ->
            let row, total, _ =
              json_row
                (Printf.sprintf "%s@pj%d" name pj)
                arch src opts
                { config with Explore.path_jobs = pj }
            in
            (pj, row, total))
          [ 1; 2; 4; 8 ]
      in
      hr ();
      let base = match measured with (_, _, t) :: _ -> t | [] -> 1.0 in
      List.iter
        (fun (pj, _, t) ->
          Printf.printf "path-jobs %d: %8.3fs   speedup x%.2f\n" pj t (base /. t))
        measured;
      Printf.printf
        "(host reports %d usable core(s); speedup saturates at the hardware)\n"
        (Domain.recommended_domain_count ());
      write_bench_doc out (List.map (fun (_, row, _) -> row) measured)

(* ------------------------------------------------------------------ *)
(* qcache: the query-cache acceptance gate.  Runs every std driver
   with the cache off and on, asserts the emitted suites are
   bit-identical (and identical again at path-jobs 1 vs 4 with the
   cache on), requires an aggregate solver.checks drop of at least
   30%, prints per-driver hit rates, and writes the cache-on rows as
   a bench JSON document for [compare] to gate in CI. *)

let qcache out =
  header (Printf.sprintf "Query-cache gate — off vs on, bit-identity, checks -> %s" out);
  let drivers = std_drivers () in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let tests run =
    List.map Testgen.Testspec.to_string run.Oracle.result.Explore.tests
  in
  let metric run k =
    Obs.Snapshot.get_int (Obs.Registry.snapshot (Oracle.registry run)) k
  in
  let total_off = ref 0 and total_on = ref 0 in
  let rows =
    List.map
      (fun (name, arch, src, opts, config) ->
        let off =
          generate ~opts ~config:{ config with Explore.query_cache = false } arch src
        in
        let row, _, on = json_row name arch src opts config in
        let pj eng_pj =
          generate ~opts
            ~config:{ config with Explore.path_jobs = eng_pj; split_tasks = 6 }
            arch src
        in
        let on1 = pj 1 and on4 = pj 4 in
        if tests off <> tests on then
          fail "%s: cache-on suite differs from cache-off" name;
        if tests on1 <> tests on4 then
          fail "%s: path-jobs 1 and 4 suites differ with the cache on" name;
        let coff = metric off "solver.checks" and con = metric on "solver.checks" in
        total_off := !total_off + coff;
        total_on := !total_on + con;
        let avoided = metric on "qcache.solver_checks_avoided" in
        let slices = metric on "qcache.slices" in
        Printf.printf
          "  %-18s checks %5d -> %5d   hits: model %d, unsat %d, subsumed %d \
           (avoided %d / %d sliced)\n"
          name coff con
          (metric on "qcache.model_hits")
          (metric on "qcache.unsat_hits")
          (metric on "qcache.subsumed")
          avoided slices;
        row)
      drivers
  in
  hr ();
  let drop =
    if !total_off > 0 then
      100.0 *. float_of_int (!total_off - !total_on) /. float_of_int !total_off
    else 0.0
  in
  Printf.printf "solver.checks total: %d (cache off) -> %d (cache on), drop %.1f%%\n"
    !total_off !total_on drop;
  if drop < 30.0 then
    fail "aggregate solver.checks drop %.1f%% is below the 30%% gate" drop;
  write_bench_doc out rows;
  match List.rev !failures with
  | [] -> Printf.printf "OK: suites bit-identical, checks drop >= 30%%\n"
  | fs ->
      List.iter (fun m -> Printf.printf "FAIL: %s\n" m) fs;
      exit 1

(* ------------------------------------------------------------------ *)
(* compare: diff two bench JSON documents (as written by [json]) and
   fail on wall-clock regressions, for use as a CI gate *)

(* minimal recursive-descent JSON reader — enough for the documents
   this harness itself writes, so no external dependency is needed *)
module Json_read = struct
  type v =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of v list
    | Obj of (string * v) list

  exception Bad of string

  let parse (s : string) : v =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else '\000' in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        incr pos
      done
    in
    let expect c =
      if peek () = c then incr pos
      else raise (Bad (Printf.sprintf "expected %c at offset %d" c !pos))
    in
    let lit word value =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        value
      end
      else raise (Bad (Printf.sprintf "bad literal at offset %d" !pos))
    in
    let string_ () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then raise (Bad "unterminated string");
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            (match peek () with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'u' ->
                (* the writer only emits \u for control chars; decode
                   the low byte and drop the high one *)
                let h = String.sub s (!pos + 1) 4 in
                Buffer.add_char buf (Char.chr (int_of_string ("0x" ^ h) land 0xff));
                pos := !pos + 4
            | c -> raise (Bad (Printf.sprintf "bad escape \\%c" c)));
            incr pos;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let number () =
      let start = !pos in
      while
        !pos < n
        && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      do
        incr pos
      done;
      float_of_string (String.sub s start (!pos - start))
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | '{' ->
          incr pos;
          skip_ws ();
          if peek () = '}' then begin incr pos; Obj [] end
          else
            let rec members acc =
              skip_ws ();
              let k = string_ () in
              skip_ws ();
              expect ':';
              let v = value () in
              skip_ws ();
              match peek () with
              | ',' ->
                  incr pos;
                  members ((k, v) :: acc)
              | '}' ->
                  incr pos;
                  Obj (List.rev ((k, v) :: acc))
              | c -> raise (Bad (Printf.sprintf "expected , or } but saw %c" c))
            in
            members []
      | '[' ->
          incr pos;
          skip_ws ();
          if peek () = ']' then begin incr pos; Arr [] end
          else
            let rec elements acc =
              let v = value () in
              skip_ws ();
              match peek () with
              | ',' ->
                  incr pos;
                  elements (v :: acc)
              | ']' ->
                  incr pos;
                  Arr (List.rev (v :: acc))
              | c -> raise (Bad (Printf.sprintf "expected , or ] but saw %c" c))
            in
            elements []
      | '"' -> Str (string_ ())
      | 't' -> lit "true" (Bool true)
      | 'f' -> lit "false" (Bool false)
      | 'n' -> lit "null" Null
      | _ -> Num (number ())
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then raise (Bad (Printf.sprintf "trailing garbage at offset %d" !pos));
    v

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

  let num = function Some (Num f) -> Some f | _ -> None

  let str = function Some (Str s) -> Some s | _ -> None
end

(* one bench-result row, reduced to what the gate compares *)
type bench_row = {
  br_name : string;
  br_total : float; (* total_time, seconds *)
  br_solve : float; (* solve_time, seconds *)
  br_conflicts : float; (* sat.conflicts counter *)
  br_checks : float; (* solver.checks counter (0 = not recorded) *)
  br_cores : int; (* host_cores of the recording machine (0 = unknown) *)
  br_domains : int; (* recommended_domain_count there (0 = unknown) *)
}

let load_bench file : bench_row list =
  let doc =
    try Json_read.parse (In_channel.with_open_text file In_channel.input_all) with
    | Sys_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2
    | Json_read.Bad msg ->
        Printf.eprintf "error: %s: malformed JSON (%s)\n" file msg;
        exit 2
  in
  match Json_read.member "results" doc with
  | Some (Json_read.Arr rows) ->
      List.filter_map
        (fun row ->
          match Json_read.(str (member "name" row)) with
          | None -> None
          | Some name ->
              let f k = Option.value ~default:0.0 Json_read.(num (member k row)) in
              let metric k =
                match Json_read.member "metrics" row with
                | Some m -> Option.value ~default:0.0 Json_read.(num (member k m))
                | None -> 0.0
              in
              Some
                {
                  br_name = name;
                  br_total = f "total_time";
                  br_solve = f "solve_time";
                  br_conflicts = metric "sat.conflicts";
                  br_checks = metric "solver.checks";
                  br_cores = int_of_float (f "host_cores");
                  br_domains = int_of_float (f "recommended_domains");
                })
        rows
  | _ ->
      Printf.eprintf "error: %s has no \"results\" array\n" file;
      exit 2

(* the (cores, recommended domains) pair a document was recorded on;
   rows of one document always agree, so the first row speaks for it *)
let doc_host rows =
  match rows with [] -> None | r :: _ -> Some (r.br_cores, r.br_domains)

let warn_host_mismatch baseline base current cur =
  match (doc_host base, doc_host cur) with
  | Some ((bc, bd) as h1), Some h2 when h1 <> h2 && h1 <> (0, 0) && h2 <> (0, 0) ->
      let cc, cd = h2 in
      Printf.printf
        "WARNING: hosts differ — %s was recorded on %d core(s) (%d domains), %s on %d \
         core(s) (%d domains); wall-clock deltas are not comparable\n"
        baseline bc bd current cc cd
  | _ -> ()

let compare_benches ?(noise_ms = 50.0) baseline current =
  header (Printf.sprintf "Compare — %s (baseline) vs %s" baseline current);
  let base = load_bench baseline and cur = load_bench current in
  warn_host_mismatch baseline base current cur;
  let pct old now = if old > 0.0 then 100.0 *. (now -. old) /. old else 0.0 in
  let regression_limit = 10.0 in
  (* percentages on sub-millisecond drivers are timer noise; only gate a
     driver when it also lost a perceptible amount of absolute time
     ([--noise-ms], default 50ms) *)
  let noise_floor = noise_ms /. 1000.0 in
  let regressed = ref [] in
  Printf.printf "%-20s %10s %10s %8s   %10s %10s %8s\n" "driver" "base s" "cur s" "Δtime"
    "base cfl" "cur cfl" "Δcfl";
  let matched =
    List.filter_map
      (fun b ->
        match List.find_opt (fun c -> c.br_name = b.br_name) cur with
        | None ->
            Printf.printf "%-20s %10.3f %10s (driver missing from %s)\n" b.br_name
              b.br_total "-" current;
            None
        | Some c -> Some (b, c))
      base
  in
  List.iter
    (fun (b, c) ->
      let dt = pct b.br_total c.br_total in
      let dc = pct b.br_conflicts c.br_conflicts in
      let bad = dt > regression_limit && c.br_total -. b.br_total > noise_floor in
      (* solver.checks is deterministic per driver (no timer noise), so
         any increase over the recorded baseline means the query cache
         or the exploration lost ground — gate with a 2% slack only for
         rows recorded before the counter existed (0 = not recorded) *)
      let bad_checks =
        b.br_checks > 0.0 && c.br_checks > b.br_checks *. 1.02
      in
      if bad then regressed := b.br_name :: !regressed;
      if bad_checks then regressed := (b.br_name ^ " (solver.checks)") :: !regressed;
      Printf.printf "%-20s %10.3f %10.3f %+7.1f%%   %10.0f %10.0f %+7.1f%%%s%s\n"
        b.br_name b.br_total c.br_total dt b.br_conflicts c.br_conflicts dc
        (if bad then "  REGRESSION" else "")
        (if bad_checks then
           Printf.sprintf "  CHECKS %.0f->%.0f" b.br_checks c.br_checks
         else ""))
    matched;
  List.iter
    (fun c ->
      if not (List.exists (fun b -> b.br_name = c.br_name) base) then
        Printf.printf "%-20s %10s %10.3f (driver new since baseline)\n" c.br_name "-"
          c.br_total)
    cur;
  let sum f rows = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let bt = sum (fun (b, _) -> b.br_total) matched
  and ct = sum (fun (_, c) -> c.br_total) matched in
  let bs = sum (fun (b, _) -> b.br_solve) matched
  and cs = sum (fun (_, c) -> c.br_solve) matched in
  hr ();
  Printf.printf "total wall-clock  %10.3f -> %10.3f  (%+.1f%%)\n" bt ct (pct bt ct);
  Printf.printf "total solve time  %10.3f -> %10.3f  (%+.1f%%)\n" bs cs (pct bs cs);
  let total_regressed = pct bt ct > regression_limit && ct -. bt > noise_floor in
  if total_regressed && not (List.mem "TOTAL" !regressed) then
    regressed := "TOTAL" :: !regressed;
  if !regressed <> [] then begin
    Printf.printf "\nFAIL: regression (wall-clock > %.0f%% or solver.checks up) in: %s\n"
      regression_limit
      (String.concat ", " (List.rev !regressed));
    exit 1
  end
  else
    Printf.printf "\nOK: no driver regressed (wall-clock limit %.0f%%, noise floor %.0fms)\n"
      regression_limit noise_ms

(* ------------------------------------------------------------------ *)
(* gate: the parallel-speedup CI check over one scaling document
   (rows named driver@pjN, as [scaling] writes them).  For every
   driver whose sequential run does a minimum amount of work,
   path-jobs 4 must not be slower than path-jobs 1 beyond a noise
   floor — parallel exploration has to pay for itself or get out of
   the way.  Drivers below the work threshold are reported but not
   gated: their wall-clock is all fixed cost and timer noise. *)

let gate_bench file =
  header (Printf.sprintf "Gate — pj4 <= pj1 over %s" file);
  let rows = load_bench file in
  (* "driver@pjN" -> (driver, N) *)
  let split_pj name =
    match String.index_opt name '@' with
    | Some i
      when i + 3 <= String.length name && String.sub name (i + 1) 2 = "pj" ->
        int_of_string_opt (String.sub name (i + 3) (String.length name - i - 3))
        |> Option.map (fun pj -> (String.sub name 0 i, pj))
    | _ -> None
  in
  let by_pj =
    List.filter_map
      (fun r -> Option.map (fun (d, pj) -> (d, pj, r.br_total)) (split_pj r.br_name))
      rows
  in
  let drivers =
    List.sort_uniq compare (List.map (fun (d, _, _) -> d) by_pj)
  in
  if drivers = [] then begin
    Printf.eprintf
      "error: %s has no driver@pjN rows (run `bench scaling` to produce one)\n" file;
    exit 2
  end;
  (match doc_host rows with
  | Some (c, d) when (c, d) <> (0, 0) ->
      Printf.printf "recorded on %d core(s), %d recommended domain(s)\n" c d
  | _ -> ());
  let min_work = 0.2 (* s: below this, the run is fixed cost, not scaling *) in
  let noise_floor = 0.05 (* s: scheduler jitter allowance *) in
  let failed = ref [] in
  List.iter
    (fun d ->
      let t pj =
        List.find_map (fun (d', pj', t) -> if d' = d && pj' = pj then Some t else None) by_pj
      in
      match (t 1, t 4) with
      | Some t1, Some t4 ->
          let verdict =
            if t1 <= min_work then "skipped (below min-work threshold)"
            else if t4 <= t1 +. noise_floor then "ok"
            else begin
              failed := d :: !failed;
              "FAIL"
            end
          in
          Printf.printf "%-20s pj1 %8.3fs   pj4 %8.3fs   %s\n" d t1 t4 verdict
      | _ -> Printf.printf "%-20s (missing pj1 or pj4 row; not gated)\n" d)
    drivers;
  if !failed <> [] then begin
    Printf.printf "\nFAIL: path-jobs 4 slower than path-jobs 1 on: %s\n"
      (String.concat ", " (List.rev !failed));
    exit 1
  end
  else Printf.printf "\nOK: parallel exploration is never slower than sequential\n"

(* ------------------------------------------------------------------ *)
(* serve: cold-vs-warm request latency through the daemon.  Every cold
   sample hits an emptied cache (a flush precedes it) and pays
   preparation; warm samples find the prepared oracle cached and skip
   it.  The exploration budget is pinned small so the request latency
   is dominated by what the cache can and cannot save — this measures
   the serving path, not the path-explosion budget.  The run gates
   itself: warm p50 strictly below cold p50 on every driver, and every
   warm response reporting zero preparation time. *)

let percentile sorted_asc p =
  match sorted_asc with
  | [] -> 0.0
  | l ->
      let n = List.length l in
      let idx = int_of_float (ceil (p *. float_of_int n)) - 1 in
      List.nth l (max 0 (min (n - 1) idx))

(* programs sized so preparation is the dominant, measurable cost of a
   cold request (a few ms) while the capped exploration stays cheap:
   the quantity the cache saves has to clear scheduling noise *)
let serve_drivers () =
  [
    ( "middleblock_128acl",
      "v1model",
      Progzoo.Generators.middleblock ~acl_stages:128 () );
    ( "middleblock_400acl",
      "v1model",
      Progzoo.Generators.middleblock ~acl_stages:400 () );
    ( "middleblock_800acl",
      "v1model",
      Progzoo.Generators.middleblock ~acl_stages:800 () );
  ]

let serve_bench out =
  header (Printf.sprintf "Serve — cold vs warm request latency -> %s" out);
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
  if not (Serve.Client.wait_ready ep) then begin
    Printf.eprintf "error: serve daemon did not come up on %s\n" sock;
    exit 2
  end;
  let rpc rq =
    match Serve.Client.request ep rq with
    | Ok evs -> evs
    | Error msg ->
        Printf.eprintf "error: serve request failed: %s\n" msg;
        Serve.Server.stop server;
        exit 2
  in
  let flush () =
    ignore (rpc { Serve.Wire.default_request with Serve.Wire.rq_op = Serve.Wire.Flush })
  in
  let cold_samples = 11 in
  let warm_samples = cold_samples in
  let failed = ref [] in
  let rows =
    List.concat_map
      (fun (name, arch, src) ->
        let rq =
          {
            Serve.Wire.default_request with
            Serve.Wire.rq_arch = arch;
            rq_max_tests = Some 1;
            rq_source = Some src;
          }
        in
        let sample () =
          let t0 = Obs.Clock.now () in
          let evs = rpc rq in
          let dt = Obs.Clock.now () -. t0 in
          let summary = Option.value ~default:[] (Serve.Client.find_summary evs) in
          let get k = Option.value ~default:"" (Serve.Client.summary_get summary k) in
          (match Serve.Client.find_error evs with
          | Some (kind, msg) ->
              Printf.eprintf "error: %s: server said %s: %s\n" name kind msg;
              Serve.Server.stop server;
              exit 2
          | None -> ());
          (dt, float_of_string (get "prep_seconds"), get "tests", evs)
        in
        ignore (sample ());  (* absorb one-off warm-up costs *)
        (* paired sampling: each flush -> cold -> warm triple shares its
           ambient conditions (GC phase, scheduling), so drift hits both
           series alike and the cold-warm gap survives it *)
        let pairs =
          List.init cold_samples (fun _ ->
              flush ();
              let c = sample () in
              let w = sample () in
              (c, w))
        in
        let cold = List.map fst pairs and warm = List.map snd pairs in
        let lat s = List.sort compare (List.map (fun (d, _, _, _) -> d) s) in
        let cold_lat = lat cold and warm_lat = lat warm in
        let cold_p50 = percentile cold_lat 0.50
        and cold_p95 = percentile cold_lat 0.95
        and warm_p50 = percentile warm_lat 0.50
        and warm_p95 = percentile warm_lat 0.95 in
        let cold_prep =
          percentile (List.sort compare (List.map (fun (_, p, _, _) -> p) cold)) 0.50
        in
        let warm_prep_max =
          List.fold_left (fun acc (_, p, _, _) -> Float.max acc p) 0.0 warm
        in
        let tests = match cold with (_, _, t, _) :: _ -> t | [] -> "0" in
        let verdict =
          if warm_p50 < cold_p50 && warm_prep_max = 0.0 then "ok"
          else begin
            failed := name :: !failed;
            "FAIL"
          end
        in
        Printf.printf
          "%-20s cold p50 %7.3fms p95 %7.3fms (prep %6.3fms)   warm p50 %7.3fms \
           p95 %7.3fms   %s\n"
          name (1e3 *. cold_p50) (1e3 *. cold_p95) (1e3 *. cold_prep)
          (1e3 *. warm_p50) (1e3 *. warm_p95) verdict;
        let obs_of evs =
          List.fold_left
            (fun acc ev -> match ev with Serve.Wire.Obs j -> j | _ -> acc)
            "{}" evs
        in
        let row phase p50 p95 prep evs =
          Printf.sprintf
            "  {\"name\": \"%s@%s\", \"arch\": %S, \"tests\": %s, \"samples\": %d, \
             \"total_time\": %.6f, \"lat_p95\": %.6f, \"prep_time\": %.6f, \
             \"host_cores\": %d, \"recommended_domains\": %d,\n\
            \   \"metrics\": %s}"
            name phase arch tests
            (if phase = "cold" then cold_samples else warm_samples)
            p50 p95 prep (host_cores ())
            (Domain.recommended_domain_count ())
            (obs_of evs)
        in
        let last l = List.nth l (List.length l - 1) in
        let (_, _, _, cold_evs) = last cold and (_, _, _, warm_evs) = last warm in
        [
          row "cold" cold_p50 cold_p95 cold_prep cold_evs;
          row "warm" warm_p50 warm_p95 warm_prep_max warm_evs;
        ])
      (serve_drivers ())
  in
  Serve.Server.stop server;
  write_bench_doc out rows;
  if !failed <> [] then begin
    Printf.printf
      "\nFAIL: warm requests not measurably cheaper than cold on: %s\n"
      (String.concat ", " (List.rev !failed));
    exit 1
  end
  else
    Printf.printf
      "\nOK: warm requests skip preparation on every driver (warm p50 < cold \
       p50, warm prep = 0)\n"

(* ------------------------------------------------------------------ *)
(* corpus: the coverage-guided-corpus acceptance gate.  Runs the
   self-validation campaign twice at the same master seed and per-case
   oracle budget — once in corpus mode (corpus persisted to a scratch
   directory) and once pure-random — and requires corpus mode to reach
   strictly higher oracle-code coverage per 1000 cases.  Emits one
   bench JSON row with both coverage figures and the corpus hit rate
   (fraction of evaluated cases derived by mutation). *)

let corpus_bench ?(cases = 60) out =
  header
    (Printf.sprintf "Corpus gate — corpus vs pure-random at %d cases -> %s" cases out);
  let module Campaign = Selftest.Campaign in
  let module Corpus = Selftest.Corpus in
  let base =
    {
      Campaign.default_config with
      Campaign.cases;
      seed = 7;
      jobs = 1;
      reduce = false;
    }
  in
  let scratch =
    let f = Filename.temp_file "p4tg-bench-corpus" "" in
    Sys.remove f;
    Sys.mkdir f 0o755;
    f
  in
  let rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  Fun.protect
    ~finally:(fun () -> rm_rf scratch)
    (fun () ->
      let corpus = Campaign.run { base with Campaign.corpus_dir = Some scratch } in
      let random = Campaign.run base in
      let cc = Campaign.cov_per_1000 corpus and cr = Campaign.cov_per_1000 random in
      let hit_rate =
        if corpus.Campaign.s_ran = 0 then 0.0
        else float_of_int corpus.Campaign.s_mutated /. float_of_int corpus.Campaign.s_ran
      in
      let csize, admits, evictions =
        match corpus.Campaign.s_corpus with
        | Some c -> (Corpus.size c, c.Corpus.admits, c.Corpus.evictions)
        | None -> (0, 0, 0)
      in
      Printf.printf "corpus mode:  %s (%.2fs)\n" (Campaign.summary_line corpus)
        corpus.Campaign.s_wall;
      Printf.printf "pure random:  %s (%.2fs)\n" (Campaign.summary_line random)
        random.Campaign.s_wall;
      hr ();
      Printf.printf
        "cov/1000: corpus %.1f vs random %.1f   corpus hit rate %.2f (%d mutated / %d \
         ran)\n"
        cc cr hit_rate corpus.Campaign.s_mutated corpus.Campaign.s_ran;
      let row =
        Printf.sprintf
          "  {\"name\": \"corpus_campaign\", \"arch\": \"mixed\", \"cases\": %d, \
           \"tests\": %d, \"cov1000_corpus\": %.1f, \"cov1000_random\": %.1f, \
           \"corpus_hit_rate\": %.4f, \"corpus_size\": %d, \"admits\": %d, \
           \"evictions\": %d, \"total_time\": %.6f, \"host_cores\": %d, \
           \"recommended_domains\": %d,\n\
          \   \"metrics\": %s}"
          cases corpus.Campaign.s_tests cc cr hit_rate csize admits evictions
          corpus.Campaign.s_wall (host_cores ())
          (Domain.recommended_domain_count ())
          (Obs.Snapshot.to_json corpus.Campaign.s_obs)
      in
      write_bench_doc out [ row ];
      if corpus.Campaign.s_failures <> [] || random.Campaign.s_failures <> [] then begin
        Printf.printf "FAIL: campaign reported differential failures\n";
        exit 1
      end;
      if cc > cr then
        Printf.printf "OK: corpus mode beats pure random (%.1f > %.1f cov/1000)\n" cc cr
      else begin
        Printf.printf
          "FAIL: corpus mode does not beat pure random (%.1f vs %.1f cov/1000)\n" cc cr;
        exit 1
      end)

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
  match if Array.length Sys.argv > 1 then Some Sys.argv.(1) else None with
  | None -> all ()
  | Some "fig1" -> fig1 ()
  | Some "tables" -> tables ()
  | Some "fig7" -> fig7 ()
  | Some "table2" -> table2 ()
  | Some "table3" -> table3 ()
  | Some "table4a" -> table4a ()
  | Some "table4b" -> table4b ()
  | Some "batch" ->
      let jobs =
        if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 1
      in
      batch jobs
  | Some "json" ->
      let out = if Array.length Sys.argv > 2 then Sys.argv.(2) else "bench.json" in
      (* among the trailing args, a bare integer sets path-jobs and
         everything else filters the driver list *)
      let rest =
        Array.to_list (Array.sub Sys.argv 3 (max 0 (Array.length Sys.argv - 3)))
      in
      let is_int a = a <> "" && String.for_all (fun c -> c >= '0' && c <= '9') a in
      let path_jobs =
        List.fold_left (fun acc a -> if is_int a then int_of_string a else acc) 0 rest
      in
      let only = List.filter (fun a -> not (is_int a)) rest in
      json ~only ~path_jobs out
  | Some "compare" ->
      (* positional: baseline [current]; flag: --noise-ms N anywhere *)
      let rest =
        Array.to_list (Array.sub Sys.argv 2 (max 0 (Array.length Sys.argv - 2)))
      in
      let rec split_flags pos noise = function
        | "--noise-ms" :: v :: tl -> (
            match float_of_string_opt v with
            | Some n when n >= 0.0 -> split_flags pos n tl
            | _ ->
                Printf.eprintf "error: --noise-ms expects a non-negative number\n";
                exit 2)
        | a :: tl -> split_flags (a :: pos) noise tl
        | [] -> (List.rev pos, noise)
      in
      let pos, noise_ms = split_flags [] 50.0 rest in
      (match pos with
      | baseline :: rest ->
          let current = match rest with c :: _ -> c | [] -> "bench.json" in
          compare_benches ~noise_ms baseline current
      | [] ->
          Printf.eprintf
            "usage: compare baseline.json [current.json] [--noise-ms N]\n";
          exit 2)
  | Some "qcache" ->
      let out =
        if Array.length Sys.argv > 2 then Sys.argv.(2) else "BENCH_pr9.json"
      in
      qcache out
  | Some "scaling" ->
      let driver =
        if Array.length Sys.argv > 2 then Sys.argv.(2) else "middleblock_2acl"
      in
      let out = if Array.length Sys.argv > 3 then Sys.argv.(3) else "BENCH_pr6.json" in
      scaling driver out
  | Some "gate" ->
      let file =
        if Array.length Sys.argv > 2 then Sys.argv.(2) else "BENCH_pr6.json"
      in
      gate_bench file
  | Some "corpus" ->
      let out =
        if Array.length Sys.argv > 2 then Sys.argv.(2) else "BENCH_pr10.json"
      in
      let cases =
        if Array.length Sys.argv > 3 then int_of_string Sys.argv.(3) else 60
      in
      corpus_bench ~cases out
  | Some "serve" ->
      let out =
        if Array.length Sys.argv > 2 then Sys.argv.(2) else "BENCH_pr8.json"
      in
      serve_bench out
  | Some other ->
      Printf.eprintf
        "unknown experiment %s (fig1, tables, fig7, table2, table3, table4a, table4b, \
         batch [jobs], json [out.json] [path-jobs] [drivers...], compare baseline.json \
         [current.json] [--noise-ms N], scaling [driver] [out.json], gate [scaling.json], \
         serve [out.json], qcache [out.json], corpus [out.json] [cases])\n"
        other;
      exit 1
