(* The repository benchmark: one workload per run, end-to-end metrics
   untraced (--trace 0) or per-layer metrics traced (--trace 1).

     main.exe --workload tbl4a_suite|random_programs|serve_mix
              --seed N --seconds S --trace 0|1

   Human-readable lines go first; the last line of standard output is
   one JSON object {"correct", "attempted", "failed", "metrics"}.  The
   exit code is non-zero when an output failed its check. *)

open Perfbench
open Workloads

let usage () =
  prerr_endline
    "usage: main.exe --workload tbl4a_suite|random_programs|serve_mix --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when secs > 0.0 -> (w, s, secs, t)
  | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* Host *)

(* the first line a shell command prints, "unknown" when it prints none *)
let first_line cmd =
  match Unix.open_process_in cmd with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
      let line = try String.trim (input_line ic) with End_of_file -> "unknown" in
      ignore (Unix.close_process_in ic);
      line

(* the commit of the checkout's own .git; a source tree without git
   metadata has none to report *)
let commit () = first_line "GIT_DIR=.git git rev-parse HEAD 2>/dev/null"

let host () =
  Printf.sprintf "nproc %s, recommended domains %d, OCaml %s, commit %s"
    (first_line "nproc 2>/dev/null") (Domain.recommended_domain_count ()) Sys.ocaml_version
    (commit ())

(* ------------------------------------------------------------------ *)
(* End-to-end metrics *)

(* the measured units in repetitions (passes, rounds of random
   programs); a last round cut short by the deadline is left out, since
   its programs are not a sample of the whole draw *)
let repetitions units =
  let reps = List.sort_uniq compare (List.map (fun u -> u.rep) units) in
  let groups = List.map (fun r -> List.filter (fun u -> u.rep = r) units) reps in
  match List.rev groups with
  | last :: (prev :: _ as rest) when List.length last < List.length prev -> List.rev rest
  | _ -> groups

(* a timing over repetitions: the median of its value in each, or its
   value over the whole run when the outcome is pooled *)
let per_rep groups f = Stats.median (List.map f groups)
let rate groups f = per_rep groups (fun g -> float_of_int (sum f g) /. sumf (fun u -> u.time) g)

let latency_lines name xs =
  let n = List.length xs in
  let rule =
    match Stats.tail_percentile n with
    | Some p -> Printf.sprintf "highest percentile with >= 10 samples beyond: p%g" (100.0 *. p)
    | None -> "fewer than 10 samples beyond any reported percentile"
  in
  Printf.printf "  %s latency: %d samples (%s)\n" name n rule

let end_to_end (o : outcome) =
  let units = o.units in
  let groups = if o.pooled then [ List.concat (repetitions units) ] else repetitions units in
  let samples = List.concat_map (fun u -> u.samples) (List.concat groups) in
  let cold s = s.cold_latency and warm s = s.warm_latency in
  latency_lines "cold" (List.filter_map cold samples);
  latency_lines "warm" (List.filter_map warm samples);
  (* p50: the median over repetitions; p90: over every sample of the
     repetitions, which is what its ten-samples-beyond rule counts *)
  let p50 which =
    List.filter_map
      (fun g ->
        match List.filter_map which (List.concat_map (fun u -> u.samples) g) with
        | [] -> None
        | xs -> Some (Stats.percentile xs 0.5))
      groups
    |> Stats.median |> ( *. ) 1e3
  and p90 which = 1e3 *. Stats.percentile (List.filter_map which samples) 0.9 in
  let generate_s =
    per_rep groups (fun g -> sumf (fun u -> u.generate) g /. float_of_int (sum (fun u -> u.inputs) g))
  in
  let programs_per_s = rate groups (fun u -> u.programs) in
  let all = units @ o.checks @ List.map snd o.twins in
  let attempted = sum (fun u -> u.attempted) all and failed = sum (fun u -> u.failed) all in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  [
    ("setup_s", o.setup_s, "s");
    ("generate_s", generate_s, "s");
    ("tests_per_s", rate groups (fun u -> u.tests), "tests/s");
    ("programs_per_s", programs_per_s, "programs/s");
    ("requests_per_s", programs_per_s, "req/s");
    ("cold_p50_ms", p50 cold, "ms");
    ("cold_p90_ms", p90 cold, "ms");
    ("warm_p50_ms", p50 warm, "ms");
    ("warm_p90_ms", p90 warm, "ms");
    ( "coverage_pct",
      100.0 *. float_of_int (sum (fun (u : unit_result) -> u.covered) units)
      /. float_of_int (max 1 (sum (fun (u : unit_result) -> u.total_stmts) units)),
      "%" );
    ( "correct_pct",
      100.0 *. float_of_int (attempted - failed) /. float_of_int (max 1 attempted),
      "%" );
    ("peak_heap_mb", float_of_int (top_heap * (Sys.word_size / 8)) /. 1e6, "MB");
  ]
  |> fun metrics -> (metrics, attempted, failed)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics (traced runs) *)

let layer_names = [ "p4"; "oracle"; "explore"; "smt"; "backends"; "sim"; "serve" ]

let per_layer (o : outcome) =
  let c = o.trace_ctx in
  let traced = List.map snd o.twins in
  (* per-layer readings are per input: the Tbl 4a suite, one random
     program, one request *)
  let items = float_of_int (max 1 (sum (fun u -> u.inputs) traced)) in
  let per k = get c.layers k /. items in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let spans = Spans.spans c.tr in
  let selfs = Spans.layer_self_times spans in
  let root = Spans.root_time spans in
  let self l = Option.value ~default:0.0 (List.assoc_opt l selfs) in
  let traced_s = sumf (fun (_, t) -> t.time) o.twins and twin_s = sumf (fun (u, _) -> u.time) o.twins in
  print_endline "  per-layer self time (per input):";
  List.iter
    (fun (l, v) -> Printf.printf "    %-9s %10.6f s  %5.1f%%\n" l (v /. items) (100.0 *. ratio v root))
    selfs;
  Printf.printf "  unattributed share: %.2f%% of %.3f s traced\n" (100.0 *. ratio (self "bench") root) root;
  Printf.printf "  tracing overhead: %.2f%% (traced %.3f s vs untraced %.3f s over %d unit pairs)\n"
    (100.0 *. ratio (traced_s -. twin_s) twin_s)
    traced_s twin_s (List.length o.twins);
  let s k = (k, per k, "s") and n k = (k, per k, "count") in
  let gc l = (Printf.sprintf "gc.%s.minor_mwords" l, get c.gc l /. items /. 1e6, "Mwords") in
  [
    s "p4.fingerprint_s"; s "p4.parse_s"; s "p4.passes_s"; ("p4.source_kb", per "p4.source_kb", "KiB");
    s "oracle.prepare_s"; s "oracle.instantiate_s";
    s "explore.run_s"; n "explore.paths"; n "explore.tests"; n "explore.infeasible";
    s "explore.t_step"; s "explore.t_emit"; s "explore.t_emit_solve"; s "concolic.time";
    ("explore.tests_per_path", ratio (get c.layers "explore.tests") (get c.layers "explore.paths"), "ratio");
    n "solver.checks"; s "solver.time"; n "sat.propagations"; n "sat.decisions"; n "sat.conflicts";
    n "blast.cache_misses";
    ( "blast.hit_ratio",
      ratio (get c.layers "blast.cache_hits")
        (get c.layers "blast.cache_hits" +. get c.layers "blast.cache_misses"),
      "ratio" );
    n "qcache.slices"; n "qcache.solver_checks_avoided";
    ( "qcache.avoid_ratio",
      ratio (get c.layers "qcache.solver_checks_avoided")
        (get c.layers "qcache.solver_checks_avoided" +. get c.layers "solver.checks"),
      "ratio" );
    s "backends.emit_s"; ("backends.bytes", per "backends.bytes", "bytes");
    s "sim.prepare_s"; s "sim.run_suite_s"; n "sim.tests";
    ("serve.rtt_ms", per "serve.rtt_ms", "ms"); ("serve.server_ms", per "serve.server_ms", "ms");
    ("serve.overhead_ms", per "serve.rtt_ms" -. per "serve.server_ms", "ms");
    ("serve.hit_ratio", per "serve.hits", "ratio"); n "serve.cache_evictions";
    gc "p4"; gc "oracle"; gc "explore"; gc "backends"; gc "sim";
    ("gc.major_collections", float_of_int o.major_collections /. items, "count");
  ]
  @ List.map (fun l -> (Printf.sprintf "self.%s_s" l, self l /. items, "s")) layer_names
  @ [
      ("unattributed_pct", 100.0 *. ratio (self "bench") root, "%");
      ("trace_overhead_pct", 100.0 *. ratio (traced_s -. twin_s) twin_s, "%");
    ]

(* ------------------------------------------------------------------ *)

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         let v = if Float.is_finite v then v else 0.0 in
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       metrics)

let () =
  let workload, seed, seconds, trace = parse_args () in
  let run =
    match workload with
    | "tbl4a_suite" -> Workloads.tbl4a
    | "random_programs" -> Workloads.random
    | "serve_mix" -> Workloads.serve
    | _ -> usage ()
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Printf.printf "host: %s\n" (host ());
  Printf.printf "workload %s, seed %d, %g s, trace %b\n%!" workload seed seconds trace;
  let o = run ~seed ~seconds ~trace in
  Printf.printf "  %d measured units, %d unit runs compared for determinism\n" (List.length o.units)
    o.repetitions;
  (match o.mismatches with
  | [] -> print_endline "  deterministic counters repeat exactly"
  | ms ->
      Printf.printf "  deterministic counters differ between repetitions (%d):\n" (List.length ms);
      List.iter (fun m -> Printf.printf "    %s\n" m) ms);
  let e2e, attempted, failed = end_to_end o in
  List.iter (fun (name, v, unit) -> Printf.printf "  %-16s %14.6f %s\n" name v unit) e2e;
  (* a metric that is not a number means the run measured nothing *)
  let unmeasured = List.filter (fun (_, v, _) -> not (Float.is_finite v)) e2e in
  List.iter (fun (name, _, _) -> Printf.printf "  %s: not measured\n" name) unmeasured;
  let failed = if unmeasured = [] then failed else max 1 failed in
  let metrics =
    if trace then begin
      let layers = per_layer o in
      List.iter (fun (name, v, unit) -> Printf.printf "  %-30s %16.6f %s\n" name v unit) layers;
      let file = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.jsonl" workload seed) in
      Out_channel.with_open_text file (fun oc ->
          Printf.fprintf oc "{\"host\":%S,\"workload\":%S,\"seed\":%d}\n" (host ()) workload seed;
          Spans.write_jsonl oc (Spans.spans o.trace_ctx.tr));
      Printf.printf "  spans written to %s\n" file;
      layers
    end
    else e2e
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (json_metrics metrics);
  exit (if failed = 0 then 0 else 1)
