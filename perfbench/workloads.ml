(* The three workloads.  Each one repeats a unit of work (a pass over
   the Tbl 4a programs, one random program, a pass over the serve
   request stream) until [seconds] of measured time have accumulated,
   checks every output, and returns its units' results.

   Layers are timed from outside, around the calls the benchmark makes
   into their public functions ([call]).  With tracing off, [call] is
   the bare function call.  With tracing on, it also records a span, the
   call's duration and the minor words allocated during it.  A traced
   run follows every untraced unit with a traced twin of the same unit:
   the untraced units give the end-to-end figures, the twins the
   per-layer ones, and the difference between the two the tracing
   overhead. *)

module Oracle = Testgen.Oracle
module Explore = Testgen.Explore
module Runtime = Testgen.Runtime

let now = Obs.Clock.now
let target_of arch = Option.get (Targets.Registry.find arch)
let stf = Option.get (Backends.Registry.find "stf")

(* everything the benchmark writes lives under this directory *)
let out_dir = ".bench_out"
let stf_file name = Filename.concat out_dir (name ^ ".stf")
let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)
let warn fmt = Printf.ksprintf prerr_endline fmt

(* ------------------------------------------------------------------ *)
(* Measurement context *)

type ctx = {
  tr : Spans.t;
  gc : (string, float) Hashtbl.t;  (* layer -> minor words allocated in calls into it *)
  layers : (string, float) Hashtbl.t;  (* per-layer readings, summed over the run *)
}

let ctx ~trace = { tr = Spans.create ~on:trace; gc = Hashtbl.create 8; layers = Hashtbl.create 64 }
let traced c = Spans.enabled c.tr

(* [call c name f]: [f ()], and when tracing, a span named [name] plus
   its duration in [name ^ "_s"] and the minor words allocated during
   it under its layer.  The bookkeeping happens after the call's own
   window closes, so a layer's allocation is the program's alone. *)
let call c ?group name f =
  if not (traced c) then f ()
  else begin
    let w0 = Gc.minor_words () in
    let v = Spans.with_ c.tr ?group name f in
    let words = Gc.minor_words () -. w0 in
    add c.gc (Spans.layer name) words;
    (match Spans.last c.tr with
    | Some s -> add c.layers (name ^ "_s") (s.Spans.stop -. s.Spans.start)
    | None -> ());
    v
  end

(* median time of [reps] repetitions of [f], which returns its result
   and how to release it; every result but the last is released *)
let timed_setup ~reps f =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    Option.iter (fun (_, release) -> release ()) !last;
    let t0 = now () in
    let v = f () in
    times := (now () -. t0) :: !times;
    last := Some v
  done;
  let v, release = Option.get !last in
  (Stats.median !times, v, release)

(* ------------------------------------------------------------------ *)
(* Units and their results *)

type sample = {
  cold_latency : float option;  (* source text to written file, program unprepared *)
  warm_latency : float option;  (* the same, with the program already prepared *)
}

type unit_result = {
  key : string;  (* units with equal keys repeat the same work *)
  rep : int;  (* the repetition the unit belongs to: a pass, a block of random programs *)
  time : float;  (* measured seconds *)
  generate : float;  (* of which: source text to written test files *)
  inputs : int;  (* what [generate] covers: the Tbl 4a suite, a program, a request *)
  samples : sample list;
  programs : int;
  tests : int;
  covered : int;
  total_stmts : int;
  attempted : int;  (* outputs checked *)
  failed : int;
  readings : (string * int) list;  (* deterministic counters *)
}

let empty_unit key =
  {
    key;
    rep = 0;
    time = 0.0;
    generate = 0.0;
    inputs = 0;
    samples = [];
    programs = 0;
    tests = 0;
    covered = 0;
    total_stmts = 0;
    attempted = 0;
    failed = 0;
    readings = [];
  }

type outcome = {
  setup_s : float;
  units : unit_result list;  (* untraced units: the end-to-end figures *)
  pooled : bool;
      (* figures over every unit of the run at once, not medians over
         repetitions: for units that differ in their inputs *)
  twins : (unit_result * unit_result) list;  (* (untraced, traced) runs of one unit *)
  checks : unit_result list;  (* units run only to check outputs or counters *)
  mismatches : string list;  (* deterministic counters that did not repeat *)
  repetitions : int;  (* unit runs whose counters were compared with an earlier run *)
  trace_ctx : ctx;
  major_collections : int;  (* during traced units *)
}

(* deterministic counters: they must repeat exactly between runs of the
   same unit at path_jobs = 0 *)
let det_counters = [ "solver.checks"; "explore.paths"; "sat.propagations" ]

(* per-layer readings taken as the program exports them in a run's
   [Obs] snapshot *)
let snapshot_counters =
  [
    "explore.paths"; "explore.tests"; "explore.infeasible"; "solver.checks"; "sat.propagations";
    "sat.decisions"; "sat.conflicts"; "blast.cache_hits"; "blast.cache_misses"; "qcache.slices";
    "qcache.solver_checks_avoided";
  ]

let snapshot_timers =
  [ "explore.t_step"; "explore.t_emit"; "explore.t_emit_solve"; "concolic.time"; "solver.time" ]

let absorb_snapshot layers ~get_int ~get_float =
  List.iter (fun k -> add layers k (float_of_int (get_int k))) snapshot_counters;
  List.iter (fun k -> add layers k (get_float k)) snapshot_timers

(* allocation per layer of the program during one unit; the benchmark's
   own loop ("bench") is no layer of the program *)
let gc_readings (before : (string, float) Hashtbl.t) (after : (string, float) Hashtbl.t) =
  Hashtbl.fold
    (fun l w acc ->
      if l = "bench" then acc
      else (Printf.sprintf "gc.%s.minor_words" l, int_of_float (w -. get before l)) :: acc)
    after []
  |> List.sort compare

(* every run of a key is compared with the first run of that key;
   returns the differing readings and the number of runs compared *)
let compare_runs runs =
  let firsts = Hashtbl.create 16 and bad = ref [] and n = ref 0 in
  List.iter
    (fun (key, r) ->
      match Hashtbl.find_opt firsts key with
      | None -> Hashtbl.add firsts key r
      | Some first ->
          incr n;
          List.iter
            (fun (k, v) ->
              match List.assoc_opt k first with
              | Some v0 when v0 = v -> ()
              | Some v0 -> bad := Printf.sprintf "%s: %s %d vs %d" key k v0 v :: !bad
              | None -> bad := Printf.sprintf "%s: %s not in the first run" key k :: !bad)
            r)
    runs;
  (List.rev !bad, !n)

(* Runs [run_unit] on units 0, 1, ... until the measured time adds up to
   [seconds] (and at least [min_units] ran); [pooled] is the outcome's.
   With [trace], every unit is run again at once in the traced context.
   When no unit repeats (random programs, serve passes), the first
   [recheck] units are run once more at the end, in a fresh context of
   the same kind, so that every workload's counters are compared
   between repetitions. *)
let drive ~setup_s ~seconds ~trace ~pooled ~min_units ~recheck run_unit =
  let plain = ctx ~trace:false and tctx = ctx ~trace in
  let units = ref [] and twins = ref [] and measured = ref 0.0 and k = ref 0 in
  let traced_readings = ref [] and major = ref 0 in
  let run_traced c k =
    let gc0 = Hashtbl.copy c.gc in
    let t = run_unit c k in
    traced_readings := (t.key, t.readings @ gc_readings gc0 c.gc) :: !traced_readings;
    t
  in
  while !measured < seconds || List.length !units < min_units do
    let u = run_unit plain !k in
    units := u :: !units;
    measured := !measured +. u.time;
    if trace then begin
      let m0 = (Gc.quick_stat ()).Gc.major_collections in
      let t = run_traced tctx !k in
      major := !major + ((Gc.quick_stat ()).Gc.major_collections - m0);
      measured := !measured +. t.time;
      twins := (u, t) :: !twins
    end;
    incr k
  done;
  let units = List.rev !units and twins = List.rev !twins in
  let repeats = List.exists (fun u -> List.exists (fun v -> v != u && v.key = u.key) units) units in
  let checks =
    if repeats then []
    else
      let c = ctx ~trace in
      List.init (min recheck (List.length units)) (fun i ->
          if trace then run_traced c i else run_unit c i)
  in
  let bad1, n1 =
    compare_runs
      (List.map (fun u -> (u.key, u.readings)) (units @ checks)
      @ List.map (fun (_, t) -> (t.key, t.readings)) twins)
  in
  let bad2, n2 = compare_runs (List.rev !traced_readings) in
  {
    setup_s;
    units;
    pooled;
    twins;
    checks;
    mismatches = bad1 @ bad2;
    repetitions = n1 + n2;
    trace_ctx = tctx;
    major_collections = !major;
  }

(* ------------------------------------------------------------------ *)
(* One program from source text to its tests, as [Oracle.generate] runs
   it: prepare, the initial state on the prepared context, explore;
   with [emit], also to a written STF file, as the CLI's [generate]
   does *)

type item = {
  prepared : Oracle.prepared;
  result : Explore.result;
  tests : Testgen.Testspec.t list;
  text : string;  (* the STF file, "" without [emit] *)
  latency : float;
  after_prepare : float;
  covered : int;
  total_stmts : int;
  snap : Obs.Snapshot.t;
}

let obs_span_time reg name =
  List.fold_left (fun acc (n, d, _) -> if n = name then acc +. d else acc) 0.0 (Obs.Registry.spans reg)

let generate c ~group ~explore ~emit (p : Inputs.program) =
  let target = target_of p.arch in
  let opts = { Runtime.default_options with seed = p.oracle_seed } in
  let t0 = now () in
  let prepared = call c ~group "oracle.prepare" (fun () -> Oracle.prepare ~opts target p.source) in
  let t1 = now () in
  let reg = prepared.Oracle.ctx.Runtime.obs in
  (* the front end's own [Obs] spans, laid out in call order *)
  let parse = obs_span_time reg "parse" and passes = obs_span_time reg "passes" in
  add c.layers "p4.parse_s" parse;
  add c.layers "p4.passes_s" passes;
  (match Spans.last c.tr with
  | Some prep when traced c ->
      let _, e = Spans.add_reported c.tr ~parent:prep.Spans.id ~group ~start:prep.Spans.start "p4.parse" parse in
      ignore (Spans.add_reported c.tr ~parent:prep.Spans.id ~group ~start:e "p4.passes" passes)
  | _ -> ());
  let st = call c ~group "oracle.instantiate" (fun () -> Oracle.initial_state prepared) in
  let config =
    { explore with Explore.max_tests = p.max_tests; qcache_store = Some prepared.Oracle.qstore }
  in
  let result =
    call c ~group "explore.run" (fun () ->
        Explore.run ~config ~fresh:(Oracle.fresh_instance prepared) prepared.Oracle.ctx st)
  in
  (* the solver's share of exploration, as the run's registry reports it *)
  (match Spans.last c.tr with
  | Some run when traced c ->
      ignore
        (Spans.add_reported c.tr ~parent:run.Spans.id ~group ~start:run.Spans.start "smt.solve"
           (Obs.Snapshot.get_float result.Explore.obs "solver.time"))
  | _ -> ());
  let text =
    if not emit then ""
    else begin
      let text =
        call c ~group "backends.emit" (fun () ->
            Backends.Registry.emit_observed ~obs:reg stf result.Explore.tests)
      in
      call c ~group "backends.write" (fun () ->
          Out_channel.with_open_bin (stf_file p.label) (fun oc -> Out_channel.output_string oc text));
      text
    end
  in
  let t2 = now () in
  let snap = Obs.Registry.snapshot reg in
  absorb_snapshot c.layers ~get_int:(Obs.Snapshot.get_int snap) ~get_float:(Obs.Snapshot.get_float snap);
  add c.layers "p4.source_kb" (float_of_int (String.length p.source) /. 1024.0);
  add c.layers "backends.bytes" (float_of_int (String.length text));
  {
    prepared;
    result;
    tests = result.Explore.tests;
    text;
    latency = t2 -. t0;
    after_prepare = t2 -. t1;
    covered = Runtime.IntSet.cardinal result.Explore.covered;
    total_stmts = result.Explore.total_stmts;
    snap;
  }

let readings_of (p : Inputs.program) snap =
  List.map (fun k -> (p.label ^ "." ^ k, Obs.Snapshot.get_int snap k)) det_counters

let sim_failures results = List.length (List.filter (fun (_, v) -> v <> Sim.Harness.Pass) results)
let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs
let sumf f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs

(* ------------------------------------------------------------------ *)
(* tbl4a_suite: closed-loop passes over the Tbl 4a programs *)

let tbl4a ~seed ~seconds ~trace =
  (* set-up: the inputs, the software models, and a reference pass that
     warms the process up, fixes the expected files and runs every test
     on the software model; every repetition's tests are checked *)
  let reps = 3 in
  let sim_prepare = ref 0.0 and sim_time = ref 0.0 and sim_tests = ref 0 and sim_failed = ref 0 in
  let setup_s, (progs, reference), _ =
    timed_setup ~reps (fun () ->
        let progs = Inputs.tbl4a ~seed in
        let t0 = now () in
        let sims = List.map (fun (p : Inputs.program) -> Sim.Harness.prepare ~arch:p.arch p.source) progs in
        sim_prepare := !sim_prepare +. (now () -. t0);
        let reference =
          List.map2
            (fun (p : Inputs.program) sim ->
              let it = generate (ctx ~trace:false) ~group:(-1) ~explore:Explore.default_config ~emit:true p in
              let t0 = now () in
              let _, results = Sim.Harness.run_suite sim it.tests in
              sim_time := !sim_time +. (now () -. t0);
              sim_tests := !sim_tests + List.length results;
              sim_failed := !sim_failed + sim_failures results;
              it)
            progs sims
        in
        ((progs, reference), ignore))
  in
  let run_unit c k =
    let items =
      call c "pass" (fun () ->
          List.mapi
            (fun i (p : Inputs.program) ->
              let group = (k * List.length progs) + i in
              call c ~group "program" (fun () ->
                  match generate c ~group ~explore:Explore.default_config ~emit:true p with
                  | it -> Some it
                  | exception e ->
                      warn "tbl4a_suite: %s: %s" p.label (Printexc.to_string e);
                      None))
            progs)
    in
    (* every file must be byte-identical to the validated reference *)
    let failed =
      List.fold_left2
        (fun acc r it ->
          match it with
          | Some it when it.text = r.text -> acc
          | _ -> acc + max 1 (List.length r.tests))
        0 reference items
    in
    let ok = List.filter_map Fun.id items in
    let time = sumf (fun it -> it.latency) ok in
    {
      key = "pass";
      rep = k;
      time;
      generate = time;
      inputs = 1;
      samples =
        List.map (fun it -> { cold_latency = Some it.latency; warm_latency = Some it.after_prepare }) ok;
      programs = List.length progs;
      tests = sum (fun it -> List.length it.tests) ok;
      covered = sum (fun (it : item) -> it.covered) ok;
      total_stmts = sum (fun (it : item) -> it.total_stmts) ok;
      attempted = sum (fun r -> max 1 (List.length r.tests)) reference;
      failed;
      readings =
        List.concat
          (List.map2 (fun p it -> match it with Some it -> readings_of p it.snap | None -> []) progs items);
    }
  in
  let o = drive ~setup_s ~seconds ~trace ~pooled:false ~min_units:3 ~recheck:0 run_unit in
  (* the software model runs in set-up, on the reference passes: report
     its cost per pass, like every other per-layer reading *)
  let per_pass = float_of_int (List.length o.twins) /. float_of_int reps in
  add o.trace_ctx.layers "sim.prepare_s" (!sim_prepare *. per_pass);
  add o.trace_ctx.layers "sim.run_suite_s" (!sim_time *. per_pass);
  add o.trace_ctx.layers "sim.tests" (float_of_int !sim_tests *. per_pass);
  let validation = { (empty_unit "validation") with attempted = !sim_tests; failed = !sim_failed } in
  { o with checks = validation :: o.checks }

(* ------------------------------------------------------------------ *)
(* random_programs: one campaign case per Randprog program *)

(* the campaign's coverage keys of one case: canonical statement shapes
   hashed per architecture, keyed by the statements the suite covers *)
let coverage_keys c ~group (p : Inputs.program) (it : item) =
  let shapes =
    call c ~group "p4.statement_shapes" (fun () -> P4.Passes.statement_shapes it.prepared.Oracle.prog)
  in
  call c ~group "explore.coverage_keys" (fun () ->
      let tbl = Hashtbl.create 256 in
      List.iter
        (fun (sid, shp) -> Hashtbl.replace tbl sid (Selftest.Campaign.shape_key ~arch:p.arch shp))
        shapes;
      ignore
        (Explore.coverage_keys
           ~shape:(fun sid -> Option.value (Hashtbl.find_opt tbl sid) ~default:0)
           it.result))

let random ~seed ~seconds ~trace =
  (* the draw takes under 0.2 s, so host noise moves one draw by up to
     a half: the median of 9 is the set-up time.  The first draw holds
     more rounds than a 40-second run gets through on a 2-core host; a
     faster host draws the next between units, outside the measured
     time. *)
  let setup_s, first, _ = timed_setup ~reps:9 (fun () -> (Inputs.random_rounds ~seed 0, ignore)) in
  let draws = Hashtbl.create 4 in
  Hashtbl.replace draws 0 first;
  let per = List.length first.(0) in
  let program k =
    let r = k / per in
    let d = r / Inputs.rounds_per_draw in
    if not (Hashtbl.mem draws d) then Hashtbl.replace draws d (Inputs.random_rounds ~seed d);
    List.nth (Hashtbl.find draws d).(r mod Inputs.rounds_per_draw) (k mod per)
  in
  let explore = Selftest.Campaign.campaign_explore in
  let run_unit c k =
    let p = program k in
    let t0 = now () in
    let r =
      call c ~group:k "program" (fun () ->
          match generate c ~group:k ~explore ~emit:false p with
          | exception e -> Error ("oracle: " ^ Printexc.to_string e)
          | it -> (
              coverage_keys c ~group:k p it;
              match
                call c ~group:k "sim.prepare" (fun () ->
                    Sim.Harness.prepare ~seed:p.oracle_seed ~arch:p.arch p.source)
              with
              | exception e -> Error ("sim prepare: " ^ Printexc.to_string e)
              | sim ->
                  let _, results =
                    call c ~group:k "sim.run_suite" (fun () -> Sim.Harness.run_suite sim it.tests)
                  in
                  add c.layers "sim.tests" (float_of_int (List.length results));
                  Ok (it, sim_failures results)))
    in
    let time = now () -. t0 in
    match r with
    | Error msg ->
        warn "random_programs: %s: %s" p.label msg;
        { (empty_unit p.label) with rep = k / per; time; inputs = 1; programs = 1; attempted = 1; failed = 1 }
    | Ok (it, bad) ->
        if bad > 0 then warn "random_programs: %s: %d test(s) fail on the software model" p.label bad;
        {
          key = p.label;
          rep = k / per;
          time;
          generate = it.latency;
          inputs = 1;
          samples = [ { cold_latency = Some it.latency; warm_latency = Some it.after_prepare } ];
          programs = 1;
          tests = List.length it.tests;
          covered = it.covered;
          total_stmts = it.total_stmts;
          attempted = max 1 (List.length it.tests);
          failed = bad;
          readings = readings_of p it.snap;
        }
  in
  drive ~setup_s ~seconds ~trace ~pooled:true ~min_units:3 ~recheck:3 run_unit

(* ------------------------------------------------------------------ *)
(* serve_mix: one client, closed loop, against an in-process daemon *)

let requests_per_pass = 160

type reference = {
  ref_sim_failed : int;  (* reference tests failing on the software model *)
  ref_tests : string list;  (* Testspec text of each test *)
  ref_stf : string;
  ref_covered : int;
  ref_total : int;
}

(* flat {"name": number, ...} objects, as [Obs.Snapshot.to_json] writes them *)
let parse_obs json =
  let strip s = if String.length s >= 2 then String.sub s 1 (String.length s - 2) else "" in
  List.filter_map
    (fun kv ->
      match String.rindex_opt kv ':' with
      | None -> None
      | Some i ->
          let k = strip (String.trim (String.sub kv 0 i)) in
          let v = String.trim (String.sub kv (i + 1) (String.length kv - i - 1)) in
          Option.map (fun v -> (k, v)) (float_of_string_opt v))
    (String.split_on_char ',' (strip (String.trim json)))

let request_of (p : Inputs.program) =
  {
    Serve.Wire.default_request with
    Serve.Wire.rq_arch = p.arch;
    rq_backend = Some "stf";
    rq_seed = p.oracle_seed;
    rq_max_tests = p.max_tests;
    rq_source = Some p.source;
  }

(* what a single-shot [Oracle.generate] of the same request returns *)
let reference_of (p : Inputs.program) =
  let opts = { Runtime.default_options with seed = p.oracle_seed } in
  let config = { Explore.default_config with Explore.max_tests = p.max_tests } in
  let run = Oracle.generate ~opts ~config (target_of p.arch) p.source in
  let tests = run.Oracle.result.Explore.tests in
  (* the reference itself must pass on the software model *)
  let _, results = Sim.Harness.run_suite (Sim.Harness.prepare ~arch:p.arch p.source) tests in
  if sim_failures results > 0 then warn "serve_mix: %s: reference test fails on the software model" p.label;
  {
    ref_sim_failed = sim_failures results;
    ref_tests = List.map Testgen.Testspec.to_string tests;
    ref_stf = stf.Backends.Registry.emit tests;
    ref_covered = Runtime.IntSet.cardinal run.Oracle.result.Explore.covered;
    ref_total = run.Oracle.result.Explore.total_stmts;
  }

(* One executor: with one client connection at a time a second one
   would never have a request.  An idle executor domain still takes
   part in every stop-the-world collection, which on a 2-core host made
   each request slower and twice as sensitive to a busy neighbour core
   (README.md, "Workloads"). *)
let start_daemon () =
  let ep = Serve.Wire.Unix_sock (Filename.concat out_dir "serve.sock") in
  let server =
    Serve.Server.start { Serve.Server.default_config with Serve.Server.endpoint = ep; workers = 1 }
  in
  if not (Serve.Client.wait_ready ~attempts:5000 ~delay:0.001 ep) then begin
    Serve.Server.stop server;
    failwith "serve daemon did not come up"
  end;
  (ep, server)

(* costs of the front-end calls the daemon makes but does not report,
   timed by making the same calls on the same source *)
type probe = { fp : float; fp_words : float; parse : float; passes : float }

let probe_frontend (p : Inputs.program) =
  let fp =
    Stats.median
      (List.init 3 (fun _ ->
           let t0 = now () in
           ignore (Oracle.fingerprint ~arch:p.arch p.source);
           now () -. t0))
  in
  let w0 = Gc.minor_words () in
  ignore (Oracle.fingerprint ~arch:p.arch p.source);
  let fp_words = Gc.minor_words () -. w0 in
  let reg = (Oracle.prepare (target_of p.arch) p.source).Oracle.ctx.Runtime.obs in
  { fp; fp_words; parse = obs_span_time reg "parse"; passes = obs_span_time reg "passes" }

type reply = {
  dt : float;
  hit : bool;
  ok : bool;  (* tests and file byte-identical to the reference *)
  ntests : int;
  summary : (string * string) list;
  obs : (string * float) list;
  file : string;
}

(* a number from the response's summary or its [obs] snapshot, 0 when absent *)
let summary_num r k = Option.fold ~none:0.0 ~some:float_of_string (List.assoc_opt k r.summary)
let obs_num r k = Option.value ~default:0.0 (List.assoc_opt k r.obs)

let serve ~seed ~seconds ~trace =
  let setup_s, (progs, refs, ep), stop =
    timed_setup ~reps:7 (fun () ->
        let progs = Array.of_list (Inputs.serve ~seed) in
        let refs = Array.map reference_of progs in
        let ep, server = start_daemon () in
        ((progs, refs, ep), fun () -> Serve.Server.stop server))
  in
  Fun.protect ~finally:stop (fun () ->
      let probes = if trace then Array.map probe_frontend progs else [||] in
      let rpc rq = Serve.Client.request ep rq in
      (* the daemon's own times for one request, laid out in its call
         order under the client's span of the request *)
      let layout c ~group (span : Spans.span) r (pr : probe) =
        let num = summary_num r and ob = obs_num r in
        let start = span.Spans.start in
        let srv, _ =
          Spans.add_reported c.tr ~parent:span.Spans.id ~group ~start "serve.server" (num "wall_seconds")
        in
        let _, e = Spans.add_reported c.tr ~parent:srv ~group ~start "p4.fingerprint" pr.fp in
        let prep, e' =
          Spans.add_reported c.tr ~parent:srv ~group ~start:e "oracle.prepare" (num "prep_seconds")
        in
        if not r.hit then begin
          let _, e2 = Spans.add_reported c.tr ~parent:prep ~group ~start:e "p4.parse" pr.parse in
          ignore (Spans.add_reported c.tr ~parent:prep ~group ~start:e2 "p4.passes" pr.passes)
        end;
        let run, e3 =
          Spans.add_reported c.tr ~parent:srv ~group ~start:e' "explore.run" (ob "explore.total_time")
        in
        ignore (Spans.add_reported c.tr ~parent:run ~group ~start:e' "smt.solve" (ob "solver.time"));
        ignore (Spans.add_reported c.tr ~parent:srv ~group ~start:e3 "backends.emit" (ob "backend.emit_time"))
      in
      let one c ~group i =
        let p = progs.(i) and r = refs.(i) in
        let t0 = now () in
        let reply = call c ~group "serve.request" (fun () -> rpc (request_of p)) in
        let span = Spans.last c.tr in
        let file =
          match reply with
          | Ok evs -> List.find_map (function Serve.Wire.File (_, body) -> Some body | _ -> None) evs
          | Error _ -> None
        in
        Option.iter
          (fun body ->
            call c ~group "backends.write" (fun () ->
                Out_channel.with_open_bin (stf_file p.label) (fun oc -> Out_channel.output_string oc body)))
          file;
        let dt = now () -. t0 in
        match reply with
        | Error msg ->
            warn "serve_mix: %s: %s" p.label msg;
            Error dt
        | Ok evs -> (
            match Serve.Client.find_error evs with
            | Some (kind, msg) ->
                warn "serve_mix: %s: %s: %s" p.label kind msg;
                Error dt
            | None ->
                let tests = List.filter_map (function Serve.Wire.Test (_, b) -> Some b | _ -> None) evs in
                let summary = Option.value ~default:[] (Serve.Client.find_summary evs) in
                let obs =
                  List.fold_left (fun acc ev -> match ev with Serve.Wire.Obs j -> parse_obs j | _ -> acc) [] evs
                in
                let ok = tests = r.ref_tests && file = Some r.ref_stf in
                if not ok then warn "serve_mix: %s: response differs from single-shot generate" p.label;
                let r =
                  {
                    dt;
                    hit = List.assoc_opt "cache_hit" summary = Some "true";
                    ok;
                    ntests = List.length tests;
                    summary;
                    obs;
                    file = Option.value ~default:"" file;
                  }
                in
                (match span with Some s when traced c -> layout c ~group s r probes.(i) | _ -> ());
                Ok r)
      in
      let absorb c i r =
        let l = c.layers and num = summary_num r and ob = obs_num r in
        absorb_snapshot l ~get_int:(fun k -> int_of_float (ob k)) ~get_float:ob;
        add l "serve.rtt_ms" (1e3 *. r.dt);
        add l "serve.server_ms" (1e3 *. num "wall_seconds");
        add l "serve.hits" (if r.hit then 1.0 else 0.0);
        add l "serve.cache_evictions" (ob "serve.cache_evictions");
        add l "oracle.prepare_s" (num "prep_seconds");
        add l "explore.run_s" (ob "explore.total_time");
        add l "backends.emit_s" (ob "backend.emit_time");
        add l "backends.bytes" (float_of_int (String.length r.file));
        add l "p4.source_kb" (float_of_int (String.length progs.(i).source) /. 1024.0);
        if traced c then begin
          let pr = probes.(i) in
          add l "p4.fingerprint_s" pr.fp;
          add c.gc "p4" pr.fp_words;
          if not r.hit then begin
            add l "p4.parse_s" pr.parse;
            add l "p4.passes_s" pr.passes
          end
        end
      in
      let run_unit c k =
        let stream = Array.of_list (Inputs.serve_stream ~seed ~pass:k requests_per_pass) in
        (* every pass starts from an empty cache, so a pass run twice
           repeats exactly *)
        ignore (rpc { Serve.Wire.default_request with Serve.Wire.rq_op = Serve.Wire.Flush });
        let results =
          call c "pass" (fun () ->
              Array.to_list
                (Array.mapi
                   (fun j i ->
                     let group = (k * requests_per_pass) + j in
                     (i, call c ~group "request" (fun () -> one c ~group i)))
                   stream))
        in
        let n = List.length results in
        let u =
          ref { (empty_unit (Printf.sprintf "pass %d" k)) with rep = k; inputs = n; programs = n; attempted = n }
        in
        List.iteri
          (fun j (i, res) ->
            let v = !u in
            match res with
            | Error dt -> u := { v with time = v.time +. dt; generate = v.generate +. dt; failed = v.failed + 1 }
            | Ok r ->
                absorb c i r;
                u :=
                  {
                    v with
                    time = v.time +. r.dt;
                    generate = v.generate +. r.dt;
                    failed = (v.failed + if r.ok then 0 else 1);
                    tests = v.tests + r.ntests;
                    covered = v.covered + refs.(i).ref_covered;
                    total_stmts = v.total_stmts + refs.(i).ref_total;
                    samples =
                      (if r.hit then { cold_latency = None; warm_latency = Some r.dt }
                       else { cold_latency = Some r.dt; warm_latency = None })
                      :: v.samples;
                    readings =
                      List.rev_map
                        (fun k -> (Printf.sprintf "request %d.%s" j k, int_of_float (obs_num r k)))
                        det_counters
                      @ v.readings;
                  })
          results;
        !u
      in
      let o = drive ~setup_s ~seconds ~trace ~pooled:true ~min_units:3 ~recheck:1 run_unit in
      let validation =
        {
          (empty_unit "validation") with
          attempted = sum (fun r -> max 1 (List.length r.ref_tests)) (Array.to_list refs);
          failed = sum (fun r -> r.ref_sim_failed) (Array.to_list refs);
        }
      in
      { o with checks = validation :: o.checks })
