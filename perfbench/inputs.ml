(* Every input of every workload, generated from the workload seed.
   The oracle receives only what these functions return; the same seed
   gives byte-identical inputs. *)

type program = {
  label : string;
  arch : string;
  source : string;
  oracle_seed : int;  (* Runtime.options.seed of the request *)
  max_tests : int option;
}

(* an independent stream per purpose, so adding a draw to one workload
   never shifts another's inputs *)
let rng ~seed purpose = Random.State.make [| seed; Hashtbl.hash purpose |]
let draw_seed st = Random.State.bits st land 0x3FFFFFFF

(* ------------------------------------------------------------------ *)
(* tbl4a_suite: the paper's Tbl 4a programs *)

let tbl4a ~seed =
  let st = rng ~seed "tbl4a" in
  List.map
    (fun (label, arch, source, max_tests) ->
      { label; arch; source; oracle_seed = draw_seed st; max_tests })
    [
      ("middleblock_2acl", "v1model", Progzoo.Generators.middleblock ~acl_stages:2 (), None);
      ("up4", "v1model", Progzoo.Generators.up4 (), None);
      ("switch_tna_8", "tna", Progzoo.Generators.switch_tna ~stages:8 (), Some 1000);
    ]

(* ------------------------------------------------------------------ *)
(* random_programs: a seeded Randprog draw, round-robin over the
   architectures.

   Per-program cost spreads over three orders of magnitude, so a plain
   draw of the ~200 programs one run has time for would move the
   workload's figures by 15% or more from seed to seed.  The draw is
   therefore stratified by source length, the best static predictor of
   cost: per architecture, [pool_factor] candidates per program are
   generated from the seed and sorted by length, and each program is
   taken at a seeded position from its own slice of [pool_factor]
   neighbours.  The programs are dealt into rounds of
   [round_per_arch] per architecture, each round one program from
   every [round_per_arch]-th of the length order, and the rounds run in
   a seeded order: a run cut short after any round has still sampled
   short and long programs in the same proportions, whatever the seed. *)

let archs = Progzoo.Randprog.all_archs
let round_per_arch = 8
let pool_factor = 8
let rounds_per_draw = 16

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* [random_rounds ~seed d]: draw [d], [rounds_per_draw] rounds of
   [round_per_arch] programs per architecture, in running order *)
let random_rounds ~seed d =
  let st = rng ~seed (Printf.sprintf "random_programs/%d" d) in
  let n = round_per_arch * rounds_per_draw in
  let per_arch =
    List.map
      (fun arch ->
        let pool =
          Array.init (n * pool_factor) (fun _ ->
              let case_seed = draw_seed st in
              (case_seed, Progzoo.Randprog.generate_for ~arch ~seed:case_seed))
        in
        Array.stable_sort
          (fun (_, a) (_, b) ->
            compare (String.length a.Progzoo.Randprog.src) (String.length b.Progzoo.Randprog.src))
          pool;
        Array.init n (fun i ->
            let case_seed, g = pool.((i * pool_factor) + Random.State.int st pool_factor) in
            let arch = Progzoo.Randprog.arch_name arch in
            {
              label = Printf.sprintf "rand_%s_%d" arch case_seed;
              arch;
              source = g.Progzoo.Randprog.src;
              oracle_seed = case_seed;
              max_tests = Some 12;
            }))
      archs
  in
  let order = Array.init rounds_per_draw Fun.id in
  shuffle st order;
  (* round r: the r-th program of every [rounds_per_draw] in length
     order, the architectures interleaved *)
  Array.map
    (fun r ->
      List.concat
        (List.init round_per_arch (fun j ->
             List.map (fun progs -> progs.(r + (j * rounds_per_draw))) per_arch)))
    order

(* ------------------------------------------------------------------ *)
(* serve_mix: wide middleblock programs of nearly one size and a
   popularity-skewed request stream over them.

   The traffic is assumed, not observed: no request trace of the daemon
   exists.  Three choices are the benchmark's own: 16 programs, twice
   the daemon's 8 cache slots, so hits and misses both occur under its
   LRU; a Zipf law with exponent 1 over popularity ranks, the
   Zipf-like skew usually assumed for cache workloads; and which
   program holds which rank, drawn afresh from the seed for every pass
   over the stream.

   The programs' ACL widths are 16 distinct values drawn from the seed
   out of [serve_width_lo, serve_width_lo + 32): sources that differ in
   every fingerprint but cost within a few percent of each other, so
   that the latencies do not hang on which program a seed makes the
   hottest: a request's cost follows its program's width. *)

let serve_programs = 16
let serve_zipf_s = 1.0
let serve_width_lo = 448

let serve_widths ~seed =
  let a = Array.init (2 * serve_programs) (fun i -> serve_width_lo + i) in
  shuffle (rng ~seed "serve/widths") a;
  List.sort compare (Array.to_list (Array.sub a 0 serve_programs))

(* popularity rank -> program for one pass *)
let serve_ranks ~seed ~pass =
  let a = Array.init serve_programs Fun.id in
  shuffle (rng ~seed (Printf.sprintf "serve/ranks/%d" pass)) a;
  a

let serve ~seed =
  let st = rng ~seed "serve/requests" in
  List.map
    (fun width ->
      {
        label = Printf.sprintf "middleblock_%dacl" width;
        arch = "v1model";
        source = Progzoo.Generators.middleblock ~acl_stages:width ();
        oracle_seed = draw_seed st;
        max_tests = Some 1;
      })
    (serve_widths ~seed)

(* [serve_stream ~seed ~pass n]: program indices of the [n] requests of
   one pass, Zipf-skewed over that pass's popularity ranks *)
let serve_stream ~seed ~pass n =
  let st = rng ~seed (Printf.sprintf "serve/stream/%d" pass) in
  let ranks = serve_ranks ~seed ~pass in
  let weights = Array.init serve_programs (fun r -> 1.0 /. (float_of_int (r + 1) ** serve_zipf_s)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  List.init n (fun _ ->
      let x = Random.State.float st total in
      let rec pick r acc =
        let acc = acc +. weights.(r) in
        if x < acc || r = serve_programs - 1 then r else pick (r + 1) acc
      in
      ranks.(pick 0 0.0))
