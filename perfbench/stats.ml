(* Summary statistics for the benchmark's samples. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* 1-based nearest rank of percentile [p] (0 < p < 1) among [n] samples *)
let rank ~n p = max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)))

(* nearest-rank percentile: the smallest sample with at least a
   fraction [p] of the samples at or below it *)
let percentile xs p =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      a.(min (Array.length a) (rank ~n:(Array.length a) p) - 1)

(* The tail percentiles a latency report may name, highest first. *)
let tail_candidates = [ 0.999; 0.99; 0.9; 0.5 ]

(* The highest candidate percentile that has at least ten of [n]
   samples strictly beyond its nearest rank; [None] when not even the
   median has. *)
let tail_percentile n =
  List.find_opt (fun p -> n - rank ~n p >= 10) tail_candidates
