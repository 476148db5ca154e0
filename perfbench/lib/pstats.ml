(* Order statistics for the benchmark's samples.

   Percentiles use the nearest-rank rule on integer per-mille ranks, so
   the rank never depends on float rounding: the p-th per-mille of n
   sorted samples is the sample at 1-based rank ceil(p * n / 1000). *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let rank ~permille n = ((permille * n) + 999) / 1000

let percentile_sorted a ~permille =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pstats.percentile_sorted: no samples";
  a.(max 0 (min (n - 1) (rank ~permille n - 1)))

let median xs = percentile_sorted (sorted xs) ~permille:500

(* Samples strictly above the percentile's rank. *)
let beyond ~permille n = n - rank ~permille n

(* The tail percentiles the benchmark may report, highest first.  The
   ladder stops at p99 because that is the tail the latency metric
   names; p50 is the fallback, so a run too short for any tail still
   reports a defined number. *)
let ladder = [ 990; 900; 500 ]

let tail_permille n =
  match List.find_opt (fun p -> beyond ~permille:p n >= 10) ladder with
  | Some p -> p
  | None -> 500

let pp_permille ppf p =
  if p mod 10 = 0 then Format.fprintf ppf "p%d" (p / 10)
  else Format.fprintf ppf "p%d.%d" (p / 10) (p mod 10)

(* Median and rule-chosen tail of a latency sample set, in the samples'
   own unit.  Failed operations are recorded as [infinity], so they
   count as missing any latency limit. *)
type summary = { n : int; p50 : float; tail : float; tail_permille : int }

let summarize xs =
  let a = sorted xs in
  let n = Array.length a in
  let tail_permille = tail_permille n in
  {
    n;
    p50 = percentile_sorted a ~permille:500;
    tail = percentile_sorted a ~permille:tail_permille;
    tail_permille;
  }
