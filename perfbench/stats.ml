(* Nearest-rank percentiles, and the rule for how far into the tail the
   benchmark may report: a percentile is only quoted when at least
   [min_beyond] samples lie beyond it, so one outlier cannot be the
   whole tail. *)

let min_beyond = 10

(* 1-based nearest rank of percentile [p] (0 < p <= 100) among [n]
   samples.  Integer arithmetic where possible: [0.9 *. 100.] style
   rounding must not push a rank up by one. *)
let rank p n =
  int_of_float (ceil (p *. float_of_int n /. 100.)) |> max 1 |> min n

let beyond p n = n - rank p n

(* Smallest sample count for which percentile [p] keeps [min_beyond]
   samples beyond it (100 for p90). *)
let min_samples p =
  let rec go n = if beyond p n >= min_beyond then n else go (n + 1) in
  go 1

let percentile p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  sorted.(rank p n - 1)

let median xs = percentile 50. xs

(* A tail percentile: refuses to answer from too few samples. *)
let tail p xs =
  let n = Array.length xs in
  if beyond p n < min_beyond then
    invalid_arg
      (Printf.sprintf "Stats.tail: p%g of %d samples leaves %d beyond it (< %d)"
         p n (beyond p n) min_beyond);
  percentile p xs

let mean xs =
  if Array.length xs = 0 then 0.
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let sum xs = Array.fold_left ( +. ) 0. xs
