(* Order statistics shared by the run reports and [compare].

   [cut] reproduces Python's [statistics.quantiles(data, n=n)] with its
   default "exclusive" method exactly, integer arithmetic included, so a
   spread printed here is the spread any Python-side check computes from
   the same values. Like Python it extrapolates past the extreme samples
   when there are too few of them. *)

let sorted xs = Array.of_list (List.sort compare xs)

(* The [i]-th of the [n - 1] cut points that split [xs] into [n] groups. *)
let cut ~n ~i xs =
  let d = sorted xs in
  match Array.length d with
  | 0 -> invalid_arg "Stats.cut: no samples"
  | 1 -> d.(0)
  | ld ->
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((d.(j - 1) *. float_of_int (n - delta)) +. (d.(j) *. float_of_int delta))
      /. float_of_int n

let median xs = cut ~n:2 ~i:1 xs

(* First quartile, median, third quartile. *)
let quartiles xs = (cut ~n:4 ~i:1 xs, median xs, cut ~n:4 ~i:3 xs)

(* Percentile [p] (an integer in 1..99) of latency samples. *)
let percentile p xs = cut ~n:100 ~i:p xs

(* Interquartile distance as a share of the median: the run-to-run
   spread every bound in the metric table is compared against. *)
let spread xs =
  let q1, med, q3 = quartiles xs in
  if med = 0.0 then if q3 -. q1 = 0.0 then 0.0 else infinity
  else Float.abs ((q3 -. q1) /. med)

let sum = List.fold_left ( +. ) 0.0

let mean xs = sum xs /. float_of_int (List.length xs)

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* The metric-name grammar of BENCHMARK.json: 1 to 64 of [A-Za-z0-9_.-],
   starting with a letter or a digit. *)
let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all ok_char s
