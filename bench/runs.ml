(* Shared experiment machinery for the benchmark harness.

   [run] executes the paper's §6.1 protocol on one LUT network: the
   sweeper's options set the strategy, rounds and SAT route, and the flow
   is the library's one sweep, [Cec.run] with no PO pairs — random
   rounds, guided rounds, then SAT sweeping. Every metric of Tables 1-2
   and Figures 5-7 is read off the result. *)

module Suite = Simgen_benchgen.Suite
module Sweeper = Simgen_sweep.Sweeper
module Sweep_options = Simgen_sweep.Sweep_options
module Cec = Simgen_sweep.Cec
module Certificate = Simgen_check.Certificate
module N = Simgen_network.Network

type result = {
  report : Cec.report;
  cost0 : int;  (* after the random rounds *)
  cost : int;  (* after the last guided round *)
  partition : int array;  (* each node's representative, by id *)
  cert : Certificate.report option;
      (* a certifying run's certificate, independently re-checked *)
  cut_hits : int;  (* pairs the cut-local check answered *)
  time : float;  (* wall time of the whole flow, certificate check included *)
}

(* One flow under [opts]. A flow that stops before SAT sets
   [max_sat_calls = Some 0]: the sweep then poses no query, and the
   final cost is the guided one. *)
let run (opts : Sweep_options.t) net =
  let t0 = Unix.gettimeofday () in
  let sw = Sweeper.create opts net in
  let cost0 = ref (Sweeper.cost sw) in
  let cost = ref !cost0 in
  let observe = function
    | Sweep_options.Random_round _ ->
        cost0 := Sweeper.cost sw;
        cost := !cost0
    | Sweep_options.Guided_round _ -> cost := Sweeper.cost sw
    | Sweep_options.Sat_sweep _
    | Sweep_options.Counterexample _ ->
        ()
  in
  let report = Cec.run { opts with Sweep_options.observe } sw [||] [||] in
  let cert =
    if opts.Sweep_options.certify then
      Some (Certificate.check (Sweeper.certificate sw))
    else None
  in
  let time = Unix.gettimeofday () -. t0 in
  let partition = Array.init (N.num_nodes net) (Sweeper.representative sw) in
  let cut_hits = (Sweeper.fun_cache_stats sw).Simgen_sweep.Fun_cache.hits in
  { report; cost0 = !cost0; cost = !cost; partition; cert; cut_hits; time }

(* Normalisation against the RevS baseline, guarding tiny denominators. *)
let ratio value baseline =
  if baseline <= 0.0 then 1.0 else value /. baseline

let geo_mean = function
  | [] -> 1.0
  | xs ->
      let n = float_of_int (List.length xs) in
      exp (List.fold_left (fun acc x -> acc +. log (max x 1e-9)) 0.0 xs /. n)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let benchmarks () = Suite.names

let stacked_benchmarks () =
  List.filter_map
    (fun e ->
      match e.Suite.stack_copies with
      | Some copies -> Some (e.Suite.name, copies)
      | None -> None)
    Suite.entries
