(* Strategy comparison on one benchmark: the paper's §6.2 experiment in
   miniature.

   Takes a benchmark name (default "apex2"), LUT-maps it, runs one round
   of random simulation followed by 20 guided iterations under each of
   the five strategies of Table 1, then finishes each run with SAT
   sweeping and prints the resulting cost, runtime and SAT statistics.
   The flow is [Cec.run] with no PO pairs: the one behind [cec], minus
   the output miters.

   Run with: dune exec examples/sweeping_strategies.exe [-- <benchmark>] *)

module Suite = Simgen_benchgen.Suite
module Sweeper = Simgen_sweep.Sweeper
module Sweep_options = Simgen_sweep.Sweep_options
module Cec = Simgen_sweep.Cec
module Strategy = Simgen_core.Strategy
module N = Simgen_network.Network

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "apex2" in
  (match Suite.find name with
   | Some _ -> ()
   | None ->
       Printf.eprintf "unknown benchmark %S; known: %s\n" name
         (String.concat " " Suite.names);
       exit 1);
  let net = Suite.lut_network name in
  Format.printf "Benchmark %s: %a@.@." name N.pp_stats net;
  Printf.printf "%-11s %8s %8s %9s %9s %9s %10s %9s\n" "strategy" "cost0"
    "cost" "vectors" "conflicts" "sim_time" "SAT_calls" "SAT_time";
  List.iter
    (fun strategy ->
      let opts =
        { Sweep_options.default with
          Sweep_options.seed = 7;
          strategy;
          guided_iterations = 20
        }
      in
      (* The library's sweep flow, with an observer that reads the cost
         after the random round and after each guided round. *)
      let sw = Sweeper.create opts net in
      let cost0 = ref 0 and cost1 = ref 0 in
      let observe = function
        | Sweep_options.Random_round _ ->
            cost0 := Sweeper.cost sw;
            cost1 := !cost0
        | Sweep_options.Guided_round _ -> cost1 := Sweeper.cost sw
        | Sweep_options.Sat_sweep _
        | Sweep_options.Counterexample _ ->
            ()
      in
      let r = Cec.run { opts with Sweep_options.observe } sw [||] [||] in
      let g = r.Cec.guided and s = r.Cec.sat in
      Printf.printf "%-11s %8d %8d %9d %9d %8.3fs %10d %8.3fs\n"
        (Strategy.name strategy) !cost0 !cost1 g.Sweeper.vectors
        g.Sweeper.gen_conflicts g.Sweeper.guided_time s.Sweeper.calls
        s.Sweeper.sat_time)
    Strategy.all;
  Printf.printf
    "\ncost = Eq. (5): worst-case SAT calls left after simulation.\n\
     Guided strategies that split more classes leave fewer SAT calls.\n"
