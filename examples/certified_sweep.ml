(* Certified sweeping and network simplification.

   Sweeping exists to simplify: proven-equivalent LUTs merge into one.
   This example runs the full flow on a benchmark and then goes further
   than the paper on trust: every UNSAT merge is re-validated by checking
   the solver's DRUP proof with an independent reverse-unit-propagation
   checker, and every counter-example is re-validated (and minimized) by
   simulation.

   Run with: dune exec examples/certified_sweep.exe [-- <benchmark>] *)

module Suite = Simgen_benchgen.Suite
module N = Simgen_network.Network
module Sweeper = Simgen_sweep.Sweeper
module Miter = Simgen_sweep.Miter
module Sat_session = Simgen_sweep.Sat_session
module Minimize = Simgen_sweep.Minimize
module Strategy = Simgen_core.Strategy
module Eq = Simgen_sim.Eq_classes
module Rng = Simgen_base.Rng

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "apex5" in
  let net = Suite.lut_network name in
  Format.printf "Benchmark %s: %a@.@." name N.pp_stats net;

  (* Phase 1-2: random + SimGen simulation. *)
  let opts =
    {
      Simgen_sweep.Sweep_options.default with
      Simgen_sweep.Sweep_options.seed = 11;
      strategy = Strategy.AI_DC_MFFC;
      guided_iterations = 20;
    }
  in
  let sw = Sweeper.create opts net in
  Sweeper.random_round sw;
  ignore (Sweeper.run_guided opts sw);
  Printf.printf "cost after simulation: %d (%d classes)\n" (Sweeper.cost sw)
    (Eq.num_classes (Sweeper.classes sw));

  (* Phase 3: certified SAT resolution of a few candidate pairs. *)
  Printf.printf "\ncertified candidate checks:\n";
  let shown = ref 0 in
  List.iter
    (fun cls ->
      match cls with
      | a :: b :: _ when !shown < 6 -> (
          incr shown;
          let r = Miter.check_pair_fresh ~certify:true net a b in
          match r.Miter.verdict with
          | Sat_session.Equal ->
              Printf.printf "  n%-4d = n%-4d  EQUAL (DRUP proof %s)\n" a b
                (if r.Miter.valid then "checked" else "REJECTED")
          | Sat_session.Counterexample cex ->
              let kernel = Minimize.essential_bits net a b cex in
              Printf.printf
                "  n%-4d ~ n%-4d  DIFFER (cex %s; %d essential bits: %s)\n" a b
                (if r.Miter.valid then "validated" else "INVALID")
                (List.length kernel)
                (String.concat "," (List.map string_of_int kernel))
          | Sat_session.Unknown ->
              (* Unreachable: certified checks run without a conflict
                 budget. *)
              Printf.printf "  n%-4d ? n%-4d  UNKNOWN\n" a b)
      | _ -> ())
    (Eq.classes (Sweeper.classes sw));

  (* Full sweep and extraction of the simplified network. *)
  let s = Sweeper.sat_sweep opts sw in
  Printf.printf "\nSAT sweeping: %d calls, %d proved, %d disproved (%.3fs)\n"
    s.Sweeper.calls s.Sweeper.proved s.Sweeper.disproved s.Sweeper.sat_time;
  let merged = Sweeper.merged_network sw in
  Printf.printf "simplification: %d LUTs -> %d LUTs\n" (N.num_gates net)
    (N.num_gates merged);

  (* Spot-check equivalence of the simplified network. *)
  let rng = Rng.create 1 in
  let agree = ref true in
  for _ = 1 to 1000 do
    let vec = Array.init (N.num_pis net) (fun _ -> Rng.bool rng) in
    if N.eval_pos net vec <> N.eval_pos merged vec then agree := false
  done;
  Printf.printf "merged network agrees on 1000 random vectors: %b\n" !agree
