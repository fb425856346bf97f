(* Certified sweeping and network simplification.

   Sweeping exists to simplify: proven-equivalent LUTs merge into one.
   This example runs the full flow on a benchmark and then goes further
   than the paper on trust: every UNSAT merge is re-validated by checking
   the solver's DRUP proof with an independent reverse-unit-propagation
   checker, every counter-example is re-validated by simulation, and
   every merge is spot-checked against its representative.

   Run with: dune exec examples/certified_sweep.exe [-- <benchmark>] *)

module Suite = Simgen_benchgen.Suite
module N = Simgen_network.Network
module Sweeper = Simgen_sweep.Sweeper
module Miter = Simgen_sweep.Miter
module Sat_session = Simgen_sweep.Sat_session
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
  (* Nothing is merged yet: check the nodes as they are. *)
  let subst = Array.init (N.num_nodes net) Fun.id in
  let shown = ref 0 in
  List.iter
    (fun cls ->
      match cls with
      | a :: b :: _ when !shown < 6 -> (
          incr shown;
          let r = Miter.check_pair_fresh ~certify:true ~subst net a b in
          match r.Miter.verdict with
          | Sat_session.Equal ->
              Printf.printf "  n%-4d = n%-4d  EQUAL (DRUP proof %s)\n" a b
                (if r.Miter.valid then "checked" else "REJECTED")
          | Sat_session.Counterexample _ ->
              Printf.printf "  n%-4d ~ n%-4d  DIFFER (cex %s)\n" a b
                (if r.Miter.valid then "validated" else "INVALID")
          | Sat_session.Unknown ->
              (* Unreachable: certified checks run without a conflict
                 budget. *)
              Printf.printf "  n%-4d ? n%-4d  UNKNOWN\n" a b)
      | _ -> ())
    (Eq.classes (Sweeper.classes sw));

  (* Full sweep: every proven pair merges into its representative. *)
  let s = Sweeper.sat_sweep opts sw in
  Printf.printf "\nSAT sweeping: %d calls, %d proved, %d disproved (%.3fs)\n"
    s.Sweeper.calls s.Sweeper.proved s.Sweeper.disproved s.Sweeper.sat_time;
  let merged = ref 0 in
  N.iter_gates net (fun id ->
      if Sweeper.representative sw id <> id then incr merged);
  Printf.printf "simplification: %d of %d LUTs merged\n" !merged
    (N.num_gates net);

  (* Spot-check the merges: every gate agrees with its representative. *)
  let rng = Rng.create 1 in
  let agree = ref true in
  for _ = 1 to 1000 do
    let vec = Array.init (N.num_pis net) (fun _ -> Rng.bool rng) in
    let vals = N.eval net vec in
    N.iter_gates net (fun id ->
        if vals.(id) <> vals.(Sweeper.representative sw id) then agree := false)
  done;
  Printf.printf
    "merges agree with their representatives on 1000 random vectors: %b\n"
    !agree
