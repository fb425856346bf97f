(* ATPG heritage demo: stuck-at test generation with the SimGen engine.

   SimGen borrows activation/propagation reasoning from ATPG (paper
   §2.4). This example closes the loop and uses the pattern generator AS
   an ATPG through the [Simgen_atpg] library: random patterns catch the
   easy faults, guided activation (the SimGen engine driving the fault
   site to the opposite value) catches most of the rest, and a
   good-vs-faulty SAT miter decides the leftovers exactly — the same
   cheap-to-exact escalation as the sweeping flow.

   Run with: dune exec examples/atpg_patterns.exe [-- <benchmark>] *)

module Suite = Simgen_benchgen.Suite
module N = Simgen_network.Network
module Fault = Simgen_atpg.Fault
module Tpg = Simgen_atpg.Tpg

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "misex3c" in
  let net = Suite.lut_network name in
  Format.printf "Benchmark %s: %a@.@." name N.pp_stats net;
  let faults = Fault.all_gate_faults net in
  Printf.printf "Fault list: %d single stuck-at faults on LUT outputs\n"
    (List.length faults);
  (match faults with
   | f :: _ -> Printf.printf "  e.g. %s\n" (Fault.to_string net f)
   | [] -> ());

  (* The full campaign. *)
  let stats = Tpg.campaign ~seed:1 net in
  Format.printf "@.Campaign: %a@." Tpg.pp_stats stats;
  let detected = stats.Tpg.by_random + stats.Tpg.by_guided + stats.Tpg.by_sat in
  Printf.printf "Coverage: %d/%d testable faults = %.1f%%\n" detected
    (stats.Tpg.total - stats.Tpg.untestable)
    (100.0 *. float_of_int detected
    /. float_of_int (max 1 (stats.Tpg.total - stats.Tpg.untestable)));
  Printf.printf
    "\nThe tier split mirrors the paper's sweeping story: cheap random\n\
     vectors first, guided (conflict-avoiding, backtrack-free) generation\n\
     for the structured cases, and the exact-but-expensive solver only\n\
     for what is left.\n"
