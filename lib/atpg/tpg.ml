module N = Simgen_network.Network
module TT = Simgen_network.Truth_table
module Simulator = Simgen_sim.Simulator
module VG = Simgen_core.Vector_gen
module Rng = Simgen_base.Rng
module Sat = Simgen_sat

type outcome = Detected of bool array | Untestable

type stats = {
  total : int;
  by_random : int;
  by_guided : int;
  by_sat : int;
  untestable : int;
  guided_attempts : int;
  sat_calls : int;
}

(* Activation vectors the pattern generator may try per fault; the first
   that fault simulation confirms is the fault's test. *)
let guided_attempts = 5

let generate_guided rng net fault =
  let rec try_once k =
    if k >= guided_attempts then None
    else begin
      let report =
        VG.generate ~rng net [ (fault.Fault.node, not fault.Fault.stuck) ]
      in
      if report.VG.satisfied <> [] && Fault.detects net fault report.VG.vector
      then Some report.VG.vector
      else try_once (k + 1)
    end
  in
  try_once 0

(* The faulty copy: the fault site's function becomes the stuck constant.
   Fanins are kept so the node count and PI mapping stay aligned. *)
let faulty_copy net fault =
  let net' = N.create ~name:(N.name net ^ "_faulty") () in
  N.iter_nodes net (fun id ->
      match N.kind net id with
      | N.Pi _ -> ignore (N.add_pi net')
      | N.Gate f ->
          let f =
            if id = fault.Fault.node then
              TT.create_const (Array.length (N.fanins net id)) fault.Fault.stuck
            else f
          in
          ignore (N.add_gate net' f (N.fanins net id)));
  Array.iter (fun po -> N.add_po net' po) (N.pos net);
  net'

let generate_sat net fault =
  let faulty = faulty_copy net fault in
  let env = Sat.Tseitin.create () in
  let vars_good, vars_bad = Sat.Tseitin.encode_shared_pis env net faulty in
  let diff_lits =
    Array.to_list
      (Array.map
         (fun po ->
           Sat.Literal.pos (Sat.Tseitin.xor_var env vars_good.(po) vars_bad.(po)))
         (N.pos net))
  in
  (* At least one PO must differ. *)
  let solver = Sat.Tseitin.solver env in
  Sat.Solver.add_clause solver diff_lits;
  match Sat.Solver.solve solver with
  | Sat.Solver.Unsat -> Untestable
  | Sat.Solver.Sat ->
      let vec = Sat.Tseitin.pi_values solver net vars_good in
      assert (Fault.detects net fault vec);
      Detected vec

let campaign ?(seed = 1) net =
  let rng = Rng.create seed in
  let faults = Fault.all_gate_faults net in
  let total = List.length faults in
  (* Tier 1: one word of 64 random patterns. *)
  let word = Simulator.random_word rng net in
  let detected_random, rest =
    List.partition (fun fault -> Fault.detects_word net fault word <> 0L) faults
  in
  (* Tier 2: guided activation. *)
  let guided_attempts_count = ref 0 in
  let detected_guided, rest =
    List.partition
      (fun fault ->
        match generate_guided rng net fault with
        | Some _ ->
            guided_attempts_count := !guided_attempts_count + 1;
            true
        | None ->
            guided_attempts_count := !guided_attempts_count + guided_attempts;
            false)
      rest
  in
  (* Tier 3: SAT. *)
  let sat_calls = ref 0 in
  let detected_sat, untestable =
    List.partition
      (fun fault ->
        incr sat_calls;
        match generate_sat net fault with
        | Detected _ -> true
        | Untestable -> false)
      rest
  in
  {
    total;
    by_random = List.length detected_random;
    by_guided = List.length detected_guided;
    by_sat = List.length detected_sat;
    untestable = List.length untestable;
    guided_attempts = !guided_attempts_count;
    sat_calls = !sat_calls;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "%d faults: %d by random, %d by guided activation, %d by SAT, %d \
     untestable (%d activation vectors, %d SAT calls)"
    s.total s.by_random s.by_guided s.by_sat s.untestable s.guided_attempts
    s.sat_calls
