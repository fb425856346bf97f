(* End-to-end integration tests: full pipelines across every library, on
   real suite benchmarks. Complements the per-module suites. *)

module Suite = Simgen_benchgen.Suite
module N = Simgen_network.Network
module Aig = Simgen_aig.Aig
module Convert = Simgen_aig.Convert
module Mapper = Simgen_mapping.Lut_mapper
module Sweeper = Simgen_sweep.Sweeper
module Cec = Simgen_sweep.Cec
module Strategy = Simgen_core.Strategy
module Eq = Simgen_sim.Eq_classes
module Rng = Simgen_base.Rng
module Sweep_options = Simgen_sweep.Sweep_options
module Sat_session = Simgen_sweep.Sat_session

let opts ?(iterations = 10) seed =
  {
    Sweep_options.default with
    Sweep_options.seed;
    guided_iterations = iterations;
  }

(* Pipeline 1: benchmark -> sweep (random + SimGen + SAT) -> merges,
   checking the end result against the paper's workflow invariants at
   every stage. *)
let test_full_sweep_pipeline () =
  List.iter
    (fun name ->
      let net = Suite.lut_network name in
      let o = opts 5 in
      let sw = Sweeper.create o net in
      let c_initial = Sweeper.cost sw in
      Sweeper.random_round sw;
      let c_random = Sweeper.cost sw in
      Alcotest.(check bool) "random refines" true (c_random <= c_initial);
      let g = Sweeper.run_guided o sw in
      let c_guided = Sweeper.cost sw in
      Alcotest.(check bool) "guided refines" true (c_guided <= c_random);
      Alcotest.(check bool) "guided produced vectors" true (g.Sweeper.vectors > 0);
      let s = Sweeper.sat_sweep o sw in
      Alcotest.(check bool) "sat resolves something" true (s.Sweeper.calls > 0);
      (* After sweeping no class has two distinct representatives. *)
      List.iter
        (fun cls ->
          let reps =
            List.sort_uniq compare (List.map (Sweeper.representative sw) cls)
          in
          Alcotest.(check int) "resolved" 1 (List.length reps))
        (Eq.classes (Sweeper.classes sw));
      (* Every merge is sound (spot-checked): each gate agrees with its
         representative. *)
      let rng = Rng.create 99 in
      for _ = 1 to 100 do
        let vec = Array.init (N.num_pis net) (fun _ -> Rng.bool rng) in
        let vals = N.eval net vec in
        N.iter_gates net (fun id ->
            Alcotest.(check bool) "gate = its representative" vals.(id)
              vals.(Sweeper.representative sw id))
      done)
    [ "apex2"; "dec"; "b14_C" ]

(* Pipeline 2: network -> BLIF -> parse -> AIG -> map -> CEC against the
   original: every serialization and transformation step preserves the
   function. *)
let test_roundtrip_cec_pipeline () =
  let name = "cps" in
  let net = Suite.lut_network name in
  let text = Simgen_network.Blif.to_string net in
  let reparsed = Simgen_network.Blif.parse_string text in
  let aig = Convert.aig_of_network reparsed in
  let remapped = Mapper.map ~k:4 aig in
  let report = Cec.check (opts 2) net remapped in
  Alcotest.(check bool) "roundtrip equivalent" true
    (report.Cec.outcome = Cec.Equivalent)

(* Pipeline 3: the scalability path — stack a benchmark, sweep it, and
   check the cost accounting still holds at depth. *)
let test_stacked_pipeline () =
  let net = Suite.lut_network "dalu" in
  let stacked = Simgen_network.Stack_networks.stack net 3 in
  Alcotest.(check int) "3x gates" (3 * N.num_gates net) (N.num_gates stacked);
  let o = opts ~iterations:5 5 in
  let sw = Sweeper.create o stacked in
  Sweeper.random_round sw;
  ignore (Sweeper.run_guided o sw);
  let s = Sweeper.sat_sweep o sw in
  Alcotest.(check int) "accounting" s.Sweeper.calls
    (s.Sweeper.proved + s.Sweeper.disproved)

(* Pipeline 4: both verification backends agree on sweeping verdicts. *)
let test_backends_agree () =
  let net = Suite.lut_network "dec" in
  let sw = Sweeper.create (opts 5) net in
  Sweeper.random_round sw;
  let checked = ref 0 in
  List.iter
    (fun cls ->
      match cls with
      | a :: b :: _ when !checked < 10 ->
          incr checked;
          let sat = Sat_session.check_pair (Sat_session.create net) a b in
          let bdd = Simgen_sweep.Bdd_backend.check_pair net a b in
          (match (sat, bdd) with
           | Sat_session.Equal, Sat_session.Equal -> ()
           | Sat_session.Counterexample _, Sat_session.Counterexample _ -> ()
           | ( (Sat_session.Equal | Sat_session.Counterexample _),
               Sat_session.Unknown ) ->
               ()
           | Sat_session.Equal, Sat_session.Counterexample _
           | Sat_session.Counterexample _, Sat_session.Equal ->
               Alcotest.fail "backends disagree"
           | Sat_session.Unknown, _ ->
               Alcotest.fail "unexpected Unknown without a budget")
      | _ -> ())
    (Eq.classes (Sweeper.classes sw));
  Alcotest.(check bool) "some pairs compared" true (!checked > 0)

(* Pipeline 5: certified sweeping — every UNSAT merge on a real benchmark
   carries a valid DRUP proof. *)
let test_certified_merges () =
  let net = Suite.lut_network "apex5" in
  let sw = Sweeper.create (opts 5) net in
  Sweeper.random_round sw;
  let proofs = ref 0 in
  List.iter
    (fun cls ->
      match cls with
      | a :: b :: _ when !proofs < 8 -> (
          let r = Simgen_sweep.Miter.check_pair_fresh ~certify:true
              ~subst:(Array.init (N.num_nodes net) Fun.id)
              net a b in
          match r.Simgen_sweep.Miter.verdict with
          | Sat_session.Equal ->
              incr proofs;
              Alcotest.(check bool) "DRUP proof valid" true r.valid
          | Sat_session.Counterexample _ ->
              Alcotest.(check bool) "cex valid" true r.valid
          | Sat_session.Unknown ->
              Alcotest.fail "unexpected Unknown without a budget")
      | _ -> ())
    (Eq.classes (Sweeper.classes sw));
  Alcotest.(check bool) "certified some merges" true (!proofs > 0)

(* Pipeline 6: ATPG on a mapped suite benchmark reaches full coverage of
   testable faults. *)
let test_atpg_pipeline () =
  let net = Suite.lut_network "priority" in
  let stats = Simgen_atpg.Tpg.campaign ~seed:2 net in
  Alcotest.(check int) "all faults classified" stats.Simgen_atpg.Tpg.total
    (stats.Simgen_atpg.Tpg.by_random + stats.Simgen_atpg.Tpg.by_guided
    + stats.Simgen_atpg.Tpg.by_sat + stats.Simgen_atpg.Tpg.untestable)

let () =
  Alcotest.run "integration"
    [
      ( "pipelines",
        [
          Alcotest.test_case "full sweep" `Slow test_full_sweep_pipeline;
          Alcotest.test_case "roundtrip cec" `Slow test_roundtrip_cec_pipeline;
          Alcotest.test_case "stacked" `Slow test_stacked_pipeline;
          Alcotest.test_case "backends agree" `Slow test_backends_agree;
          Alcotest.test_case "certified merges" `Slow test_certified_merges;
          Alcotest.test_case "atpg" `Slow test_atpg_pipeline;
        ] );
    ]
