(* The static linter and invariant-audit layer: every seeded corruption
   must surface its documented diagnostic code, the clean benchmark suites
   must lint error-free, and the runtime audits must catch a corrupted
   sweeper merge. *)

module N = Simgen_network.Network
module TT = Simgen_network.Truth_table
module Blif = Simgen_network.Blif
module Aig = Simgen_aig.Aig
module L = Simgen_sat.Literal
module Dimacs = Simgen_sat.Dimacs
module Tseitin = Simgen_sat.Tseitin
module Solver = Simgen_sat.Solver
module Bdd = Simgen_bdd.Bdd
module Suite = Simgen_benchgen.Suite
module Sweeper = Simgen_sweep.Sweeper
module Runtime_check = Simgen_base.Runtime_check
module Srcloc = Simgen_base.Srcloc
module Check = Simgen_check
module Sweep_options = Simgen_sweep.Sweep_options

let opts seed = { Sweep_options.default with Sweep_options.seed }
module D = Simgen_check.Diagnostic

let codes diags = List.sort_uniq compare (List.map (fun d -> d.D.code) diags)

let has_code code diags = List.exists (fun d -> d.D.code = code) diags

let check_code what code diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s reports %s (got %s)" what code
       (String.concat "," (codes diags)))
    true (has_code code diags)

let errors diags = List.filter (fun d -> d.D.severity = D.Error) diags
let warnings diags = List.filter (fun d -> d.D.severity = D.Warning) diags

(* A small well-formed network: two PIs, three gates, one PO. *)
let clean_net () =
  let net = N.create ~name:"clean" () in
  let a = N.add_pi net and b = N.add_pi net in
  let g1 = N.add_gate net (TT.of_bits 2 0b1000L) [| a; b |] in
  let g2 = N.add_gate net (TT.of_bits 2 0b0110L) [| a; b |] in
  let g3 = N.add_gate net (TT.of_bits 2 0b0111L) [| g1; g2 |] in
  N.add_po net g3;
  net

(* ------------------------------------------------------------------ *)
(* Network lints: seeded corruption -> expected code                   *)
(* ------------------------------------------------------------------ *)

let test_clean_network () =
  let diags = Check.Net_lint.run (clean_net ()) in
  Alcotest.(check int) "no errors" 0 (List.length (errors diags));
  Alcotest.(check int) "no warnings" 0 (List.length (warnings diags))

let test_cycle () =
  let net = clean_net () in
  (* g1 (id 2) <- g3 (id 4) closes a loop g3 -> g1 -> g3. *)
  N.Unsafe.set_fanins net 2 [| 4; 1 |];
  let diags = Check.Net_lint.run net in
  check_code "cycle" "N001" diags

let test_arity_mismatch () =
  let net = clean_net () in
  N.Unsafe.set_fanins net 4 [| 2 |];
  (* 2-var table, 1 fanin *)
  check_code "arity" "N002" (Check.Net_lint.run net)

let test_forward_and_range () =
  let net = clean_net () in
  N.Unsafe.set_fanins net 2 [| 3; 99 |] (* forward ref + out of range *);
  let diags = Check.Net_lint.run net in
  check_code "forward/range" "N003" diags;
  Alcotest.(check bool)
    "both fanins flagged" true
    (List.length (List.filter (fun d -> d.D.code = "N003") diags) >= 2)

let test_unreachable () =
  let net = clean_net () in
  (* Another gate nothing observes. *)
  let _orphan = N.add_gate net (TT.of_bits 2 0b0001L) [| 0; 1 |] in
  check_code "unreachable" "N004" (Check.Net_lint.run net)

let test_duplicate_names () =
  let net = N.create () in
  let a = N.add_pi net and b = N.add_pi net in
  let g1 = N.add_gate ~name:"sig" net (TT.of_bits 2 0b1000L) [| a; b |] in
  let g2 = N.add_gate ~name:"sig" net (TT.of_bits 2 0b1110L) [| a; b |] in
  N.add_po net g1;
  N.add_po net g2;
  check_code "duplicate name" "N006" (Check.Net_lint.run net)

let test_constant_foldable () =
  let net = clean_net () in
  let c = N.add_gate net (TT.create_const 2 true) [| 0; 1 |] in
  N.add_po net c;
  check_code "const gate" "N008" (Check.Net_lint.run net)

let test_buffer () =
  let net = clean_net () in
  let buf = N.add_gate net (TT.var 0 1) [| 2 |] in
  N.add_po net buf;
  check_code "buffer" "N009" (Check.Net_lint.run net)

let test_stale_levels () =
  let net = clean_net () in
  ignore (N.levels net);
  (* Pretend a mutator forgot to invalidate: install garbage. *)
  N.Unsafe.set_level_cache net (Array.make (N.num_nodes net) 7);
  let diags = Check.Net_lint.run net in
  check_code "stale levels" "N010" diags;
  Alcotest.(check bool) "is an error" true (errors diags <> [])

let test_levels_recomputed_after_mutation () =
  (* The by-construction guarantee behind N010: every mutator invalidates
     the cache, so an honest network never lints stale. *)
  let net = clean_net () in
  ignore (N.levels net);
  N.Unsafe.set_fanins net 4 [| 2; 2 |];
  Alcotest.(check bool) "cache dropped" true (N.cached_levels net = None);
  Alcotest.(check bool)
    "no N010 after recompute"
    true
    (not (has_code "N010" (Check.Net_lint.run net)))

let test_ignored_and_duplicate_fanin () =
  let net = N.create () in
  let a = N.add_pi net and b = N.add_pi net in
  (* Function is just var 0: fanin 1 ignored. *)
  let g1 = N.add_gate net (TT.var 0 2) [| a; b |] in
  let g2 = N.add_gate net (TT.of_bits 2 0b1000L) [| a; a |] in
  N.add_po net g1;
  N.add_po net g2;
  let diags = Check.Net_lint.run net in
  check_code "ignored fanin" "N012" diags;
  check_code "duplicate fanin" "N013" diags

(* ------------------------------------------------------------------ *)
(* AIG lints                                                           *)
(* ------------------------------------------------------------------ *)

let clean_aig () =
  let aig = Aig.create () in
  let a = Aig.add_pi aig and b = Aig.add_pi aig in
  let x = Aig.and_ aig a b in
  Aig.add_po aig x;
  (aig, a, b, x)

let test_aig_clean () =
  let aig, _, _, _ = clean_aig () in
  Alcotest.(check (list string)) "no diagnostics" [] (codes (Check.Aig_lint.run aig))

let test_aig_non_canonical () =
  let aig, a, b, _ = clean_aig () in
  Aig.add_po aig (Aig.Unsafe.push_and aig b a) (* b > a: wrong order *);
  check_code "operand order" "A001" (Check.Aig_lint.run aig)

let test_aig_duplicate () =
  let aig, a, b, _ = clean_aig () in
  Aig.add_po aig (Aig.Unsafe.push_and aig a b) (* same pair again *);
  check_code "strash duplicate" "A002" (Check.Aig_lint.run aig)

let test_aig_foldable () =
  let aig, a, _, _ = clean_aig () in
  Aig.add_po aig (Aig.Unsafe.push_and aig Aig.true_ a);
  check_code "constant operand" "A003" (Check.Aig_lint.run aig)

let test_aig_forward_fanin () =
  let aig, a, _, _ = clean_aig () in
  let n = Aig.num_nodes aig in
  (* References itself (node id n = the node being pushed). *)
  Aig.add_po aig (Aig.Unsafe.push_and aig a (Aig.lit_of_node n false));
  let diags = Check.Aig_lint.run aig in
  check_code "forward fanin" "A004" diags;
  Alcotest.(check bool) "is an error" true (errors diags <> [])

let test_aig_unreachable () =
  let aig, a, b, _ = clean_aig () in
  ignore (Aig.and_ aig (Aig.not_ a) (Aig.not_ b)) (* never made a PO *);
  check_code "unreachable AND" "A005" (Check.Aig_lint.run aig)

let test_aig_po_range () =
  let aig, _, _, _ = clean_aig () in
  Aig.add_po aig (Aig.lit_of_node 500 false);
  let diags = Check.Aig_lint.run aig in
  check_code "PO out of range" "A006" diags;
  Alcotest.(check bool) "is an error" true (errors diags <> [])

(* ------------------------------------------------------------------ *)
(* CNF lints                                                           *)
(* ------------------------------------------------------------------ *)

let test_cnf_codes () =
  let clauses =
    [
      [ L.pos 0; L.neg 1 ];
      [ L.pos 9 ] (* C001: 9 out of range *);
      [] (* C002: empty *);
      [ L.pos 2; L.neg 2 ] (* C003: tautology *);
      [ L.pos 0; L.pos 0 ] (* C004: duplicate literal *);
      [ L.neg 1; L.pos 0 ] (* C005: duplicate of clause 0 *);
      (* variable 3 declared but never referenced: C006 *)
    ]
  in
  let diags = Check.Cnf_lint.run ~nvars:4 clauses in
  List.iter
    (fun code -> check_code "cnf" code diags)
    [ "C001"; "C002"; "C003"; "C004"; "C005"; "C006" ];
  Alcotest.(check int) "one error (C001)" 1 (List.length (errors diags))

let test_cnf_clean () =
  let clauses = [ [ L.pos 0; L.neg 1 ]; [ L.pos 1; L.pos 2 ]; [ L.neg 2 ] ] in
  Alcotest.(check (list string))
    "clean cnf" []
    (codes (Check.Cnf_lint.run ~nvars:3 clauses))

let test_tseitin_encoding_lint () =
  (* The live encoder must emit well-formed CNF for a real benchmark. No
     errors or warnings; info-level C007 is a true finding here — cones
     over dec's constant node yield unit clauses that subsume later
     truth-table rows (wasted clauses, not wrong ones). *)
  let net = Suite.lut_network "dec" in
  let diags = Check.Lint.tseitin_encoding net in
  Alcotest.(check int) "no errors" 0 (List.length (errors diags));
  Alcotest.(check int) "no warnings" 0 (List.length (warnings diags));
  Alcotest.(check bool) "only C007 infos beyond that" true
    (List.for_all (fun d -> d.D.code = "C007") diags)

let test_session_stream_lint () =
  (* The stream a certified sweep really hands its session solver: the
     problem clauses of every session query record, concatenated until a
     rebuild restarts the variable space. Each query's activation
     variable is allocated after its cone encoding, so one past the
     largest one bounds the segment's variables: an encoding over an
     unallocated (or missing, -1) variable is a C001 error. *)
  let module Cert = Simgen_check.Certificate in
  let lint name segment =
    let nvars, parts =
      List.fold_left
        (fun (n, parts) q ->
          match q with
          | Cert.Session { act; clauses; _ } -> (max n (act + 1), clauses :: parts)
          | Cert.Fresh _ | Cert.Rebuild -> (n, parts))
        (0, []) segment
    in
    let clauses = List.concat (List.rev parts) in
    let diags = Check.Cnf_lint.run ~source:name ~nvars clauses in
    Alcotest.(check int) (name ^ ": no errors") 0 (List.length (errors diags));
    List.length clauses
  in
  List.iter
    (fun name ->
      let net = Suite.lut_network name in
      let o =
        { Sweep_options.default with Sweep_options.seed = 7; certify = true }
      in
      let sw = Sweeper.create o net in
      Sweeper.random_round sw;
      ignore (Sweeper.run_guided o sw : Sweeper.guided_stats);
      ignore (Sweeper.sat_sweep o sw : Sweeper.sat_stats);
      let rec segments acc cur = function
        | [] -> List.rev (List.rev cur :: acc)
        | Cert.Rebuild :: rest -> segments (List.rev cur :: acc) [] rest
        | q :: rest -> segments acc (q :: cur) rest
      in
      let queries = Array.to_list (Sweeper.certificate sw).Cert.queries in
      let linted =
        List.fold_left ( + ) 0 (List.map (lint name) (segments [] [] queries))
      in
      Alcotest.(check bool) (name ^ ": clauses linted") true (linted > 0))
    [ "dec"; "priority"; "apex5"; "alu4"; "square"; "b14_C" ]

(* ------------------------------------------------------------------ *)
(* Parse errors as diagnostics                                         *)
(* ------------------------------------------------------------------ *)

let write_temp ext content =
  let path = Filename.temp_file "simgen_check" ext in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

let test_parse_error_located () =
  let path =
    write_temp ".blif" ".model broken\n.inputs a\n.outputs y\nnot a cover row\n.end\n"
  in
  let diags = Check.Lint.file path in
  check_code "parse error" "P001" diags;
  (match diags with
   | [ { D.loc = D.Src { Simgen_base.Srcloc.file = Some f; line = Some n }; _ } ] ->
       Alcotest.(check string) "file recorded" path f;
       Alcotest.(check int) "line recorded" 4 n
   | _ -> Alcotest.fail "expected a single located P001");
  Sys.remove path

let test_unknown_extension () =
  let path = write_temp ".xyz" "nonsense" in
  check_code "unknown kind" "P002" (Check.Lint.file path);
  Sys.remove path

let test_file_dispatch_clean () =
  (* Round-trip a generated benchmark through each format and lint the
     file: no errors anywhere. *)
  let net = Suite.lut_network "alu4" in
  let blif = Filename.temp_file "simgen_check" ".blif" in
  Simgen_network.Blif.write_file blif net;
  let diags = Check.Lint.file blif in
  Alcotest.(check int) "blif file lints clean" 0 (List.length (errors diags));
  Sys.remove blif;
  let aag = Filename.temp_file "simgen_check" ".aag" in
  Simgen_aig.Aiger.write_file aag (Suite.aig "dec");
  let diags = Check.Lint.file aag in
  Alcotest.(check int) "aag file lints clean" 0 (List.length (errors diags));
  Sys.remove aag

(* ------------------------------------------------------------------ *)
(* No-false-positive sweep over the suites                             *)
(* ------------------------------------------------------------------ *)

let test_suites_error_free () =
  List.iter
    (fun name ->
      let aig_errs = errors (Check.Aig_lint.run (Suite.aig name)) in
      Alcotest.(check int) (name ^ " aig errors") 0 (List.length aig_errs);
      let net = Suite.lut_network name in
      let diags = Check.Net_lint.run net in
      Alcotest.(check int) (name ^ " net errors") 0 (List.length (errors diags));
      Alcotest.(check int)
        (name ^ " net warnings")
        0
        (List.length (warnings diags)))
    Suite.names

let test_stacked_and_seeds_error_free () =
  (* The stacked (putontop) variants plus random LUT networks from three
     seeds: levels prewarmed by stacking must never lint stale. *)
  List.iter
    (fun name ->
      let net = Suite.stacked_lut_network name in
      let diags = Check.Net_lint.run net in
      Alcotest.(check int)
        (name ^ " stacked errors")
        0
        (List.length (errors diags)))
    [ "apex2"; "dec" ];
  List.iter
    (fun seed ->
      let rng = Simgen_base.Rng.create seed in
      let net = N.create () in
      let ids = ref [] in
      for _ = 1 to 4 do
        ids := N.add_pi net :: !ids
      done;
      for _ = 1 to 40 do
        let pool = Array.of_list !ids in
        let k = 1 + Simgen_base.Rng.int rng 3 in
        let fanins =
          Array.init k (fun _ ->
              pool.(Simgen_base.Rng.int rng (Array.length pool)))
        in
        let f = TT.random rng k in
        ids := N.add_gate net f fanins :: !ids
      done;
      N.add_po net (List.hd !ids);
      let diags = Check.Net_lint.run net in
      Alcotest.(check int)
        (Printf.sprintf "seed %d errors" seed)
        0
        (List.length (errors diags)))
    [ 3; 17; 99 ]

(* ------------------------------------------------------------------ *)
(* Runtime audits                                                      *)
(* ------------------------------------------------------------------ *)

let violation f =
  try
    f ();
    None
  with Runtime_check.Violation msg -> Some msg

let test_audit_passes_on_honest_sweep () =
  Runtime_check.with_enabled true (fun () ->
      let net = Suite.lut_network "alu4" in
      let sw = Sweeper.create (opts 5) net in
      Sweeper.random_round sw;
      let _stats =
        Sweeper.sat_sweep
          { (opts 5) with Sweep_options.max_sat_calls = Some 25 }
          sw
      in
      (* Audits ran at every boundary without raising. *)
      Alcotest.(check bool) "merges happened or nothing to merge" true
        (Sweeper.cost sw >= 0))

let test_audit_catches_broken_merge () =
  Runtime_check.with_enabled true (fun () ->
      let net = Suite.lut_network "alu4" in
      let sw = Sweeper.create (opts 5) net in
      Sweeper.random_round sw;
      (* An "upward" merge is never a proven equivalence: representatives
         must only ever move to smaller ids. *)
      let subst = Sweeper.substitution sw in
      let n = Array.length subst in
      subst.(n - 2) <- n - 1;
      match violation (fun () -> Sweeper.random_round sw) with
      | Some msg ->
          Alcotest.(check bool)
            ("R003 in: " ^ msg)
            true
            (String.length msg >= 4 && String.sub msg 0 4 = "R003")
      | None -> Alcotest.fail "corrupted substitution went undetected")

let test_audit_off_by_default () =
  Runtime_check.set_enabled false;
  let net = Suite.lut_network "alu4" in
  let sw = Sweeper.create Sweep_options.default net in
  Sweeper.random_round sw;
  let subst = Sweeper.substitution sw in
  let n = Array.length subst in
  subst.(n - 2) <- n - 1;
  (* With audits off the corruption goes unnoticed (that is the deal). *)
  Alcotest.(check bool) "no raise" true
    (violation (fun () -> Sweeper.random_round sw) = None);
  subst.(n - 2) <- n - 2

let test_eq_partition_audit_positive () =
  Runtime_check.with_enabled true (fun () ->
      let net = Suite.lut_network "dec" in
      let eq = Simgen_sim.Eq_classes.create net in
      let rng = Simgen_base.Rng.create 11 in
      let words = Simgen_sim.Simulator.random_word rng net in
      Simgen_sim.Eq_classes.refine_word eq
        (Simgen_sim.Simulator.simulate_word net words);
      Check.Audit.eq_partition eq net)

let test_assignment_audit () =
  Runtime_check.with_enabled true (fun () ->
      let a = Simgen_core.Assignment.create 8 in
      Simgen_core.Assignment.assign a 3 true;
      Simgen_core.Assignment.assign a 5 false;
      Simgen_core.Assignment.audit a;
      let mark = Simgen_core.Assignment.checkpoint a in
      Simgen_core.Assignment.rollback a mark;
      Simgen_core.Assignment.audit a;
      (* A mark from the future is a caller bug the audit must flag. *)
      match
        violation (fun () -> Simgen_core.Assignment.rollback a (mark + 5))
      with
      | Some msg ->
          Alcotest.(check bool)
            ("R006 in: " ^ msg)
            true
            (String.length msg >= 4 && String.sub msg 0 4 = "R006")
      | None -> Alcotest.fail "bogus rollback mark went undetected")

let test_session_audits_during_cec () =
  (* R004/R005 run inside check_pair; an honest CEC must pass them all. *)
  Runtime_check.with_enabled true (fun () ->
      let net = Suite.lut_network "dec" in
      let report = Simgen_sweep.Cec.check Sweep_options.default net (N.copy net) in
      Alcotest.(check bool)
        "equivalent to itself" true
        (report.Simgen_sweep.Cec.outcome = Simgen_sweep.Cec.Equivalent))

(* ------------------------------------------------------------------ *)
(* Runner integration: pre-flight lint                                 *)
(* ------------------------------------------------------------------ *)

let test_runner_rejects_corrupt_input () =
  let net = clean_net () in
  N.Unsafe.set_fanins net 2 [| 4; 1 |] (* cycle *);
  let sink, collect = Simgen_runner.Events.memory () in
  let spec =
    Simgen_runner.Job.make ~id:0 (Simgen_runner.Job.Sweep (Simgen_runner.Job.Inline net))
  in
  let r = Simgen_runner.Exec.run ~events:sink ~worker:0 spec in
  (match r.Simgen_runner.Job.status with
   | Simgen_runner.Job.Failed { message; _ } ->
       Alcotest.(check bool) ("mentions N001: " ^ message) true
         (String.length message > 0)
   | _ -> Alcotest.fail "corrupt input did not fail the job");
  let events = collect () in
  Alcotest.(check bool) "lint event emitted" true
    (List.exists
       (fun e ->
         match e.Simgen_runner.Events.payload with
         | Simgen_runner.Events.Lint { errors; _ } -> errors > 0
         | _ -> false)
       events)

let test_runner_lints_clean_input () =
  let sink, collect = Simgen_runner.Events.memory () in
  let spec =
    Simgen_runner.Job.make ~id:0
      (Simgen_runner.Job.Sweep (Simgen_runner.Job.Inline (clean_net ())))
  in
  let r = Simgen_runner.Exec.run ~events:sink ~worker:0 spec in
  Alcotest.(check bool) "job swept" true
    (r.Simgen_runner.Job.status = Simgen_runner.Job.Swept);
  Alcotest.(check bool) "clean lint event" true
    (List.exists
       (fun e ->
         match e.Simgen_runner.Events.payload with
         | Simgen_runner.Events.Lint { errors = 0; warnings = 0; _ } -> true
         | _ -> false)
       (collect ()))

(* ------------------------------------------------------------------ *)
(* C007/C008: subsumption and complementary units                      *)
(* ------------------------------------------------------------------ *)

let test_cnf_subsumed () =
  let clauses =
    [
      [ L.pos 0 ];
      [ L.pos 0; L.neg 1 ] (* C007: subsumed by clause 0 *);
      [ L.neg 1; L.pos 2 ] (* shares ~x1 but is not subsumed *);
    ]
  in
  let diags = Check.Cnf_lint.run ~nvars:3 clauses in
  check_code "subsumption" "C007" diags;
  Alcotest.(check int) "exactly one C007" 1
    (List.length (List.filter (fun d -> d.D.code = "C007") diags));
  (* Exact duplicates stay C005, never C007. *)
  let dup = [ [ L.pos 0; L.neg 1 ]; [ L.neg 1; L.pos 0 ] ] in
  let diags = Check.Cnf_lint.run ~nvars:2 dup in
  check_code "duplicate" "C005" diags;
  Alcotest.(check bool) "no C007 on exact duplicate" false
    (has_code "C007" diags)

let test_cnf_complementary_units () =
  let clauses = [ [ L.pos 0; L.pos 1 ]; [ L.pos 2 ]; [ L.neg 2 ] ] in
  let diags = Check.Cnf_lint.run ~nvars:3 clauses in
  check_code "complementary units" "C008" diags;
  (* Repeating the same unit is C005 territory, not C008. *)
  let same = [ [ L.pos 0 ]; [ L.pos 0 ] ] in
  Alcotest.(check bool) "same-polarity units are not C008" false
    (has_code "C008" (Check.Cnf_lint.run ~nvars:1 same))

(* ------------------------------------------------------------------ *)
(* Semantic lints: seeded corruption -> expected S-code                *)
(* ------------------------------------------------------------------ *)

let tt_and = TT.of_bits 2 0b1000L
let tt_xor = TT.of_bits 2 0b0110L
let tt_xnor = TT.of_bits 2 0b1001L
let tt_nand = TT.of_bits 2 0b0111L
let tt_inv = TT.of_bits 1 0b01L

(* Shared scaffold: three PIs and two independent, non-constant gates.
   Semantically clean — the corruptions below each add the one defect
   their S-code must catch. *)
let sem_base () =
  let net = N.create ~name:"sem" () in
  let a = N.add_pi net and b = N.add_pi net and c = N.add_pi net in
  let g_and = N.add_gate net tt_and [| a; b |] in
  let g_xor = N.add_gate net tt_xor [| b; c |] in
  N.add_po net g_and;
  N.add_po net g_xor;
  (net, a, b, c, g_and, g_xor)

(* Each corruption returns the network and the S-code it must trigger.
   Together they cover every proved code (9 distinct corruption kinds). *)
let corruptions =
  [
    ( "const-true gate",
      "S001",
      fun () ->
        let net, a, b, _, g_and, _ = sem_base () in
        let dup = N.add_gate net tt_and [| a; b |] in
        let x = N.add_gate net tt_xnor [| g_and; dup |] in
        N.add_po net x;
        net );
    ( "const-false gate",
      "S001",
      fun () ->
        let net, a, b, _, g_and, _ = sem_base () in
        let dup = N.add_gate net tt_and [| a; b |] in
        let x = N.add_gate net tt_xor [| g_and; dup |] in
        N.add_po net x;
        net );
    ( "duplicated gate",
      "S003",
      fun () ->
        let net, a, b, _, _, _ = sem_base () in
        let dup = N.add_gate net tt_and [| a; b |] in
        N.add_po net dup;
        net );
    ( "complement-duplicated gate",
      "S004",
      fun () ->
        let net, a, b, _, _, _ = sem_base () in
        let nand = N.add_gate net tt_nand [| a; b |] in
        N.add_po net nand;
        net );
    ( "PO tied to the same node",
      "S005",
      fun () ->
        let net, _, _, _, g_and, _ = sem_base () in
        N.add_po net g_and;
        net );
    ( "POs driven by duplicate gates",
      "S005",
      fun () ->
        let net, a, b, _, _, _ = sem_base () in
        let dup = N.add_gate net tt_and [| a; b |] in
        N.add_po net dup;
        net );
    ( "complementary POs",
      "S006",
      fun () ->
        let net, _, _, _, g_and, _ = sem_base () in
        let inv = N.add_gate net tt_inv [| g_and |] in
        N.add_po net inv;
        net );
    ( "redundant mux select",
      "S002",
      fun () ->
        let net, a, b, c, g_and, _ = sem_base () in
        let dup = N.add_gate net tt_and [| a; b |] in
        (* x2 ? (x0 | x1) : (x0 & x1) over equivalent x0/x1: the select
           only matters when the data inputs differ, which they never
           do. *)
        let mux = N.add_gate net (TT.of_bits 3 0b11101000L) [| g_and; dup; c |] in
        N.add_po net mux;
        net );
    ( "dead gate behind a constant mask",
      "S007",
      fun () ->
        let net, a, b, c, g_and, _ = sem_base () in
        let dup = N.add_gate net tt_and [| a; b |] in
        let dead = N.add_gate net tt_xor [| b; c |] in
        (* x0 & (x1 ^ x2) with x1 == x2: always 0, so [dead] is
           unobservable. *)
        let masked =
          N.add_gate net (TT.of_bits 3 0b00101000L) [| dead; g_and; dup |]
        in
        N.add_po net masked;
        net );
  ]

let test_sem_corruptions () =
  List.iter
    (fun (what, code, build) ->
      List.iter
        (fun seed ->
          let diags = Check.Sem_lint.run ~seed (build ()) in
          check_code (Printf.sprintf "%s (seed %d)" what seed) code diags)
        [ 1; 2; 3 ])
    corruptions

let test_sem_clean () =
  (* The uncorrupted scaffold has no semantic defects: no S-code at all,
     under any prefilter seed. *)
  List.iter
    (fun seed ->
      let net, _, _, _, _, _ = sem_base () in
      let diags = Check.Sem_lint.run ~seed net in
      Alcotest.(check (list string))
        (Printf.sprintf "clean scaffold (seed %d)" seed)
        [] (codes diags))
    [ 1; 2; 3 ]

(* Independent verification of findings on a real benchmark: every
   equivalence/constancy the lint claims must also hold in the BDD
   engine (which shares no code with the SAT path). Clean suites contain
   true equivalences, so "no false positives" means "every finding
   re-proves", not "no findings". *)
let test_sem_no_false_positives () =
  let net = Suite.lut_network "dec" in
  let m = Bdd.manager ~max_nodes:200_000 (N.num_pis net) in
  let roots = Bdd.build_network m net in
  let pos = N.pos net in
  let verify (d : D.t) =
    let node_of = function
      | D.Node id -> id
      | _ -> Alcotest.fail (D.to_string d ^ ": expected a node location")
    in
    match d.D.code with
    | "S001" ->
        let id = node_of d.D.loc in
        Alcotest.(check bool)
          (D.to_string d ^ ": BDD agrees constant")
          true
          (Bdd.is_zero m roots.(id) || Bdd.is_one m roots.(id))
    | "S003" | "S004" ->
        let id = node_of d.D.loc in
        let rep =
          try Scanf.sscanf d.D.message "gate %d is provably equivalent to node %d"
                (fun _ r -> r)
          with Scanf.Scan_failure _ | End_of_file ->
            Scanf.sscanf d.D.message
              "gate %d is provably the complement of node %d" (fun _ r -> r)
        in
        let rhs =
          if d.D.code = "S003" then roots.(rep) else Bdd.not_ m roots.(rep)
        in
        Alcotest.(check bool)
          (D.to_string d ^ ": BDD agrees")
          true
          (Bdd.equal roots.(id) rhs)
    | "S005" | "S006" -> (
        match d.D.loc with
        | D.Named _ ->
            (try
               Scanf.sscanf d.D.message "PO %d is provably equal to PO %d"
                 (fun j i ->
                   Alcotest.(check bool)
                     (D.to_string d ^ ": BDD agrees")
                     true
                     (Bdd.equal roots.(pos.(j)) roots.(pos.(i))))
             with Scanf.Scan_failure _ | End_of_file -> (
               try
                 Scanf.sscanf d.D.message
                   "PO %d is provably the complement of PO %d" (fun j i ->
                     Alcotest.(check bool)
                       (D.to_string d ^ ": BDD agrees")
                       true
                       (Bdd.equal roots.(pos.(j)) (Bdd.not_ m roots.(pos.(i)))))
               with Scanf.Scan_failure _ | End_of_file ->
                 Scanf.sscanf d.D.message "PO %d and PO %d are the same node"
                   (fun j i ->
                     Alcotest.(check int)
                       (D.to_string d ^ ": same driver")
                       pos.(i) pos.(j))))
        | _ -> Alcotest.fail (D.to_string d ^ ": expected a named location"))
    | "S002" | "S007" ->
        (* Care-set properties; the DRUP re-check inside the lint is the
           verifier here. Presence is fine, nothing extra to cross-check
           against node-level BDDs. *)
        ()
    | "S008" -> Alcotest.fail (D.to_string d ^ ": unknown on a tiny benchmark")
    | code -> Alcotest.fail (D.to_string d ^ ": unexpected code " ^ code)
  in
  List.iter
    (fun seed -> List.iter verify (Check.Sem_lint.run ~seed net))
    [ 1; 2; 3 ]

let test_sem_budget_zero () =
  (* A zero conflict budget (and a BDD quota too small to build) answers
     every candidate query with an info-level S008 "unknown": never a
     crash, never a finding the engines could not prove, and never a
     nonzero exit code. *)
  let _, _, build = List.nth corruptions 0 in
  let diags = Check.Sem_lint.run ~budget:0 ~bdd_nodes:1 (build ()) in
  Alcotest.(check bool) "produced at least one unknown" true (diags <> []);
  List.iter
    (fun (d : D.t) ->
      Alcotest.(check string) "only S008 under zero budget" "S008" d.D.code;
      Alcotest.(check bool) "unknowns are info" true (d.D.severity = D.Info))
    diags;
  Alcotest.(check int) "exit code unaffected" 0 (D.exit_code diags)

(* ------------------------------------------------------------------ *)
(* Writer round-trips: write -> parse -> write is byte-identical       *)
(* ------------------------------------------------------------------ *)

let test_blif_idempotent () =
  (* One parse normalizes (the parser instantiates in dependency order
     and materializes PO buffers); from then on write -> parse -> write
     must be a byte-level fixpoint, and the interface must survive every
     round. *)
  List.iter
    (fun name ->
      let net = Suite.lut_network name in
      let n1 = Blif.parse_string (Blif.to_string net) in
      let s2 = Blif.to_string n1 in
      let s3 = Blif.to_string (Blif.parse_string s2) in
      Alcotest.(check string) (name ^ " blif fixpoint") s2 s3;
      Alcotest.(check int) (name ^ " pis survive") (N.num_pis net)
        (N.num_pis n1);
      Alcotest.(check int) (name ^ " pos survive")
        (Array.length (N.pos net))
        (Array.length (N.pos n1)))
    Suite.names

let test_dimacs_idempotent () =
  List.iter
    (fun name ->
      let env = Tseitin.create ~record:true () in
      let _ = Tseitin.encode_network env (Suite.lut_network name) in
      let nvars = Solver.num_vars (Tseitin.solver env) in
      let s1 = Dimacs.to_string nvars (Tseitin.clauses env) in
      let nvars2, clauses2 = Dimacs.parse_string s1 in
      let s2 = Dimacs.to_string nvars2 clauses2 in
      Alcotest.(check string) (name ^ " dimacs round-trip") s1 s2)
    Suite.names

(* ------------------------------------------------------------------ *)
(* JSONL schema: golden file                                           *)
(* ------------------------------------------------------------------ *)

(* One diagnostic per location kind and severity; the golden file pins
   the exact rendered bytes so any schema drift (field rename, ordering,
   escaping) fails here and forces a schema_version bump. *)
let golden_diags () =
  [
    D.error ~loc:(D.Node 7) "N001" "combinational cycle";
    D.warn ~loc:(D.Clause 3) "C003" "tautological clause (x1 and ~x1)";
    D.info ~loc:(D.Named "po 2") "S006" "PO 2 is provably the complement of PO 0";
    D.warn
      ~loc:(D.Src (Srcloc.make ~file:"a.blif" ~line:4 ()))
      "P001" "parse error: bad \"cover\" row";
    D.info "C006" "variable 9 declared but never referenced";
  ]

let test_schema_golden () =
  let rendered =
    String.concat ""
      (List.map (fun d -> D.to_json d ^ "\n") (golden_diags ()))
  in
  (* dune runtest stages deps next to the binary; dune exec runs from
     the workspace root. *)
  let path =
    if Sys.file_exists "golden/diagnostics.jsonl" then
      "golden/diagnostics.jsonl"
    else "test/golden/diagnostics.jsonl"
  in
  let ic = open_in path in
  let n = in_channel_length ic in
  let golden = really_input_string ic n in
  close_in ic;
  Alcotest.(check string) "JSONL output matches the golden file" golden
    rendered;
  let tag = Printf.sprintf "\"schema_version\":%d" D.schema_version in
  String.split_on_char '\n' rendered
  |> List.iter (fun line ->
         if line <> "" then
           Alcotest.(check bool)
             ("line carries schema_version: " ^ line)
             true
             (String.length line > String.length tag
              && (let rec go i =
                    i + String.length tag <= String.length line
                    && (String.sub line i (String.length tag) = tag
                        || go (i + 1))
                  in
                  go 0)))

(* ------------------------------------------------------------------ *)
(* Diagnostics plumbing                                                *)
(* ------------------------------------------------------------------ *)

let test_exit_codes () =
  let e = D.error "X001" "boom"
  and w = D.warn "X002" "hmm"
  and i = D.info "X003" "fyi" in
  Alcotest.(check int) "clean" 0 (D.exit_code []);
  Alcotest.(check int) "info only" 0 (D.exit_code [ i ]);
  Alcotest.(check int) "warnings" 1 (D.exit_code [ i; w ]);
  Alcotest.(check int) "errors dominate" 2 (D.exit_code [ i; w; e ]);
  match D.sort [ i; w; e ] with
  | first :: _ -> Alcotest.(check string) "errors sort first" "X001" first.D.code
  | [] -> Alcotest.fail "sort dropped diagnostics"

let test_json_rendering () =
  let d = D.error ~loc:(D.Node 7) "N001" "cycle with \"quotes\"" in
  let json = D.to_json d in
  Alcotest.(check bool) ("escaped: " ^ json) true
    (String.length json > 0
    && json.[0] = '{'
    && json.[String.length json - 1] = '}');
  (* The quote must be escaped, the node id present. *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "node loc" true (contains json {|"loc":{"node":7}|});
  Alcotest.(check bool) "escaped quotes" true (contains json {|\"quotes\"|});
  let located =
    D.warn
      ~loc:(D.Src (Simgen_base.Srcloc.make ~file:"x.blif" ~line:3 ()))
      "P001" "oops"
  in
  Alcotest.(check bool) "file/line loc" true
    (contains (D.to_json located) {|"loc":{"file":"x.blif","line":3}|})

let () =
  (* The suite-wide no-false-positive sweep assumes a clean slate; the
     audit tests flip the flag explicitly. *)
  Runtime_check.set_enabled false;
  Alcotest.run "simgen-check"
    [
      ( "net-lint",
        [
          Alcotest.test_case "clean network" `Quick test_clean_network;
          Alcotest.test_case "N001 cycle" `Quick test_cycle;
          Alcotest.test_case "N002 arity" `Quick test_arity_mismatch;
          Alcotest.test_case "N003 fanin refs" `Quick test_forward_and_range;
          Alcotest.test_case "N004 unreachable" `Quick test_unreachable;
          Alcotest.test_case "N006 duplicate names" `Quick test_duplicate_names;
          Alcotest.test_case "N008 const gate" `Quick test_constant_foldable;
          Alcotest.test_case "N009 buffer" `Quick test_buffer;
          Alcotest.test_case "N010 stale levels" `Quick test_stale_levels;
          Alcotest.test_case "levels invalidate" `Quick
            test_levels_recomputed_after_mutation;
          Alcotest.test_case "N012/N013 fanin hygiene" `Quick
            test_ignored_and_duplicate_fanin;
        ] );
      ( "aig-lint",
        [
          Alcotest.test_case "clean aig" `Quick test_aig_clean;
          Alcotest.test_case "A001 order" `Quick test_aig_non_canonical;
          Alcotest.test_case "A002 duplicate" `Quick test_aig_duplicate;
          Alcotest.test_case "A003 foldable" `Quick test_aig_foldable;
          Alcotest.test_case "A004 forward" `Quick test_aig_forward_fanin;
          Alcotest.test_case "A005 unreachable" `Quick test_aig_unreachable;
          Alcotest.test_case "A006 po range" `Quick test_aig_po_range;
        ] );
      ( "cnf-lint",
        [
          Alcotest.test_case "all codes" `Quick test_cnf_codes;
          Alcotest.test_case "clean cnf" `Quick test_cnf_clean;
          Alcotest.test_case "tseitin stream" `Quick test_tseitin_encoding_lint;
          Alcotest.test_case "session stream" `Quick test_session_stream_lint;
          Alcotest.test_case "C007 subsumption" `Quick test_cnf_subsumed;
          Alcotest.test_case "C008 complementary units" `Quick
            test_cnf_complementary_units;
        ] );
      ( "sem-lint",
        [
          Alcotest.test_case "seeded corruptions flagged" `Quick
            test_sem_corruptions;
          Alcotest.test_case "clean scaffold silent" `Quick test_sem_clean;
          Alcotest.test_case "findings re-prove in BDD" `Quick
            test_sem_no_false_positives;
          Alcotest.test_case "zero budget degrades to S008" `Quick
            test_sem_budget_zero;
        ] );
      ( "round-trips",
        [
          Alcotest.test_case "blif idempotent (42 suites)" `Quick
            test_blif_idempotent;
          Alcotest.test_case "dimacs idempotent (42 suites)" `Quick
            test_dimacs_idempotent;
        ] );
      ( "files",
        [
          Alcotest.test_case "P001 located" `Quick test_parse_error_located;
          Alcotest.test_case "P002 unknown" `Quick test_unknown_extension;
          Alcotest.test_case "dispatch clean" `Quick test_file_dispatch_clean;
        ] );
      ( "suites",
        [
          Alcotest.test_case "all suites error-free" `Quick
            test_suites_error_free;
          Alcotest.test_case "stacked + seeds" `Quick
            test_stacked_and_seeds_error_free;
        ] );
      ( "audits",
        [
          Alcotest.test_case "honest sweep passes" `Quick
            test_audit_passes_on_honest_sweep;
          Alcotest.test_case "broken merge caught" `Quick
            test_audit_catches_broken_merge;
          Alcotest.test_case "off by default" `Quick test_audit_off_by_default;
          Alcotest.test_case "eq partition" `Quick
            test_eq_partition_audit_positive;
          Alcotest.test_case "assignment" `Quick test_assignment_audit;
          Alcotest.test_case "session audits in cec" `Quick
            test_session_audits_during_cec;
        ] );
      ( "runner",
        [
          Alcotest.test_case "corrupt input rejected" `Quick
            test_runner_rejects_corrupt_input;
          Alcotest.test_case "clean input linted" `Quick
            test_runner_lints_clean_input;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "json" `Quick test_json_rendering;
          Alcotest.test_case "golden schema" `Quick test_schema_golden;
        ] );
    ]
