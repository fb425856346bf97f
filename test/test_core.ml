module N = Simgen_network.Network
module TT = Simgen_network.Truth_table
module Cube = Simgen_network.Cube
module Level = Simgen_network.Level
module Cone = Simgen_network.Cone
module Mffc = Simgen_network.Mffc
module Rng = Simgen_base.Rng
module Value = Simgen_core.Value
module Assignment = Simgen_core.Assignment
module Rows = Simgen_core.Rows
module Config = Simgen_core.Config
module Engine = Simgen_core.Engine
module Decision = Simgen_core.Decision
module Outgold = Simgen_core.Outgold
module VG = Simgen_core.Vector_gen
module Strategy = Simgen_core.Strategy

let tt_not = TT.not_ (TT.var 0 1)
let tt_and2 = TT.and_ (TT.var 0 2) (TT.var 1 2)
let tt_nand2 = TT.not_ tt_and2
let tt_or2 = TT.or_ (TT.var 0 2) (TT.var 1 2)
let tt_and_not = TT.and_ (TT.var 0 2) (TT.not_ (TT.var 1 2))

let random_net rng npis ngates =
  let net = N.create () in
  let ids = ref [] in
  for _ = 1 to npis do
    ids := N.add_pi net :: !ids
  done;
  for _ = 1 to ngates do
    let pool = Array.of_list !ids in
    let arity = 1 + Rng.int rng (min 4 (Array.length pool)) in
    let fanins = Array.init arity (fun _ -> Rng.choose rng pool) in
    ids := N.add_gate net (TT.random rng arity) fanins :: !ids
  done;
  let pool = Array.of_list !ids in
  for _ = 1 to 3 do
    N.add_po net (Rng.choose rng pool)
  done;
  net

(* The gate's matching rows as cubes, in row order. *)
let matching_cubes engine g =
  let rows = Engine.rows_of engine g in
  let buf = Array.make (Array.length rows) (-1) in
  List.init (Engine.matching_rows engine g buf) (fun k -> rows.(buf.(k)))

(* An engine whose scope is the whole network: every node is a root.
   An engine schedules nothing outside its scope, which is empty until
   the first [Engine.set_scope_cones]. *)
let scoped_engine ?config net =
  let engine = Engine.create ?config net in
  Engine.set_scope_cones engine (List.init (N.num_nodes net) Fun.id);
  engine

(* ------------------------------------------------------------------ *)
(* Value                                                               *)
(* ------------------------------------------------------------------ *)

let test_value_basics () =
  Alcotest.(check bool) "of_bool" true (Value.of_bool true = Value.One);
  Alcotest.(check (option bool)) "to_bool" (Some false) (Value.to_bool Value.Zero);
  Alcotest.(check (option bool)) "unknown" None (Value.to_bool Value.Unknown);
  Alcotest.(check bool) "assigned" true (Value.is_assigned Value.One);
  Alcotest.(check bool) "unassigned" false (Value.is_assigned Value.Unknown)

let test_value_compatibility () =
  Alcotest.(check bool) "unknown/T" true (Value.compatible Value.Unknown Cube.T);
  Alcotest.(check bool) "one/DC" true (Value.compatible Value.One Cube.DC);
  Alcotest.(check bool) "one/T" true (Value.compatible Value.One Cube.T);
  Alcotest.(check bool) "one/F" false (Value.compatible Value.One Cube.F);
  Alcotest.(check bool) "zero/T" false (Value.compatible Value.Zero Cube.T)

(* ------------------------------------------------------------------ *)
(* Assignment                                                          *)
(* ------------------------------------------------------------------ *)

let test_assignment_trail () =
  let a = Assignment.create 10 in
  Assignment.assign a 3 true;
  Assignment.assign a 7 false;
  Alcotest.(check bool) "value" true (Assignment.value a 3 = Value.One);
  Alcotest.(check int) "count" 2 (Assignment.num_assigned a);
  let mark = Assignment.checkpoint a in
  Assignment.assign a 1 true;
  Assignment.rollback a mark;
  Alcotest.(check bool) "rolled back" false (Assignment.is_assigned a 1);
  Alcotest.(check bool) "kept" true (Assignment.is_assigned a 7);
  Assignment.rollback a 0;
  Alcotest.(check int) "empty" 0 (Assignment.num_assigned a)

let test_assignment_double_assign () =
  let a = Assignment.create 4 in
  Assignment.assign a 0 true;
  Alcotest.check_raises "reassign rejected"
    (Invalid_argument "Assignment.assign: already assigned") (fun () ->
      Assignment.assign a 0 false)

let test_assignment_iter_since () =
  let a = Assignment.create 10 in
  Assignment.assign a 1 true;
  let mark = Assignment.checkpoint a in
  Assignment.assign a 2 true;
  Assignment.assign a 3 true;
  Alcotest.(check (list int)) "since checkpoint" [ 2; 3 ]
    (Array.to_list
       (Array.sub (Assignment.trail a) mark (Assignment.num_assigned a - mark)))

(* ------------------------------------------------------------------ *)
(* Rows cache                                                          *)
(* ------------------------------------------------------------------ *)

let test_rows_cache_sharing () =
  let cache = Rows.create () in
  let r1 = Rows.find cache tt_and2 in
  let r2 = Rows.find cache tt_and2 in
  Alcotest.(check bool) "physically shared" true (r1 == r2);
  Alcotest.(check int) "and rows: 1 on + 2 off" 3 (Array.length r1.Rows.cubes)

let test_rows_onset_first () =
  let cache = Rows.create () in
  let rows = (Rows.find cache tt_nand2).Rows.cubes in
  let rec onset_prefix seen_off = function
    | [] -> true
    | (c : Cube.t) :: rest ->
        if c.Cube.out then (not seen_off) && onset_prefix seen_off rest
        else onset_prefix true rest
  in
  Alcotest.(check bool) "onset cubes precede offset" true
    (onset_prefix false (Array.to_list rows))

(* ------------------------------------------------------------------ *)
(* Engine: the paper's Figure 1                                        *)
(* ------------------------------------------------------------------ *)

(* D = z = AND(x, y); x = AND(A, ~B); y = NAND(inv(B), C); inv = NOT(B) *)
let figure1 () =
  let net = N.create ~name:"fig1" () in
  let a = N.add_pi ~name:"A" net in
  let b = N.add_pi ~name:"B" net in
  let c = N.add_pi ~name:"C" net in
  let x = N.add_gate ~name:"x" net tt_and_not [| a; b |] in
  let inv = N.add_gate ~name:"inv" net tt_not [| b |] in
  let y = N.add_gate ~name:"y" net tt_nand2 [| inv; c |] in
  let z = N.add_gate ~name:"z" net tt_and2 [| x; y |] in
  N.add_po ~name:"D" net z;
  (net, a, b, c, inv, x, y, z)

let test_figure1_simgen_all_implied () =
  (* With forward implication the whole Figure 1 example resolves by
     implication alone: no decisions, no conflicts, vector A=1 B=0 C=0. *)
  let net, a, b, c, _, _, _, z = figure1 () in
  let engine = scoped_engine ~config:Config.default net in
  Engine.set engine z true;
  (match Engine.propagate engine with
   | Engine.Fixpoint -> ()
   | Engine.Conflict_at g -> Alcotest.fail (Printf.sprintf "conflict at %d" g));
  let asg = Engine.assignment engine in
  Alcotest.(check bool) "A=1" true (Assignment.value asg a = Value.One);
  Alcotest.(check bool) "B=0" true (Assignment.value asg b = Value.Zero);
  Alcotest.(check bool) "C=0" true (Assignment.value asg c = Value.Zero)

let test_figure1_backward_cannot_finish () =
  (* Reverse simulation stops after x's cone: y's inputs stay open
     because NAND with output 1 has two rows. *)
  let net, a, b, c, _, _, _, z = figure1 () in
  let engine = scoped_engine ~config:Config.reverse_simulation net in
  Engine.set engine z true;
  (match Engine.propagate engine with
   | Engine.Fixpoint -> ()
   | Engine.Conflict_at _ -> Alcotest.fail "no conflict expected yet");
  let asg = Engine.assignment engine in
  Alcotest.(check bool) "A implied" true (Assignment.value asg a = Value.One);
  Alcotest.(check bool) "B implied" true (Assignment.value asg b = Value.Zero);
  Alcotest.(check bool) "C needs a decision" true
    (Assignment.value asg c = Value.Unknown)

let test_figure1_full_generation () =
  (* SimGen always finds the vector; every produced vector really sets
     D = 1 under simulation. *)
  for seed = 1 to 50 do
    let net, _, _, _, _, _, _, z = figure1 () in
    let r = VG.generate ~config:Config.default ~rng:(Rng.create seed) net [ (z, true) ] in
    Alcotest.(check int) "no conflicts" 0 r.VG.conflicts;
    Alcotest.(check bool) "satisfied" true (r.VG.satisfied <> []);
    let vals = N.eval net r.VG.vector in
    Alcotest.(check bool) "D = 1 under simulation" true vals.(z)
  done

let test_figure1_revs_sometimes_fails () =
  let failures = ref 0 in
  for seed = 1 to 100 do
    let net, _, _, _, _, _, _, z = figure1 () in
    let r =
      VG.generate ~config:Config.reverse_simulation ~rng:(Rng.create seed) net
        [ (z, true) ]
    in
    if r.VG.satisfied = [] then incr failures
    else begin
      (* When reverse simulation claims success the vector must be valid. *)
      let vals = N.eval net r.VG.vector in
      Alcotest.(check bool) "valid on success" true vals.(z)
    end
  done;
  Alcotest.(check bool) "reverse simulation conflicts sometimes" true
    (!failures > 10);
  Alcotest.(check bool) "but not always" true (!failures < 90)

(* ------------------------------------------------------------------ *)
(* Engine: the paper's Figure 3 (advanced implication)                 *)
(* ------------------------------------------------------------------ *)

(* Figure 3: F = NOT(B); f1_left(B, C) with O = f1_left; f1_right(B, D=?,
   E) ... We model the essence: a node whose matching rows all agree on
   the output while disagreeing on one input. f = (x0 & x1) | (x0 & x2):
   with x0=1 known: rows 11-, 1-1 both give out 1 -> advanced implication
   sets out without deciding x1/x2. *)
let test_advanced_implication_output_only () =
  let net = N.create () in
  let b = N.add_pi net in
  let c = N.add_pi net in
  let e = N.add_pi net in
  let f =
    TT.or_
      (TT.and_ (TT.var 0 3) (TT.var 1 3))
      (TT.and_ (TT.var 0 3) (TT.var 2 3))
  in
  let o = N.add_gate net f [| b; c; e |] in
  N.add_po net o;
  let engine = scoped_engine ~config:Config.default net in
  Engine.set engine b true;
  Engine.set engine c true;
  (match Engine.propagate engine with
   | Engine.Fixpoint -> ()
   | Engine.Conflict_at _ -> Alcotest.fail "no conflict");
  let asg = Engine.assignment engine in
  Alcotest.(check bool) "O implied to 1" true (Assignment.value asg o = Value.One);
  Alcotest.(check bool) "E left unassigned" true
    (Assignment.value asg e = Value.Unknown)

let test_simple_implication_misses_it () =
  (* The same situation under simple implication: two rows match, so
     nothing is implied. *)
  let net = N.create () in
  let b = N.add_pi net in
  let c = N.add_pi net in
  let e = N.add_pi net in
  let f =
    TT.or_
      (TT.and_ (TT.var 0 3) (TT.var 1 3))
      (TT.and_ (TT.var 0 3) (TT.var 2 3))
  in
  let o = N.add_gate net f [| b; c; e |] in
  N.add_po net o;
  let config = { Config.default with Config.implication = Config.Simple } in
  let engine = scoped_engine ~config net in
  Engine.set engine b true;
  Engine.set engine c true;
  ignore (Engine.propagate engine);
  let asg = Engine.assignment engine in
  Alcotest.(check bool) "O not implied under simple" true
    (Assignment.value asg o = Value.Unknown);
  ignore e

let test_figure3_cascade () =
  (* Advanced implication enables a further implication downstream
     (Figure 3's G = f2 = AND(O, ...)): once O is implied to 1, the AND's
     output becomes decidable by its other input. *)
  let net = N.create () in
  let b = N.add_pi net in
  let c = N.add_pi net in
  let e = N.add_pi net in
  let d = N.add_pi net in
  let f =
    TT.or_
      (TT.and_ (TT.var 0 3) (TT.var 1 3))
      (TT.and_ (TT.var 0 3) (TT.var 2 3))
  in
  let o = N.add_gate net f [| b; c; e |] in
  let g2 = N.add_gate net tt_and2 [| o; d |] in
  N.add_po net g2;
  let engine = scoped_engine ~config:Config.default net in
  Engine.set engine b true;
  Engine.set engine c true;
  Engine.set engine d true;
  ignore (Engine.propagate engine);
  let asg = Engine.assignment engine in
  Alcotest.(check bool) "G implied through cascade" true
    (Assignment.value asg g2 = Value.One)

(* ------------------------------------------------------------------ *)
(* Engine: conflicts and rollback                                      *)
(* ------------------------------------------------------------------ *)

let test_conflict_detection () =
  (* x = AND(a,b) = 1 forces a=b=1; y = NOR(a,b) = 1 forces a=b=0. *)
  let net = N.create () in
  let a = N.add_pi net in
  let b = N.add_pi net in
  let x = N.add_gate net tt_and2 [| a; b |] in
  let y = N.add_gate net (TT.not_ tt_or2) [| a; b |] in
  N.add_po net x;
  N.add_po net y;
  let engine = scoped_engine ~config:Config.default net in
  let mark = Engine.checkpoint engine in
  Engine.set engine x true;
  (match Engine.propagate engine with
   | Engine.Fixpoint -> ()
   | Engine.Conflict_at _ -> Alcotest.fail "x=1 alone is consistent");
  Engine.set engine y true;
  (match Engine.propagate engine with
   | Engine.Conflict_at _ -> ()
   | Engine.Fixpoint -> Alcotest.fail "x=1 and y=1 must conflict");
  Engine.rollback engine mark;
  Alcotest.(check int) "clean after rollback" 0
    (Assignment.num_assigned (Engine.assignment engine))

let test_backward_consistency_check () =
  (* Regression: in backward-only mode a gate whose output was required
     must be re-checked when its inputs arrive through other paths.
     g = OR(a, b) required 1; a and b then forced to 0 via other gates. *)
  let net = N.create () in
  let a = N.add_pi net in
  let b = N.add_pi net in
  let g = N.add_gate net tt_or2 [| a; b |] in
  (* Two NOT gates whose outputs at 1 force a = 0 and b = 0. *)
  let na = N.add_gate net tt_not [| a |] in
  let nb = N.add_gate net tt_not [| b |] in
  N.add_po net g;
  N.add_po net na;
  N.add_po net nb;
  let engine = scoped_engine ~config:Config.reverse_simulation net in
  Engine.set engine g true;
  (match Engine.propagate engine with
   | Engine.Fixpoint -> ()
   | Engine.Conflict_at _ -> Alcotest.fail "g=1 alone is consistent");
  Engine.set engine na true;
  (match Engine.propagate engine with
   | Engine.Fixpoint -> ()
   | Engine.Conflict_at _ -> Alcotest.fail "a=0 alone is consistent");
  Engine.set engine nb true;
  (match Engine.propagate engine with
   | Engine.Conflict_at _ -> ()
   | Engine.Fixpoint ->
       Alcotest.fail "a=0 and b=0 contradict the required g=1")

let test_scope_confines_propagation () =
  (* With a scope covering only the left half, values must not propagate
     into the right half. *)
  let net = N.create () in
  let a = N.add_pi net in
  let left = N.add_gate net tt_not [| a |] in
  let right = N.add_gate net tt_not [| a |] in
  let right2 = N.add_gate net tt_not [| right |] in
  N.add_po net left;
  N.add_po net right2;
  let engine = Engine.create ~config:Config.default net in
  (* The scope {a, left} is the fanin cone of [left]. *)
  Engine.set_scope_cones engine [ left ];
  Engine.set engine a true;
  (match Engine.propagate engine with
   | Engine.Fixpoint -> ()
   | Engine.Conflict_at _ -> Alcotest.fail "no conflict");
  let asg = Engine.assignment engine in
  Alcotest.(check bool) "in-scope gate implied" true
    (Assignment.value asg left = Value.Zero);
  Alcotest.(check bool) "out-of-scope gate untouched" true
    (Assignment.value asg right = Value.Unknown);
  (* Widening the scope to the right half and re-seeding resumes
     propagation there. *)
  Engine.set_scope_cones engine [ left; right2 ];
  Engine.set engine right false;
  ignore (Engine.propagate engine);
  Alcotest.(check bool) "propagates after widening" true
    (Assignment.value asg right2 = Value.One)

let test_fresh_engine_has_empty_scope () =
  (* An engine starts with an empty scope: a value set before the first
     [set_scope_cones] schedules nothing. *)
  let net, a, b, c, _, _, _, z = figure1 () in
  let engine = Engine.create ~config:Config.default net in
  let asg = Engine.assignment engine in
  Engine.set engine z true;
  (match Engine.propagate engine with
   | Engine.Fixpoint -> ()
   | Engine.Conflict_at _ -> Alcotest.fail "nothing scheduled, no conflict");
  Alcotest.(check int) "only the seed assigned" 1 (Assignment.num_assigned asg);
  Alcotest.(check bool) "z out of scope" false (Engine.in_scope engine z);
  (* Scoped to z's cone, the same seed implies the whole Figure 1 vector. *)
  Engine.rollback engine 0;
  Engine.set_scope_cones engine [ z ];
  Engine.set engine z true;
  (match Engine.propagate engine with
   | Engine.Fixpoint -> ()
   | Engine.Conflict_at g -> Alcotest.fail (Printf.sprintf "conflict at %d" g));
  Alcotest.(check bool) "A=1" true (Assignment.value asg a = Value.One);
  Alcotest.(check bool) "B=0" true (Assignment.value asg b = Value.Zero);
  Alcotest.(check bool) "C=0" true (Assignment.value asg c = Value.Zero)

(* ------------------------------------------------------------------ *)
(* Scope and cone marks, and the candidate scan                        *)
(* ------------------------------------------------------------------ *)

let test_latest_candidate () =
  (* z = AND (AND a b) (OR a b); w = NOT b lies outside z's cone. *)
  let net = N.create () in
  let a = N.add_pi net in
  let b = N.add_pi net in
  let x = N.add_gate net tt_and2 [| a; b |] in
  let y = N.add_gate net tt_or2 [| a; b |] in
  let z = N.add_gate net tt_and2 [| x; y |] in
  let w = N.add_gate net tt_not [| b |] in
  N.add_po net z;
  N.add_po net w;
  let engine = Engine.create net in
  let asg = Engine.assignment engine in
  Engine.mark_cone engine z;
  Engine.clear_exhausted engine;
  Assignment.assign asg x true;
  Assignment.assign asg w true;
  Assignment.assign asg y false;
  Alcotest.(check int) "latest in cone" y (Engine.latest_candidate engine ~since:0);
  Engine.set_exhausted engine y;
  Alcotest.(check int) "exhausted skipped" x
    (Engine.latest_candidate engine ~since:0);
  Alcotest.(check int) "bounded by since" (-1)
    (Engine.latest_candidate engine ~since:1);
  Assignment.assign asg a true;
  Assignment.assign asg b false;
  Alcotest.(check int) "PIs and justified gates skipped" (-1)
    (Engine.latest_candidate engine ~since:0);
  Engine.clear_exhausted engine;
  Alcotest.(check int) "fresh exhausted set" (-1)
    (Engine.latest_candidate engine ~since:0);
  Assignment.rollback asg 3;
  Alcotest.(check int) "after rollback" y (Engine.latest_candidate engine ~since:0)

(* [copies] random blocks of 4 inputs and 6 gates, each block fed by the
   last four gates of the one below: a network thousands of levels deep,
   like the stacked networks of §6.4. *)
let stacked_net rng copies =
  let net = N.create () in
  let inputs = ref (Array.init 4 (fun _ -> N.add_pi net)) in
  for _ = 1 to copies do
    let pool = ref (Array.to_list !inputs) in
    for _ = 1 to 6 do
      let choices = Array.of_list !pool in
      let arity = 1 + Rng.int rng 3 in
      let fanins = Array.init arity (fun _ -> Rng.choose rng choices) in
      pool := N.add_gate net (TT.random rng arity) fanins :: !pool
    done;
    inputs := Array.of_list (List.filteri (fun i _ -> i < 4) !pool)
  done;
  Array.iter (N.add_po net) !inputs;
  net

(* Every node's chain is its in-scope fanouts in [N.fanouts] order,
   duplicates included, and is empty outside the scope. *)
let check_chains net engine =
  let ok = ref true in
  N.iter_nodes net (fun id ->
      let expected =
        if Engine.in_scope engine id then
          List.filter (Engine.in_scope engine) (N.fanouts net id)
        else []
      in
      if Engine.scope_chain engine id <> expected then ok := false);
  !ok

let check_marks net engine roots =
  let mask = Cone.member_mask net (Cone.fanin_cone_many net roots) in
  Engine.set_scope_cones engine roots;
  let root = List.hd roots in
  let cone = Cone.member_mask net (Cone.fanin_cone_many net [ root ]) in
  Engine.mark_cone engine root;
  let ok = ref true in
  N.iter_nodes net (fun id ->
      if Engine.in_scope engine id <> mask.(id) then ok := false;
      if Engine.in_cone engine id <> cone.(id) then ok := false);
  !ok && check_chains net engine

let prop_marks_match_fanin_cones =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"scope and cone marks are the fanin cones"
       ~count:200 ~print:string_of_int
       QCheck2.Gen.(int_range 0 1_000_000)
       (fun seed ->
         let rng = Rng.create seed in
         (* Two or three PIs feed 30 gates: long PI fanout lists. A gate
            reading one PI twice puts it twice on that PI's list. *)
         let net = random_net rng (2 + Rng.int rng 2) 30 in
         let pi = (N.pis net).(0) in
         N.add_po net (N.add_gate net (TT.random rng 2) [| pi; pi |]);
         let engine = Engine.create net in
         let nodes = N.num_nodes net in
         (* Several markings on one engine: each replaces the last. *)
         List.for_all
           (fun k ->
             check_marks net engine
               (List.init k (fun _ -> Rng.int rng nodes)))
           [ 1; 3; 1; 5 ]))

let test_marks_on_deep_network () =
  let rng = Rng.create 41 in
  let net = stacked_net rng 20_000 in
  let engine = Engine.create net in
  let pos = Array.to_list (N.pos net) in
  Alcotest.(check bool) "every PO" true (check_marks net engine pos);
  Alcotest.(check bool) "one PO" true
    (check_marks net engine [ List.nth pos 2 ])

(* The scan this engine call replaced: [latest_in ~since ~mask p], the
   newest trail entry from [since] on in [mask] satisfying [p], over the
   cone as {!Cone.fanin_cone_many} computes it. *)
let reference_latest net asg ~since cone exhausted =
  let is_candidate id =
    (not (N.is_pi net id))
    && (not exhausted.(id))
    && Array.exists
         (fun f -> not (Assignment.is_assigned asg f))
         (N.fanins net id)
  in
  let trail =
    List.rev
      (Array.to_list
         (Array.sub (Assignment.trail asg) since
            (Assignment.num_assigned asg - since)))
  in
  match List.find_opt (fun id -> cone.(id) && is_candidate id) trail with
  | Some id -> id
  | None -> -1

let prop_latest_candidate_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"latest_candidate is latest_in over the cone"
       ~count:300 ~print:string_of_int
       QCheck2.Gen.(int_range 0 1_000_000)
       (fun seed ->
         let rng = Rng.create seed in
         let net = random_net rng 5 30 in
         let nodes = N.num_nodes net in
         let engine = Engine.create net in
         let asg = Engine.assignment engine in
         let root = Rng.int rng nodes in
         let cone = Cone.member_mask net (Cone.fanin_cone_many net [ root ]) in
         Engine.mark_cone engine root;
         Engine.clear_exhausted engine;
         let exhausted = Array.make nodes false in
         let order = Array.init nodes Fun.id in
         Rng.shuffle rng order;
         Array.iteri
           (fun k id ->
             if k < nodes / 2 then Assignment.assign asg id (Rng.bool rng);
             if Rng.int rng 4 = 0 then begin
               exhausted.(id) <- true;
               Engine.set_exhausted engine id
             end)
           order;
         let since = Rng.int rng (Assignment.num_assigned asg + 1) in
         Engine.latest_candidate engine ~since
         = reference_latest net asg ~since cone exhausted))

let test_pending_conflict_on_set () =
  let net = N.create () in
  let a = N.add_pi net in
  N.add_po net a;
  let engine = scoped_engine net in
  Engine.set engine a true;
  Engine.set engine a true;
  (* same value: no-op *)
  (match Engine.propagate engine with
   | Engine.Fixpoint -> ()
   | Engine.Conflict_at _ -> Alcotest.fail "same value is not a conflict");
  Engine.set engine a false;
  match Engine.propagate engine with
  | Engine.Conflict_at _ -> ()
  | Engine.Fixpoint -> Alcotest.fail "opposite value must conflict"

let prop_engine_forward_soundness =
  (* Values propagated forward from PI assignments are realized by
     simulating any completion of the remaining PIs. (Goal values set on
     internal nodes are only guaranteed after Algorithm 1's decision loop
     justifies them; that is covered by the vector_gen property below.) *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"forward implications are sound" ~count:200
       QCheck2.Gen.(int_range 0 1_000_000)
       (fun seed ->
         let rng = Rng.create seed in
         let net = random_net rng 5 20 in
         let engine = scoped_engine ~config:Config.default net in
         let pis = N.pis net in
         (* Seed a random subset of PI values. *)
         Array.iter
           (fun pi -> if Rng.bool rng then Engine.set engine pi (Rng.bool rng))
           pis;
         match Engine.propagate engine with
         | Engine.Conflict_at _ -> false (* PI seeds alone cannot conflict *)
         | Engine.Fixpoint ->
             let asg = Engine.assignment engine in
             let vec = Array.make (N.num_pis net) false in
             Array.iter
               (fun pi ->
                 let idx =
                   match N.kind net pi with N.Pi i -> i | N.Gate _ -> 0
                 in
                 vec.(idx) <-
                   (match Value.to_bool (Assignment.value asg pi) with
                    | Some v -> v
                    | None -> Rng.bool rng))
               pis;
             let vals = N.eval net vec in
             let ok = ref true in
             N.iter_nodes net (fun id ->
                 match Value.to_bool (Assignment.value asg id) with
                 | Some v -> if vals.(id) <> v then ok := false
                 | None -> ());
             !ok))

(* ------------------------------------------------------------------ *)
(* Row sets against the cube-by-cube definitions                       *)
(* ------------------------------------------------------------------ *)

let tt_parity n =
  List.fold_left (fun acc i -> TT.xor acc (TT.var i n)) (TT.var 0 n)
    (List.init (n - 1) (fun i -> i + 1))

let test_rows_sets_xor7 () =
  (* Parity has no don't-cares: one row per minterm, so 128 rows spill
     over three 63-row words. *)
  let table = Rows.find (Rows.create ()) (tt_parity 7) in
  Alcotest.(check int) "rows" 128 (Array.length table.Rows.cubes);
  Alcotest.(check int) "words" 3 table.Rows.words;
  let bit set r =
    table.Rows.sets.((set * table.Rows.words) + (r / Rows.bits_per_word))
    land (1 lsl (r mod Rows.bits_per_word))
    <> 0
  in
  Array.iteri
    (fun r (c : Cube.t) ->
      Alcotest.(check bool) "all rows" true (bit Rows.all_rows r);
      Alcotest.(check bool) "on rows" c.Cube.out (bit Rows.on_rows r);
      Array.iteri
        (fun i l ->
          let t_set = Rows.input_rows + (2 * i) in
          Alcotest.(check bool) "T rows" (l = Cube.T) (bit t_set r);
          Alcotest.(check bool) "F rows" (l = Cube.F) (bit (t_set + 1) r))
        c.Cube.lits)
    table.Rows.cubes;
  Alcotest.(check bool) "no row past the last" false (bit Rows.all_rows 128)

(* Reference Def. 2.2 / Def. 4.1 on one gate, cube by cube: the values
   of the output and of each fanin after one examination, or [None] on a
   conflict. *)
let reference_examine (cfg : Config.t) rows out ins =
  let matching =
    List.filter
      (fun (c : Cube.t) ->
        Value.compatible out (if c.Cube.out then Cube.T else Cube.F)
        && Array.for_all2 Value.compatible ins c.Cube.lits)
      (Array.to_list rows)
  in
  let agreed = function
    | first :: rest when first <> Cube.DC && List.for_all (( = ) first) rest ->
        Value.of_bool (first = Cube.T)
    | _ -> Value.Unknown
  in
  let fill v implied = if Value.is_assigned v then v else implied in
  if cfg.Config.direction = Config.Backward_only && out = Value.Unknown then
    Some (out, ins)
  else
    match matching with
    | [] -> None
    | _ :: _ :: _ when cfg.Config.implication = Config.Simple -> Some (out, ins)
    | _ ->
        let lit (c : Cube.t) = if c.Cube.out then Cube.T else Cube.F in
        Some
          ( fill out (agreed (List.map lit matching)),
            Array.mapi
              (fun i v ->
                fill v (agreed (List.map (fun (c : Cube.t) -> c.Cube.lits.(i)) matching)))
              ins )

let prop_row_sets_match_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"row sets agree with cube-by-cube matching and implication"
       ~count:1000 ~print:string_of_int
       QCheck2.Gen.(int_range 0 1_000_000)
       (fun seed ->
         let rng = Rng.create seed in
         let n = 1 + Rng.int rng 8 in
         (* Parity of 6 inputs has 64 rows, one past a row-set word, and
            parity of 7 has 128: both take the multi-word kernel, random
            tables of up to 63 rows the one-word kernel. *)
         let f, n =
           match Rng.int rng 8 with
           | 0 -> (tt_parity 6, 6)
           | 1 -> (tt_parity 7, 7)
           | _ -> (TT.random rng n, n)
         in
         let random_value () =
           match Rng.int rng 3 with
           | 0 -> Value.Unknown
           | 1 -> Value.Zero
           | _ -> Value.One
         in
         let net = N.create () in
         let pis = Array.init n (fun _ -> N.add_pi net) in
         let g = N.add_gate net f pis in
         N.add_po net g;
         let cfg =
           {
             Config.default with
             Config.implication =
               (if Rng.bool rng then Config.Advanced else Config.Simple);
             direction =
               (if Rng.int rng 4 = 0 then Config.Backward_only
                else Config.Bidirectional);
           }
         in
         let engine = scoped_engine ~config:cfg net in
         let ins = Array.init n (fun _ -> random_value ()) in
         (* A gate is examined when one of its values arrives. *)
         let out =
           match random_value () with
           | Value.Unknown when Array.for_all (( = ) Value.Unknown) ins ->
               Value.of_bool (Rng.bool rng)
           | v -> v
         in
         let seed_value id v =
           Option.iter (Engine.set engine id) (Value.to_bool v)
         in
         Array.iteri (fun i v -> seed_value pis.(i) v) ins;
         seed_value g out;
         let rows = Engine.rows_of engine g in
         let expected_matching =
           List.filter
             (fun (c : Cube.t) ->
               Value.compatible out (if c.Cube.out then Cube.T else Cube.F)
               && Array.for_all2 Value.compatible ins c.Cube.lits)
             (Array.to_list rows)
         in
         let matching = matching_cubes engine g in
         let asg = Engine.assignment engine in
         (* One gate over distinct PIs: examining it again after its own
            implications finds the same matching rows, so the fixpoint is
            the result of a single examination. *)
         let actual =
           match Engine.propagate engine with
           | Engine.Conflict_at _ -> None
           | Engine.Fixpoint ->
               Some (Assignment.value asg g, Array.map (Assignment.value asg) pis)
         in
         matching = expected_matching
         && actual = reference_examine cfg rows out ins))

(* ------------------------------------------------------------------ *)
(* Decision: Figure 4 heuristics                                       *)
(* ------------------------------------------------------------------ *)

let test_dc_ranking_prefers_dcs () =
  (* For an AND gate with output 0 the DC-bearing rows (0-, -0) must win
     over... they are the only rows; check priorities directly. *)
  let net = N.create () in
  let a = N.add_pi net in
  let b = N.add_pi net in
  let x = N.add_gate net tt_and2 [| a; b |] in
  N.add_po net x;
  let engine =
    scoped_engine
      ~config:{ Config.default with Config.decision = Config.Dc_weighted }
      net
  in
  let decision = Decision.create ~rng:(Rng.create 1) engine in
  Engine.set engine x false;
  ignore (Engine.propagate engine);
  let rows = matching_cubes engine x in
  Alcotest.(check int) "two matching rows" 2 (List.length rows);
  List.iter
    (fun r -> Alcotest.(check int) "each off row has one DC" 1 (Cube.dc_size r))
    rows;
  ignore decision

let test_mffc_rank_figure4c () =
  (* Figure 4c: gate z's two fanins head MFFCs of depth 0 (single gate x)
     and 2 (three-gate chain); mffc_rank must prefer assigning the non-DC
     to the deep side. *)
  let net = N.create () in
  let p1 = N.add_pi net in
  let p2 = N.add_pi net in
  let p3 = N.add_pi net in
  let p4 = N.add_pi net in
  (* left input: single gate x over two PIs -> depth 0 *)
  let x = N.add_gate net tt_and2 [| p1; p2 |] in
  (* right input: chain m -> n -> y of depth 2 *)
  let m = N.add_gate net tt_not [| p3 |] in
  let n = N.add_gate net tt_and2 [| m; p4 |] in
  let y = N.add_gate net tt_not [| n |] in
  let z = N.add_gate net tt_and2 [| x; y |] in
  N.add_po net z;
  let engine = Engine.create ~config:Config.default net in
  let decision = Decision.create ~rng:(Rng.create 1) engine in
  (* Rows of AND with out=0: "0-" (non-DC on x, depth 0) and "-0" (non-DC
     on y, depth 2). *)
  let index row =
    let rows = Engine.rows_of engine z in
    let rec find r = if rows.(r) = row then r else find (r + 1) in
    find 0
  in
  let row_x0 = index (Cube.make [| Cube.F; Cube.DC |] false) in
  let row_y0 = index (Cube.make [| Cube.DC; Cube.F |] false) in
  let rank_x = Decision.mffc_rank decision z row_x0 in
  let rank_y = Decision.mffc_rank decision z row_y0 in
  Alcotest.(check (float 0.001)) "left rank 0" 0.0 rank_x;
  Alcotest.(check bool) "right rank higher" true (rank_y > rank_x)

let test_decision_assigns_matching_row () =
  let rng = Rng.create 211 in
  for _ = 1 to 30 do
    let net = random_net rng 4 15 in
    let engine = scoped_engine ~config:Config.default net in
    let decision = Decision.create ~rng:(Rng.split rng) engine in
    let target = N.num_nodes net - 1 in
    if not (N.is_pi net target) then begin
      Engine.set engine target (Rng.bool rng);
      match Engine.propagate engine with
      | Engine.Conflict_at _ -> ()
      | Engine.Fixpoint -> (
          match matching_cubes engine target with
          | [] -> Alcotest.fail "fixpoint with no matching rows"
          | _ :: _ -> (
              match Decision.decide decision target with
              | Error _ -> Alcotest.fail "decision on matching rows failed"
              | Ok () -> (
                  (* After the decision the target must still have matching
                     rows (the chosen row itself). *)
                  match matching_cubes engine target with
                  | [] -> Alcotest.fail "decision created a dead end"
                  | _ -> ())))
    end
  done

(* The list-based row choice that the index-based [Decision.decide]
   replaced, kept as its reference: Eq. 3 ranks from the fanins' MFFC
   depths, Eq. 4 priorities with Laplace smoothing, and a
   stochastic-acceptance roulette, all on freshly built arrays. *)
let reference_choose_row (cfg : Config.t) rng ~depths = function
  | [] -> invalid_arg "reference_choose_row: no rows"
  | [ row ] -> row
  | rows -> (
      let arr = Array.of_list rows in
      let roulette priorities =
        let max_p = Array.fold_left max 0.0 priorities in
        if max_p <= 0.0 then arr.(Rng.int rng (Array.length arr))
        else
          let rec draw attempts =
            let i = Rng.int rng (Array.length arr) in
            if attempts > 1000 || Rng.float rng 1.0 <= priorities.(i) /. max_p
            then arr.(i)
            else draw (attempts + 1)
          in
          draw 0
      in
      let rank (row : Cube.t) =
        let total = ref 0.0 in
        Array.iteri
          (fun i l ->
            match l with
            | Cube.DC -> ()
            | Cube.T | Cube.F -> total := !total +. depths.(i))
          row.Cube.lits;
        !total
      in
      match cfg.Config.decision with
      | Config.Random_row -> arr.(Rng.int rng (Array.length arr))
      | Config.Dc_weighted ->
          roulette
            (Array.map (fun r -> 1.0 +. float_of_int (Cube.dc_size r)) arr)
      | Config.Dc_mffc_weighted ->
          let ranks = Array.map rank arr in
          let max_rank = Array.fold_left max 0.0 ranks in
          roulette
            (Array.map
               (fun r ->
                 let dc = float_of_int (Cube.dc_size r) in
                 let normalised =
                   if max_rank > 0.0 then rank r /. max_rank else 0.0
                 in
                 1.0 +. ((cfg.Config.alpha *. dc) +. (cfg.Config.beta *. normalised)))
               arr))

(* Random networks of gates of up to 4 inputs over 8 PIs, with 6- and
   7-input parity gates (64 and 128 rows, wider than one row-set word)
   mixed in. *)
let random_wide_net rng =
  let net = N.create () in
  let ids = ref (List.init 8 (fun _ -> N.add_pi net)) in
  for _ = 1 to 20 do
    let pool = Array.of_list !ids in
    let f, arity =
      match Rng.int rng 8 with
      | 0 -> (tt_parity 6, 6)
      | 1 -> (tt_parity 7, 7)
      | _ ->
          let arity = 1 + Rng.int rng 4 in
          (TT.random rng arity, arity)
    in
    let fanins = Array.init arity (fun _ -> Rng.choose rng pool) in
    ids := N.add_gate net f fanins :: !ids
  done;
  N.add_po net (List.hd !ids);
  net

let prop_decision_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"decisions match the list-based reference (3 policies)"
       ~count:300 ~print:string_of_int
       QCheck2.Gen.(int_range 0 1_000_000)
       (fun seed ->
         let rng = Rng.create seed in
         let net = random_wide_net rng in
         let nodes = N.num_nodes net in
         let values = Array.init nodes (fun _ -> Rng.int rng 3) in
         let gates = ref [] in
         N.iter_gates net (fun id -> gates := id :: !gates);
         let mffc = Mffc.cache net in
         List.for_all
           (fun policy ->
             let cfg = { Config.default with Config.decision = policy } in
             let engine = Engine.create ~config:cfg net in
             let asg = Engine.assignment engine in
             Array.iteri
               (fun id v -> if v > 0 then Assignment.assign asg id (v = 2))
               values;
             let draws = Rng.split rng in
             let mine = Rng.copy draws in
             let decision = Decision.create ~rng:mine engine in
             (* Several decisions in a row on one decision state, so the
                per-gate caches and the scratch arrays are reused. *)
             List.for_all
               (fun g ->
                 let before = Assignment.to_array asg in
                 let rows = Engine.rows_of engine g in
                 let fanins = N.fanins net g in
                 let matching =
                   List.filter
                     (fun (c : Cube.t) ->
                       Value.compatible before.(g)
                         (if c.Cube.out then Cube.T else Cube.F)
                       && Array.for_all2 Value.compatible
                            (Array.map (fun f -> before.(f)) fanins)
                            c.Cube.lits)
                     (Array.to_list rows)
                 in
                 let depths = Array.map (Mffc.cached_depth mffc) fanins in
                 (* The chosen row shows in the values the decision adds;
                    the draws it made show in the generator's state. *)
                 let expected =
                   match matching with
                   | [] -> None
                   | rows ->
                       let row = reference_choose_row cfg draws ~depths rows in
                       let after = Array.copy before in
                       let fill id b =
                         if after.(id) = Value.Unknown then
                           after.(id) <- Value.of_bool b
                       in
                       fill g row.Cube.out;
                       Array.iteri
                         (fun i l ->
                           match l with
                           | Cube.DC -> ()
                           | Cube.T -> fill fanins.(i) true
                           | Cube.F -> fill fanins.(i) false)
                         row.Cube.lits;
                       Some after
                 in
                 let mark = Engine.checkpoint engine in
                 let got =
                   match Decision.decide decision g with
                   | Error _ -> None
                   | Ok () -> Some (Assignment.to_array asg)
                 in
                 Engine.rollback engine mark;
                 got = expected
                 && Rng.int64 (Rng.copy mine) = Rng.int64 (Rng.copy draws))
               !gates)
           [ Config.Random_row; Config.Dc_weighted; Config.Dc_mffc_weighted ]))

(* ------------------------------------------------------------------ *)
(* Outgold                                                             *)
(* ------------------------------------------------------------------ *)

let balance pairs =
  List.fold_left (fun acc (_, g) -> if g then acc + 1 else acc - 1) 0 pairs

let test_outgold_alternating () =
  let pairs = Outgold.assign [ 10; 30; 20; 40 ] in
  Alcotest.(check int) "balanced" 0 (balance pairs);
  (* alternates in sorted id order: 10->0 20->1 30->0 40->1 *)
  Alcotest.(check (list (pair int bool)))
    "alternation by id"
    [ (10, false); (20, true); (30, false); (40, true) ]
    pairs

let test_outgold_balanced_odd () =
  let pairs = Outgold.assign [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check bool) "off by one at most" true (abs (balance pairs) <= 1)

let test_outgold_random_balanced () =
  let rng = Rng.create 3 in
  let pairs =
    Outgold.assign ~strategy:Outgold.Random_balanced ~rng [ 1; 2; 3; 4; 5; 6 ]
  in
  Alcotest.(check int) "balanced" 0 (balance pairs);
  Alcotest.(check int) "all nodes" 6 (List.length pairs)

let test_outgold_level_split () =
  let levels = [| 0; 5; 2; 9 |] in
  let pairs = Outgold.assign ~strategy:Outgold.Level_split ~levels [ 0; 1; 2; 3 ] in
  (* shallow half (levels 0,2) -> false; deep half (5,9) -> true *)
  Alcotest.(check (list (pair int bool)))
    "level split"
    [ (0, false); (2, false); (1, true); (3, true) ]
    pairs

(* ------------------------------------------------------------------ *)
(* Vector generation (Algorithm 1)                                     *)
(* ------------------------------------------------------------------ *)

let prop_generated_vector_realizes_satisfied_targets =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"satisfied targets hold under simulation (all strategies)"
       ~count:150
       QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 4))
       (fun (seed, strat_idx) ->
         let rng = Rng.create seed in
         let net = random_net rng 5 25 in
         let strategy = List.nth Strategy.all strat_idx in
         let gates = ref [] in
         N.iter_gates net (fun id -> gates := id :: !gates);
         let pool = Array.of_list !gates in
         let targets =
           List.sort_uniq compare
             (List.init (min 4 (Array.length pool)) (fun _ -> Rng.choose rng pool))
         in
         let outgold = Outgold.assign targets in
         let r =
           VG.generate ~config:(Strategy.config strategy) ~rng net outgold
         in
         let vals = N.eval net r.VG.vector in
         List.for_all (fun (id, gold) -> vals.(id) = gold) r.VG.satisfied))

let test_useful_requires_opposite_pair () =
  let make () =
    let net = N.create () in
    let a = N.add_pi net in
    let b = N.add_pi net in
    let x = N.add_gate net tt_and2 [| a; b |] in
    let y = N.add_gate net tt_or2 [| a; b |] in
    N.add_po net x;
    N.add_po net y;
    (net, x, y)
  in
  (* Same gold for both: can never be useful. *)
  let net, x, y = make () in
  let r = VG.generate ~rng:(Rng.create 1) net [ (x, true); (y, true) ] in
  Alcotest.(check bool) "same-polarity targets not useful" false r.VG.useful;
  (* Opposite golds on splittable nodes: useful for some seed, and then
     the vector really separates the pair. *)
  let successes = ref 0 in
  for seed = 1 to 20 do
    let net, x, y = make () in
    let r2 = VG.generate ~rng:(Rng.create seed) net [ (x, false); (y, true) ] in
    if r2.VG.useful then begin
      incr successes;
      let vals = N.eval net r2.VG.vector in
      Alcotest.(check bool) "x=0" false vals.(x);
      Alcotest.(check bool) "y=1" true vals.(y)
    end
  done;
  Alcotest.(check bool) "useful for several seeds" true (!successes >= 3)

let test_equivalent_targets_cannot_split () =
  (* Two functionally equivalent nodes can never satisfy opposite golds. *)
  let net = N.create () in
  let a = N.add_pi net in
  let b = N.add_pi net in
  let x1 = N.add_gate net tt_and2 [| a; b |] in
  let x2 = N.add_gate net tt_and2 [| b; a |] in
  N.add_po net x1;
  N.add_po net x2;
  for seed = 1 to 30 do
    let r =
      VG.generate ~rng:(Rng.create seed) net [ (x1, false); (x2, true) ]
    in
    Alcotest.(check bool) "never useful" false r.VG.useful
  done

let test_vector_complete () =
  let rng = Rng.create 223 in
  let net = random_net rng 6 20 in
  let target = N.num_nodes net - 1 in
  let r = VG.generate ~rng net [ (target, true) ] in
  Alcotest.(check int) "full width vector" (N.num_pis net)
    (Array.length r.VG.vector)

let test_deeper_targets_processed_first () =
  (* The deepest target wins when two targets are incompatible. *)
  let net = N.create () in
  let a = N.add_pi net in
  let x = N.add_gate net tt_not [| a |] in
  (* y = NOT x: y and x always differ. Asking both to be 1 can satisfy
     only one, and it must be the deeper one (y). *)
  let y = N.add_gate net tt_not [| x |] in
  N.add_po net y;
  let r = VG.generate ~rng:(Rng.create 1) net [ (x, true); (y, true) ] in
  Alcotest.(check (list (pair int bool))) "deep target satisfied" [ (y, true) ]
    r.VG.satisfied;
  Alcotest.(check int) "shallow target conflicted" 1 r.VG.conflicts

let test_reverse_sim_entry_point () =
  let rng = Rng.create 227 in
  let net = random_net rng 5 20 in
  let target = N.num_nodes net - 1 in
  let r =
    VG.generate ~config:Config.reverse_simulation ~rng net [ (target, true) ]
  in
  List.iter
    (fun (id, gold) ->
      let vals = N.eval net r.VG.vector in
      Alcotest.(check bool) "revs soundness" gold vals.(id))
    r.VG.satisfied

let test_strategy_parsing () =
  Alcotest.(check int) "five strategies" 5 (List.length Strategy.all);
  List.iter
    (fun s ->
      Alcotest.(check (option string))
        "of_string . name = id"
        (Some (Strategy.name s))
        (Option.map Strategy.name (Strategy.of_string (Strategy.name s))))
    Strategy.all;
  Alcotest.(check (option string)) "simgen alias" (Some "AI+DC+MFFC")
    (Option.map Strategy.name (Strategy.of_string "simgen"));
  Alcotest.(check bool) "unknown rejected" true (Strategy.of_string "zzz" = None)

let () =
  Alcotest.run "core"
    [
      ( "value",
        [
          Alcotest.test_case "basics" `Quick test_value_basics;
          Alcotest.test_case "compatibility" `Quick test_value_compatibility;
        ] );
      ( "assignment",
        [
          Alcotest.test_case "trail" `Quick test_assignment_trail;
          Alcotest.test_case "double assign" `Quick test_assignment_double_assign;
          Alcotest.test_case "iter_since" `Quick test_assignment_iter_since;
        ] );
      ( "rows",
        [
          Alcotest.test_case "cache sharing" `Quick test_rows_cache_sharing;
          Alcotest.test_case "onset first" `Quick test_rows_onset_first;
          Alcotest.test_case "row sets (xor7)" `Quick test_rows_sets_xor7;
          prop_row_sets_match_reference;
        ] );
      ( "engine-figure1",
        [
          Alcotest.test_case "simgen implies all" `Quick
            test_figure1_simgen_all_implied;
          Alcotest.test_case "backward stalls" `Quick
            test_figure1_backward_cannot_finish;
          Alcotest.test_case "simgen always generates" `Quick
            test_figure1_full_generation;
          Alcotest.test_case "revs sometimes fails" `Quick
            test_figure1_revs_sometimes_fails;
        ] );
      ( "engine-figure3",
        [
          Alcotest.test_case "advanced implication" `Quick
            test_advanced_implication_output_only;
          Alcotest.test_case "simple misses it" `Quick
            test_simple_implication_misses_it;
          Alcotest.test_case "cascade" `Quick test_figure3_cascade;
        ] );
      ( "engine-conflicts",
        [
          Alcotest.test_case "detection" `Quick test_conflict_detection;
          Alcotest.test_case "backward consistency" `Quick
            test_backward_consistency_check;
          Alcotest.test_case "scope" `Quick test_scope_confines_propagation;
          Alcotest.test_case "empty scope at create" `Quick
            test_fresh_engine_has_empty_scope;
          Alcotest.test_case "pending on set" `Quick test_pending_conflict_on_set;
          prop_engine_forward_soundness;
        ] );
      ( "engine-scope",
        [
          Alcotest.test_case "latest_candidate" `Quick test_latest_candidate;
          prop_marks_match_fanin_cones;
          Alcotest.test_case "marks on a deep network" `Quick
            test_marks_on_deep_network;
          prop_latest_candidate_matches_reference;
        ] );
      ( "decision",
        [
          Alcotest.test_case "dc ranking" `Quick test_dc_ranking_prefers_dcs;
          Alcotest.test_case "mffc rank (fig 4c)" `Quick test_mffc_rank_figure4c;
          Alcotest.test_case "assigns matching row" `Quick
            test_decision_assigns_matching_row;
          prop_decision_matches_reference;
        ] );
      ( "outgold",
        [
          Alcotest.test_case "alternating" `Quick test_outgold_alternating;
          Alcotest.test_case "balanced odd" `Quick test_outgold_balanced_odd;
          Alcotest.test_case "random balanced" `Quick test_outgold_random_balanced;
          Alcotest.test_case "level split" `Quick test_outgold_level_split;
        ] );
      ( "vector_gen",
        [
          prop_generated_vector_realizes_satisfied_targets;
          Alcotest.test_case "useful definition" `Quick
            test_useful_requires_opposite_pair;
          Alcotest.test_case "equivalent targets" `Quick
            test_equivalent_targets_cannot_split;
          Alcotest.test_case "vector complete" `Quick test_vector_complete;
          Alcotest.test_case "target order" `Quick
            test_deeper_targets_processed_first;
          Alcotest.test_case "reverse sim wrapper" `Quick
            test_reverse_sim_entry_point;
          Alcotest.test_case "strategy parsing" `Quick test_strategy_parsing;
        ] );
    ]
