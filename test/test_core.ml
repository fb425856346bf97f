module N = Simgen_network.Network
module TT = Simgen_network.Truth_table
module Cube = Simgen_network.Cube
module Level = Simgen_network.Level
module Rng = Simgen_base.Rng
module Value = Simgen_core.Value
module Assignment = Simgen_core.Assignment
module Rows = Simgen_core.Rows
module Config = Simgen_core.Config
module Engine = Simgen_core.Engine
module Decision = Simgen_core.Decision
module Outgold = Simgen_core.Outgold
module VG = Simgen_core.Vector_gen
module RevS = Simgen_core.Reverse_sim
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

let test_assignment_latest_in () =
  let a = Assignment.create 10 in
  let mask id = id = 2 || id = 5 in
  Assignment.assign a 2 true;
  Assignment.assign a 9 true;
  Assignment.assign a 5 false;
  Alcotest.(check (option int)) "latest in mask" (Some 5)
    (Assignment.latest_in a ~mask (fun _ -> true));
  Alcotest.(check (option int)) "filtered" (Some 2)
    (Assignment.latest_in a ~mask (fun id -> id <> 5));
  Alcotest.(check (option int)) "none" None
    (Assignment.latest_in a ~mask (fun _ -> false))

let test_assignment_iter_since () =
  let a = Assignment.create 10 in
  Assignment.assign a 1 true;
  let mark = Assignment.checkpoint a in
  Assignment.assign a 2 true;
  Assignment.assign a 3 true;
  let seen = ref [] in
  Assignment.iter_since a mark (fun id -> seen := id :: !seen);
  Alcotest.(check (list int)) "since checkpoint" [ 3; 2 ] !seen

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
  let engine = Engine.create ~config:Config.default net in
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
  let engine = Engine.create ~config:Config.reverse_simulation net in
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
    let r = RevS.generate ~rng:(Rng.create seed) net [ (z, true) ] in
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
  let engine = Engine.create ~config:Config.default net in
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
  let engine = Engine.create ~config net in
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
  let engine = Engine.create ~config:Config.default net in
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
  let engine = Engine.create ~config:Config.default net in
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
  let engine = Engine.create ~config:Config.reverse_simulation net in
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
  (* Lifting the scope and re-seeding resumes propagation everywhere. *)
  Engine.clear_scope engine;
  Engine.set engine right false;
  ignore (Engine.propagate engine);
  Alcotest.(check bool) "propagates after unscoping" true
    (Assignment.value asg right2 = Value.One)

let test_pending_conflict_on_set () =
  let net = N.create () in
  let a = N.add_pi net in
  N.add_po net a;
  let engine = Engine.create net in
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
         let engine = Engine.create ~config:Config.default net in
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
         let engine = Engine.create ~config:cfg net in
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
         let matching = Engine.matching_rows engine g in
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
    Engine.create
      ~config:{ Config.default with Config.decision = Config.Dc_weighted }
      net
  in
  let decision = Decision.create ~rng:(Rng.create 1) engine in
  Engine.set engine x false;
  ignore (Engine.propagate engine);
  let rows = Engine.matching_rows engine x in
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
  let row_x0 = Cube.make [| Cube.F; Cube.DC |] false in
  let row_y0 = Cube.make [| Cube.DC; Cube.F |] false in
  let rank_x = Decision.mffc_rank decision z row_x0 in
  let rank_y = Decision.mffc_rank decision z row_y0 in
  Alcotest.(check (float 0.001)) "left rank 0" 0.0 rank_x;
  Alcotest.(check bool) "right rank higher" true (rank_y > rank_x);
  (* Equation 4 ordering with equal DC counts follows the MFFC rank. *)
  let p_x = Decision.row_priority decision z ~max_rank:rank_y row_x0 in
  let p_y = Decision.row_priority decision z ~max_rank:rank_y row_y0 in
  Alcotest.(check bool) "priority prefers deep MFFC" true (p_y > p_x)

let test_decision_assigns_matching_row () =
  let rng = Rng.create 211 in
  for _ = 1 to 30 do
    let net = random_net rng 4 15 in
    let engine = Engine.create ~config:Config.default net in
    let decision = Decision.create ~rng:(Rng.split rng) engine in
    let target = N.num_nodes net - 1 in
    if not (N.is_pi net target) then begin
      Engine.set engine target (Rng.bool rng);
      match Engine.propagate engine with
      | Engine.Conflict_at _ -> ()
      | Engine.Fixpoint -> (
          match Engine.matching_rows engine target with
          | [] -> Alcotest.fail "fixpoint with no matching rows"
          | _ :: _ -> (
              match Decision.decide decision target with
              | Error _ -> Alcotest.fail "decision on matching rows failed"
              | Ok () -> (
                  (* After the decision the target must still have matching
                     rows (the chosen row itself). *)
                  match Engine.matching_rows engine target with
                  | [] -> Alcotest.fail "decision created a dead end"
                  | _ -> ())))
    end
  done

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
  let r = RevS.generate ~rng net [ (target, true) ] in
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
          Alcotest.test_case "latest_in" `Quick test_assignment_latest_in;
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
          Alcotest.test_case "pending on set" `Quick test_pending_conflict_on_set;
          prop_engine_forward_soundness;
        ] );
      ( "decision",
        [
          Alcotest.test_case "dc ranking" `Quick test_dc_ranking_prefers_dcs;
          Alcotest.test_case "mffc rank (fig 4c)" `Quick test_mffc_rank_figure4c;
          Alcotest.test_case "assigns matching row" `Quick
            test_decision_assigns_matching_row;
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
