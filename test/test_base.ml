module Rng = Simgen_base.Rng
module Vec = Simgen_base.Vec

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_copy_independent () =
  let a = Rng.create 7 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b)

let test_split_diverges () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 50 do
    if Rng.int64 a = Rng.int64 b then incr matches
  done;
  Alcotest.(check bool) "split stream is distinct" true (!matches < 5)

let test_of_string_deterministic () =
  let a = Rng.of_string "apex2" and b = Rng.of_string "apex2" in
  Alcotest.(check int64) "same" (Rng.int64 a) (Rng.int64 b);
  let c = Rng.of_string "apex3" in
  Alcotest.(check bool) "different name, different stream" true
    (Rng.int64 (Rng.of_string "apex2") <> Rng.int64 c)

let test_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let bound = 1 + Rng.int rng 100 in
    let v = Rng.int rng bound in
    Alcotest.(check bool) "in range" true (v >= 0 && v < bound)
  done

let test_int_coverage () =
  (* All residues of a small bound appear. *)
  let rng = Rng.create 5 in
  let seen = Array.make 7 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 7) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_float_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_bool_balance () =
  let rng = Rng.create 13 in
  let trues = ref 0 in
  for _ = 1 to 10000 do
    if Rng.bool rng then incr trues
  done;
  Alcotest.(check bool) "roughly balanced" true (!trues > 4500 && !trues < 5500)

let test_shuffle_permutation () =
  let rng = Rng.create 17 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_choose_member () =
  let rng = Rng.create 19 in
  let arr = [| 2; 4; 8 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member" true (Array.mem (Rng.choose rng arr) arr)
  done

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vec_push_get () =
  let v = Vec.create ~dummy:0 () in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  for i = 0 to 99 do
    Alcotest.(check int) "get" (i * i) (Vec.get v i)
  done

let test_vec_pop_lifo () =
  let v = Vec.create ~dummy:(-1) () in
  List.iter (Vec.push v) [ 1; 2; 3 ];
  Alcotest.(check int) "pop" 3 (Vec.pop v);
  Alcotest.(check int) "pop" 2 (Vec.pop v);
  Alcotest.(check int) "pop" 1 (Vec.pop v);
  Alcotest.(check bool) "empty" true (Vec.is_empty v)

let test_vec_pop_empty () =
  let v = Vec.create ~dummy:0 () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop") (fun () ->
      ignore (Vec.pop v))

let test_vec_set_bounds () =
  let v = Vec.create ~dummy:0 () in
  Vec.push v 1;
  Vec.set v 0 9;
  Alcotest.(check int) "set" 9 (Vec.get v 0);
  Alcotest.check_raises "set out of range" (Invalid_argument "Vec.set")
    (fun () -> Vec.set v 1 0)

let test_vec_clear () =
  let v = Vec.create ~dummy:0 () in
  for i = 1 to 10 do
    Vec.push v i
  done;
  Alcotest.(check (list int)) "pushed" (List.init 10 succ) (Vec.to_list v);
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v);
  Vec.push v 7;
  Alcotest.(check (list int)) "reused" [ 7 ] (Vec.to_list v)

let () =
  Alcotest.run "base"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "split" `Quick test_split_diverges;
          Alcotest.test_case "of_string" `Quick test_of_string_deterministic;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int coverage" `Quick test_int_coverage;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "bool balance" `Quick test_bool_balance;
          Alcotest.test_case "shuffle" `Quick test_shuffle_permutation;
          Alcotest.test_case "choose" `Quick test_choose_member;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "pop lifo" `Quick test_vec_pop_lifo;
          Alcotest.test_case "pop empty" `Quick test_vec_pop_empty;
          Alcotest.test_case "set bounds" `Quick test_vec_set_bounds;
          Alcotest.test_case "clear" `Quick test_vec_clear;
        ] );
    ]
