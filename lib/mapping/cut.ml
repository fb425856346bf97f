type t = { leaves : int array; sign : int; depth : int; area_flow : float }

let signature leaves =
  Array.fold_left (fun s l -> s lor (1 lsl (l mod 62))) 0 leaves

let make leaves ~depth ~area_flow =
  { leaves; sign = signature leaves; depth; area_flow }

let trivial id = make [| id |] ~depth:0 ~area_flow:0.0

(* The helpers below are top-level recursions over explicit arguments:
   a local recursive function that captured its arrays would allocate a
   closure on every call. Their arrays are typed [int array], so element
   reads and comparisons compile to machine operations rather than
   polymorphic calls. *)

(* Whether [x] has more than [k - n] bits set, clearing its lowest set
   bit at each step. *)
let rec more_bits_than k x n =
  x <> 0 && (n = k || more_bits_than k (x land (x - 1)) (n + 1))

(* Merge [la.(i..)] and [lb.(j..)] into [out] from [n], giving up past
   [k] leaves. *)
let rec union_into k (out : int array) (la : int array) (lb : int array) i j n =
  if i >= Array.length la && j >= Array.length lb then Some (Array.sub out 0 n)
  else if n = k then None
  else if i >= Array.length la then begin
    out.(n) <- lb.(j);
    union_into k out la lb i (j + 1) (n + 1)
  end
  else if j >= Array.length lb then begin
    out.(n) <- la.(i);
    union_into k out la lb (i + 1) j (n + 1)
  end
  else if la.(i) = lb.(j) then begin
    out.(n) <- la.(i);
    union_into k out la lb (i + 1) (j + 1) (n + 1)
  end
  else if la.(i) < lb.(j) then begin
    out.(n) <- la.(i);
    union_into k out la lb (i + 1) j (n + 1)
  end
  else begin
    out.(n) <- lb.(j);
    union_into k out la lb i (j + 1) (n + 1)
  end

(* The signature test is exact: every leaf sets one bit, so a union whose
   signature has more than [k] bits has more than [k] leaves. *)
let merge k a b =
  if more_bits_than k (a.sign lor b.sign) 0 then None
  else union_into k (Array.make k 0) a.leaves b.leaves 0 0 0

(* Whether [small.(i..)] is a subset of [big.(j..)]. *)
let rec subset_from (small : int array) (big : int array) i j =
  if i >= Array.length small then true
  else if j >= Array.length big then false
  else if small.(i) = big.(j) then subset_from small big (i + 1) (j + 1)
  else if small.(i) > big.(j) then subset_from small big i (j + 1)
  else false

(* A leaf of [a] whose bit is missing from [b]'s signature is missing
   from [b]'s leaves, so the signature test never refuses a subset. *)
let dominates a b =
  a.sign land lnot b.sign = 0
  && Array.length a.leaves <= Array.length b.leaves
  && subset_from a.leaves b.leaves 0 0

let compare_quality a b =
  match Int.compare a.depth b.depth with
  | 0 -> (
      match Float.compare a.area_flow b.area_flow with
      | 0 -> Int.compare (Array.length a.leaves) (Array.length b.leaves)
      | c -> c)
  | c -> c
