module Aig = Simgen_aig.Aig

type lit = Aig.lit
type aig = Aig.t

let full_adder g a b c =
  let axb = Aig.xor g a b in
  let sum = Aig.xor g axb c in
  let carry = Aig.or_ g (Aig.and_ g a b) (Aig.and_ g axb c) in
  (sum, carry)

let ripple_adder g a b ~cin =
  if Array.length a <> Array.length b then invalid_arg "ripple_adder";
  let n = Array.length a in
  let sums = Array.make n Aig.false_ in
  let carry = ref cin in
  for i = 0 to n - 1 do
    let s, c = full_adder g a.(i) b.(i) !carry in
    sums.(i) <- s;
    carry := c
  done;
  (sums, !carry)

let subtractor g a b =
  let nb = Array.map (Aig.not_) b in
  ripple_adder g a nb ~cin:Aig.true_

let multiplier g a b =
  let na = Array.length a and nb = Array.length b in
  let width = na + nb in
  let acc = ref (Array.make width Aig.false_) in
  for j = 0 to nb - 1 do
    (* Partial product a * b_j shifted by j. *)
    let pp =
      Array.init width (fun k ->
          if k >= j && k - j < na then Aig.and_ g a.(k - j) b.(j)
          else Aig.false_)
    in
    let sums, _ = ripple_adder g !acc pp ~cin:Aig.false_ in
    acc := sums
  done;
  !acc

let square g a = multiplier g a a

let mux_word g sel a b = Array.map2 (fun x y -> Aig.mux g sel x y) a b

let alu g ~op a b =
  if Array.length op < 2 then invalid_arg "alu: need 2 op bits";
  let add, _ = ripple_adder g a b ~cin:Aig.false_ in
  let sub, _ = subtractor g a b in
  let land_ = Array.map2 (Aig.and_ g) a b in
  let xor_word = Array.map2 (Aig.xor g) a b in
  let lo = mux_word g op.(0) sub add in
  let hi = mux_word g op.(0) xor_word land_ in
  mux_word g op.(1) hi lo

let arithmetic_shift _g amount word =
  Array.init (Array.length word) (fun i ->
      if i + amount < Array.length word then word.(i + amount)
      else word.(Array.length word - 1))

let shift_add_cascade g ~rounds x =
  let n = Array.length x in
  if n = 0 then invalid_arg "shift_add_cascade";
  let value = ref x in
  for r = 1 to rounds do
    let shifted = arithmetic_shift g (1 + (r mod max 1 (n / 2))) !value in
    let added, _ = ripple_adder g !value shifted ~cin:Aig.false_ in
    let subbed, _ = subtractor g !value shifted in
    let steer = !value.(r mod n) in
    value := mux_word g steer added subbed
  done;
  !value

let log_approx g x =
  let n = Array.length x in
  (* Leading-one detector: found.(i) = x.(i) & ~(x.(i+1) | ... ). *)
  let any_above = Array.make n Aig.false_ in
  for i = n - 2 downto 0 do
    any_above.(i) <- Aig.or_ g any_above.(i + 1) x.(i + 1)
  done;
  let leading = Array.init n (fun i -> Aig.and_ g x.(i) (Aig.not_ any_above.(i))) in
  (* Binary encoding of the leading-one position. *)
  let bits = max 1 (int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.0))) in
  let encoded =
    Array.init bits (fun b ->
        let terms = ref [] in
        Array.iteri
          (fun i l -> if (i lsr b) land 1 = 1 then terms := l :: !terms)
          leading;
        Aig.or_list g !terms)
  in
  (* Fractional interpolation: add the masked mantissa to the exponent. *)
  let mantissa =
    Array.init bits (fun b -> if b < n then Aig.and_ g x.(b) (Aig.not_ leading.(b)) else Aig.false_)
  in
  let sum, carry = ripple_adder g encoded mantissa ~cin:Aig.false_ in
  Array.append sum [| carry |]
