module N = Simgen_network.Network
module TT = Simgen_network.Truth_table

(* Unboxed native-endian access to the scratch buffer, 8 bytes a slot. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Slots 0..31 hold the mux tree over fanins 0..5 of one table word; slot
   [32 + w] holds that tree's result for table word [w], and the tree
   across fanins 6 and up runs in place over those slots. *)
type scratch = { mutable buf : Bytes.t }

let low_slots = 32

let scratch () = { buf = Bytes.create (8 * low_slots) }

(* Bit k of the result is [hi]'s where [x] has bit k set, else [lo]'s. *)
let[@inline] mux x hi lo = Int64.logxor lo (Int64.logand x (Int64.logxor hi lo))

(* Mux tree of table word [t] over fanins 0..n-1 (n <= 6), left in slot 0:
   level 0 selects between adjacent minterm bits by fanin 0, and level v
   halves the slots by fanin v. *)
let low_tree buf t n fanins words =
  if n = 0 then set64 buf 0 (Int64.neg (Int64.logand t 1L))
  else begin
    let x = words.(fanins.(0)) in
    for j = 0 to (1 lsl (n - 1)) - 1 do
      let b = Int64.shift_right_logical t (2 * j) in
      let lo = Int64.neg (Int64.logand b 1L)
      and hi = Int64.neg (Int64.logand (Int64.shift_right_logical b 1) 1L) in
      set64 buf (8 * j) (mux x hi lo)
    done;
    for v = 1 to n - 1 do
      let x = words.(fanins.(v)) in
      for j = 0 to (1 lsl (n - 1 - v)) - 1 do
        set64 buf (8 * j)
          (mux x (get64 buf ((16 * j) + 8)) (get64 buf (16 * j)))
      done
    done
  end

let eval_lut s f fanins words =
  let n = TT.nvars f in
  let nw = if n <= 6 then 1 else 1 lsl (n - 6) in
  if Bytes.length s.buf < 8 * (low_slots + nw) then
    s.buf <- Bytes.create (8 * (low_slots + nw));
  let buf = s.buf in
  for w = 0 to nw - 1 do
    low_tree buf (TT.word f w) (min n 6) fanins words;
    set64 buf (8 * (low_slots + w)) (get64 buf 0)
  done;
  for v = 6 to n - 1 do
    let x = words.(fanins.(v)) in
    for j = 0 to (1 lsl (n - 1 - v)) - 1 do
      let at = 8 * (low_slots + (2 * j)) in
      set64 buf (8 * (low_slots + j)) (mux x (get64 buf (at + 8)) (get64 buf at))
    done
  done;
  get64 buf (8 * low_slots)

let simulate_word net pi_words =
  if Array.length pi_words <> N.num_pis net then
    invalid_arg "Simulator.simulate_word";
  let words = Array.make (N.num_nodes net) 0L in
  let s = scratch () in
  N.iter_nodes net (fun id ->
      match N.kind net id with
      | N.Pi idx -> words.(id) <- pi_words.(idx)
      | N.Gate f -> words.(id) <- eval_lut s f (N.fanins net id) words);
  words

let random_word rng net =
  Array.init (N.num_pis net) (fun _ -> Simgen_base.Rng.int64 rng)

let vector_word vec k words =
  if Array.length vec <> Array.length words then
    invalid_arg "Simulator.vector_word";
  let mask = Int64.shift_left 1L k in
  Array.iteri
    (fun i value ->
      words.(i) <-
        (if value then Int64.logor words.(i) mask
         else Int64.logand words.(i) (Int64.lognot mask)))
    vec

let word_of_vector net vec =
  if Array.length vec <> N.num_pis net then
    invalid_arg "Simulator.word_of_vector";
  Array.map (fun v -> if v then -1L else 0L) vec
