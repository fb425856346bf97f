type t = { nvars : int; words : int64 array }
(* Invariant: bits beyond 2^nvars in the last word are zero. *)

let max_vars = 16

let nvars t = t.nvars

let nbits n = 1 lsl n
let nwords n = if n <= 6 then 1 else 1 lsl (n - 6)

let[@inline] last_mask n =
  if n >= 6 then -1L else Int64.sub (Int64.shift_left 1L (nbits n)) 1L

let normalize t =
  let w = t.words in
  let last = Array.length w - 1 in
  w.(last) <- Int64.logand w.(last) (last_mask t.nvars);
  t

let check_nvars n =
  if n < 0 || n > max_vars then invalid_arg "Truth_table: nvars out of range"

let create_const n b =
  check_nvars n;
  let fill = if b then -1L else 0L in
  normalize { nvars = n; words = Array.make (nwords n) fill }

(* Standard per-word variable patterns for variables 0..5. *)
let var_pattern = function
  | 0 -> 0xAAAAAAAAAAAAAAAAL
  | 1 -> 0xCCCCCCCCCCCCCCCCL
  | 2 -> 0xF0F0F0F0F0F0F0F0L
  | 3 -> 0xFF00FF00FF00FF00L
  | 4 -> 0xFFFF0000FFFF0000L
  | 5 -> 0xFFFFFFFF00000000L
  | _ -> invalid_arg "Truth_table.var_pattern"

(* Within one word, variable [i < 6] selects between bit blocks
   [2^i] apart: the [b] half is copied over the other one. *)
let[@inline] cofactor_word x i b =
  let p = var_pattern i and s = 1 lsl i in
  if b then
    let hi = Int64.logand x p in
    Int64.logor hi (Int64.shift_right_logical hi s)
  else
    let lo = Int64.logand x (Int64.lognot p) in
    Int64.logor lo (Int64.shift_left lo s)

let[@inline] depends_on_word x i =
  let p = var_pattern i in
  not
    (Int64.equal (Int64.logand x p)
       (Int64.shift_left (Int64.logand x (Int64.lognot p)) (1 lsl i)))

let var i n =
  check_nvars n;
  if i < 0 || i >= n then invalid_arg "Truth_table.var";
  let words = Array.make (nwords n) 0L in
  if i < 6 then Array.fill words 0 (Array.length words) (var_pattern i)
  else begin
    (* Word w holds minterms [w*64, w*64+63]; variable i is bit (i-6) of w. *)
    let bit = i - 6 in
    for w = 0 to Array.length words - 1 do
      if (w lsr bit) land 1 = 1 then words.(w) <- -1L
    done
  end;
  normalize { nvars = n; words }

let of_bits n bits =
  check_nvars n;
  if n > 6 then invalid_arg "Truth_table.of_bits: nvars > 6";
  normalize { nvars = n; words = [| bits |] }

let get_bit t m =
  if m < 0 || m >= nbits t.nvars then invalid_arg "Truth_table.get_bit";
  let w = m lsr 6 and b = m land 63 in
  Int64.logand (Int64.shift_right_logical t.words.(w) b) 1L = 1L

let eval t inputs =
  if Array.length inputs <> t.nvars then invalid_arg "Truth_table.eval";
  let m = ref 0 in
  for i = 0 to t.nvars - 1 do
    if inputs.(i) then m := !m lor (1 lsl i)
  done;
  get_bit t !m

let map2 f a b =
  if a.nvars <> b.nvars then invalid_arg "Truth_table: arity mismatch";
  normalize { nvars = a.nvars; words = Array.map2 f a.words b.words }

let not_ a =
  normalize { nvars = a.nvars; words = Array.map Int64.lognot a.words }

let and_ a b = map2 Int64.logand a b
let or_ a b = map2 Int64.logor a b
let xor a b = map2 Int64.logxor a b

let equal a b = a.nvars = b.nvars && a.words = b.words

let hash t =
  Array.fold_left
    (fun acc w ->
      (acc * 1000003) lxor Int64.to_int w lxor (Int64.to_int (Int64.shift_right_logical w 32)))
    t.nvars t.words

let word t i = t.words.(i)

let rec all_equal words w i =
  i < 0 || (Int64.equal words.(i) w && all_equal words w (i - 1))

let is_const t =
  let w0 = t.words.(0) in
  if not (all_equal t.words w0 (Array.length t.words - 1)) then None
  else if Int64.equal w0 0L then Some false
  else if Int64.equal w0 (last_mask t.nvars) then Some true
  else None

let cofactor t i b =
  if i < 0 || i >= t.nvars then invalid_arg "Truth_table.cofactor";
  let words = Array.copy t.words in
  if i < 6 then
    for w = 0 to Array.length words - 1 do
      words.(w) <- cofactor_word words.(w) i b
    done
  else begin
    (* Copy the selected half of the word array over the other half. *)
    let bit = i - 6 in
    let stride = 1 lsl bit in
    for w = 0 to Array.length words - 1 do
      let selected = (w lsr bit) land 1 = if b then 1 else 0 in
      if not selected then
        words.(w) <- words.(if b then w + stride else w - stride)
    done
  end;
  normalize { nvars = t.nvars; words }

let depends_on t i =
  if i < 0 || i >= t.nvars then invalid_arg "Truth_table.depends_on";
  if i < 6 then Array.exists (fun x -> depends_on_word x i) t.words
  else not (equal (cofactor t i true) (cofactor t i false))

let count_ones t =
  let popcount x =
    let c = ref 0 in
    let x = ref x in
    while !x <> 0L do
      c := !c + Int64.to_int (Int64.logand !x 1L);
      x := Int64.shift_right_logical !x 1
    done;
    !c
  in
  Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let of_minterms n ms =
  check_nvars n;
  let words = Array.make (nwords n) 0L in
  List.iter
    (fun m ->
      if m < 0 || m >= nbits n then invalid_arg "Truth_table.of_minterms";
      let w = m lsr 6 and b = m land 63 in
      words.(w) <- Int64.logor words.(w) (Int64.shift_left 1L b))
    ms;
  normalize { nvars = n; words }

(* Rebuild from the semantic function. *)
let tabulate n f =
  check_nvars n;
  let words = Array.make (nwords n) 0L in
  for m = 0 to nbits n - 1 do
    if f m then begin
      let w = m lsr 6 and b = m land 63 in
      words.(w) <- Int64.logor words.(w) (Int64.shift_left 1L b)
    end
  done;
  normalize { nvars = n; words }

let random rng n =
  check_nvars n;
  let words = Array.init (nwords n) (fun _ -> Simgen_base.Rng.int64 rng) in
  normalize { nvars = n; words }

let to_string t =
  String.init (nbits t.nvars) (fun i ->
      if get_bit t (nbits t.nvars - 1 - i) then '1' else '0')

let of_string s =
  let len = String.length s in
  let n =
    let rec log2 k acc = if k = 1 then acc else log2 (k / 2) (acc + 1) in
    if len = 0 || len land (len - 1) <> 0 then
      invalid_arg "Truth_table.of_string: length not a power of two"
    else log2 len 0
  in
  tabulate n (fun m ->
      match s.[len - 1 - m] with
      | '1' -> true
      | '0' -> false
      | _ -> invalid_arg "Truth_table.of_string: bad character")
