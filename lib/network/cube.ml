type lit = F | T | DC

type t = { lits : lit array; out : bool }

let make lits out = { lits; out }

let dc_size c =
  Array.fold_left (fun acc l -> if l = DC then acc + 1 else acc) 0 c.lits

let to_truth_table n c =
  let acc = ref (Truth_table.create_const n true) in
  Array.iteri
    (fun i l ->
      match l with
      | DC -> ()
      | T -> acc := Truth_table.and_ !acc (Truth_table.var i n)
      | F -> acc := Truth_table.and_ !acc (Truth_table.not_ (Truth_table.var i n)))
    c.lits;
  !acc
