module TT = Simgen_network.Truth_table
module Isop = Simgen_network.Isop
module Cube = Simgen_network.Cube

module Table = Hashtbl.Make (struct
  type t = TT.t

  let equal = TT.equal
  let hash = TT.hash
end)

type table = { cubes : Cube.t array; words : int; sets : int array }

let bits_per_word = 63
let all_rows = 0
let on_rows = 1
let input_rows = 2

let table_of f =
  let cubes = Array.of_list (Isop.rows f) in
  let words = (Array.length cubes + bits_per_word - 1) / bits_per_word in
  let sets = Array.make ((2 + (2 * TT.nvars f)) * words) 0 in
  let add set r =
    let k = (set * words) + (r / bits_per_word) in
    sets.(k) <- sets.(k) lor (1 lsl (r mod bits_per_word))
  in
  Array.iteri
    (fun r (c : Cube.t) ->
      add all_rows r;
      if c.Cube.out then add on_rows r;
      Array.iteri
        (fun i l ->
          match l with
          | Cube.T -> add (input_rows + (2 * i)) r
          | Cube.F -> add (input_rows + (2 * i) + 1) r
          | Cube.DC -> ())
        c.Cube.lits)
    cubes;
  { cubes; words; sets }

type t = table Table.t

let create () = Table.create 64

let find cache f =
  match Table.find_opt cache f with
  | Some table -> table
  | None ->
      let table = table_of f in
      Table.replace cache f table;
      table
