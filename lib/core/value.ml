module Cube = Simgen_network.Cube

type t = Zero | One | Unknown

let of_bool b = if b then One else Zero

let to_bool = function One -> Some true | Zero -> Some false | Unknown -> None

let is_assigned = function Unknown -> false | Zero | One -> true

let compatible v (l : Cube.lit) =
  match (v, l) with
  | Unknown, _ | _, Cube.DC -> true
  | One, Cube.T | Zero, Cube.F -> true
  | One, Cube.F | Zero, Cube.T -> false
