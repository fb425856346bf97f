module Aig = Simgen_aig.Aig
module Rng = Simgen_base.Rng

type family = Mcnc_pla | Arithmetic | Epfl_control | Itc99

type entry = { name : string; family : family; stack_copies : int option }

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

let pla_spec inputs outputs products literals terms_per_output =
  { Pla.inputs; outputs; products; literals; terms_per_output }

let build_pla name spec rng =
  let g = Pla.generate rng spec in
  let g = Redundancy.inject ~exact_fraction:0.25 rng g in
  let g = Aig.cleanup g in
  ignore name;
  g

let build_alu ~width rng =
  let g = Aig.create () in
  let op = Array.init 2 (fun _ -> Aig.add_pi g) in
  let a = Array.init width (fun _ -> Aig.add_pi g) in
  let b = Array.init width (fun _ -> Aig.add_pi g) in
  let out = Arith.alu g ~op a b in
  Array.iter (fun l -> Aig.add_po g l) out;
  Redundancy.inject ~exact_fraction:0.25 rng g |> Aig.cleanup

let build_square ~width rng =
  let g = Aig.create () in
  let a = Array.init width (fun _ -> Aig.add_pi g) in
  Array.iter (fun l -> Aig.add_po g l) (Arith.square g a);
  Redundancy.inject ~exact_fraction:0.25 rng g |> Aig.cleanup

let build_cascade ~width ~rounds rng =
  let g = Aig.create () in
  let a = Array.init width (fun _ -> Aig.add_pi g) in
  Array.iter (fun l -> Aig.add_po g l) (Arith.shift_add_cascade g ~rounds a);
  Redundancy.inject ~exact_fraction:0.25 rng g |> Aig.cleanup

let build_log ~width rng =
  let g = Aig.create () in
  let a = Array.init width (fun _ -> Aig.add_pi g) in
  Array.iter (fun l -> Aig.add_po g l) (Arith.log_approx g a);
  (* Widen with a second stage so the circuit is not trivially shallow. *)
  Redundancy.inject ~exact_fraction:0.25 rng g |> Aig.cleanup

let build_voter ~voters rng =
  let g = Aig.create () in
  let xs = Array.init voters (fun _ -> Aig.add_pi g) in
  Aig.add_po g (Control.majority g xs);
  (* A few sub-majorities keep more than one PO alive. *)
  let third = voters / 3 in
  Aig.add_po g (Control.majority g (Array.sub xs 0 (2 * third)));
  Aig.add_po g (Control.majority g (Array.sub xs third (2 * third)));
  Redundancy.inject ~exact_fraction:0.25 rng g |> Aig.cleanup

let build_decoder ~bits rng =
  let g = Aig.create () in
  let sel = Array.init bits (fun _ -> Aig.add_pi g) in
  let en = Aig.add_pi g in
  Array.iter
    (fun l -> Aig.add_po g (Aig.and_ g en l))
    (Control.decoder g sel);
  Redundancy.inject ~exact_fraction:0.25 rng g |> Aig.cleanup

let build_priority ~width rng =
  let g = Aig.create () in
  let xs = Array.init width (fun _ -> Aig.add_pi g) in
  let index, valid = Control.priority_encoder g xs in
  Array.iter (fun l -> Aig.add_po g l) index;
  Aig.add_po g valid;
  Redundancy.inject ~exact_fraction:0.25 rng g |> Aig.cleanup

let build_arbiter ~requests ~ptr_bits rng =
  let g = Aig.create () in
  let req = Array.init requests (fun _ -> Aig.add_pi g) in
  let pointer = Array.init ptr_bits (fun _ -> Aig.add_pi g) in
  Array.iter
    (fun l -> Aig.add_po g l)
    (Control.round_robin_arbiter g ~req ~pointer);
  Redundancy.inject ~exact_fraction:0.25 rng g |> Aig.cleanup

let build_control_mix ~inputs ~outputs rng =
  let g = Aig.create () in
  let xs = Array.init inputs (fun _ -> Aig.add_pi g) in
  Array.iter
    (fun l -> Aig.add_po g l)
    (Control.control_mix g rng ~inputs:xs ~outputs);
  Redundancy.inject ~exact_fraction:0.25 rng g |> Aig.cleanup

let build_itc ~inputs ~outputs ~layers ~layer_width rng =
  let spec =
    { Random_logic.inputs; outputs; layers; layer_width; locality = 3 }
  in
  let g = Random_logic.generate rng spec in
  Redundancy.inject ~exact_fraction:0.25 rng g |> Aig.cleanup

(* ------------------------------------------------------------------ *)
(* The 42 entries (Table 2 order)                                      *)
(* ------------------------------------------------------------------ *)

let builders : (string * family * int option * (Rng.t -> Aig.t)) list =
  [
    ("alu4", Arithmetic, Some 15, build_alu ~width:16);
    ("apex1", Mcnc_pla, None, fun rng -> build_pla "apex1" (pla_spec 14 16 60 4 6) rng);
    ("apex2", Mcnc_pla, None, fun rng -> build_pla "apex2" (pla_spec 16 12 80 5 8) rng);
    ("apex3", Mcnc_pla, None, fun rng -> build_pla "apex3" (pla_spec 14 18 70 4 6) rng);
    ("apex4", Mcnc_pla, None, fun rng -> build_pla "apex4" (pla_spec 12 24 140 4 10) rng);
    ("apex5", Mcnc_pla, None, fun rng -> build_pla "apex5" (pla_spec 12 10 40 4 5) rng);
    ("cordic", Arithmetic, None, build_cascade ~width:8 ~rounds:4);
    ("cps", Mcnc_pla, None, fun rng -> build_pla "cps" (pla_spec 14 14 55 4 6) rng);
    ("dalu", Arithmetic, None, build_alu ~width:10);
    ("des", Mcnc_pla, None, fun rng -> build_pla "des" (pla_spec 18 20 70 5 5) rng);
    ("e64", Mcnc_pla, None, fun rng -> build_pla "e64" (pla_spec 16 10 40 5 5) rng);
    ("ex1010", Mcnc_pla, None, fun rng -> build_pla "ex1010" (pla_spec 10 28 200 4 14) rng);
    ("ex5p", Mcnc_pla, None, fun rng -> build_pla "ex5p" (pla_spec 8 20 70 3 8) rng);
    ("i10", Mcnc_pla, None, fun rng -> build_pla "i10" (pla_spec 16 14 60 4 6) rng);
    ("k2", Mcnc_pla, None, fun rng -> build_pla "k2" (pla_spec 14 12 45 4 5) rng);
    ("misex3", Mcnc_pla, None, fun rng -> build_pla "misex3" (pla_spec 14 14 75 4 7) rng);
    ("misex3c", Mcnc_pla, None, fun rng -> build_pla "misex3c" (pla_spec 14 14 40 4 4) rng);
    ("pdc", Mcnc_pla, None, fun rng -> build_pla "pdc" (pla_spec 16 24 180 4 12) rng);
    ("seq", Mcnc_pla, None, fun rng -> build_pla "seq" (pla_spec 16 16 90 4 8) rng);
    ("spla", Mcnc_pla, None, fun rng -> build_pla "spla" (pla_spec 16 23 160 4 11) rng);
    ("table3", Mcnc_pla, None, fun rng -> build_pla "table3" (pla_spec 14 14 60 4 7) rng);
    ("table5", Mcnc_pla, None, fun rng -> build_pla "table5" (pla_spec 14 14 55 4 7) rng);
    ("sin", Arithmetic, None, build_cascade ~width:10 ~rounds:6);
    ("square", Arithmetic, Some 7, build_square ~width:8);
    ("arbiter", Epfl_control, Some 15, build_arbiter ~requests:8 ~ptr_bits:3);
    ("dec", Epfl_control, None, build_decoder ~bits:5);
    ("m_ctrl", Epfl_control, None, build_control_mix ~inputs:24 ~outputs:24);
    ("priority", Epfl_control, None, build_priority ~width:20);
    ("voter", Epfl_control, None, build_voter ~voters:15);
    ("log2", Arithmetic, None, build_log ~width:24);
    ("b14_C", Itc99, None, build_itc ~inputs:24 ~outputs:16 ~layers:7 ~layer_width:30);
    ("b14_C2", Itc99, None, build_itc ~inputs:24 ~outputs:16 ~layers:7 ~layer_width:32);
    ("b15_C", Itc99, None, build_itc ~inputs:30 ~outputs:20 ~layers:9 ~layer_width:48);
    ("b15_C2", Itc99, Some 8, build_itc ~inputs:30 ~outputs:20 ~layers:9 ~layer_width:50);
    ("b17_C", Itc99, Some 5, build_itc ~inputs:36 ~outputs:24 ~layers:11 ~layer_width:64);
    ("b17_C2", Itc99, Some 5, build_itc ~inputs:36 ~outputs:24 ~layers:11 ~layer_width:66);
    ("b20_C", Itc99, None, build_itc ~inputs:28 ~outputs:18 ~layers:8 ~layer_width:40);
    ("b20_C2", Itc99, Some 8, build_itc ~inputs:28 ~outputs:18 ~layers:8 ~layer_width:42);
    ("b21_C", Itc99, None, build_itc ~inputs:28 ~outputs:18 ~layers:8 ~layer_width:44);
    ("b21_C2", Itc99, Some 8, build_itc ~inputs:28 ~outputs:18 ~layers:8 ~layer_width:46);
    ("b22_C", Itc99, Some 6, build_itc ~inputs:32 ~outputs:20 ~layers:9 ~layer_width:52);
    ("b22_C2", Itc99, None, build_itc ~inputs:32 ~outputs:20 ~layers:9 ~layer_width:54);
  ]

let entries =
  List.map
    (fun (name, family, stack_copies, _) -> { name; family; stack_copies })
    builders

let names = List.map (fun e -> e.name) entries

let find name = List.find_opt (fun e -> e.name = name) entries

let aig name =
  match List.find_opt (fun (n, _, _, _) -> n = name) builders with
  | None -> raise Not_found
  | Some (_, _, _, build) ->
      build (Rng.of_string name)

let lut_network ?(k = 6) name =
  let net = Simgen_mapping.Lut_mapper.map ~k (aig name) in
  Simgen_network.Network.set_name net name;
  net

let stacked_lut_network ?(k = 6) name =
  let copies =
    match find name with
    | Some { stack_copies = Some c; _ } -> c
    | Some _ | None -> 2
  in
  let net = lut_network ?k:(Some k) name in
  let stacked = Simgen_network.Stack_networks.stack net copies in
  stacked
