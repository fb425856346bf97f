(* Golden guided-phase behaviour. Each line of golden/guided_costs.txt is
   the Eq. 5 cost history of one circuit under one strategy and seed,
   after the Table 1 protocol: K = 6 mapping, the default random rounds,
   then 20 guided rounds, followed by the guided phase's totals of useful
   vectors, skipped classes, generation conflicts, implications and
   decisions. A change in a row choice, an implication or an RNG draw of
   the guided phase shows up as a changed line. Beside the flat circuits,
   square stacked twice (the cec-stacked shape) covers a deep network
   whose nodes have long fanout lists.

   Regenerate (only when a behaviour change is intended) with
     dune exec test/test_guided_golden.exe -- --write test/golden/guided_costs.txt *)

module Suite = Simgen_benchgen.Suite
module Sweeper = Simgen_sweep.Sweeper
module Sweep_options = Simgen_sweep.Sweep_options
module Strategy = Simgen_core.Strategy
module Stack_networks = Simgen_network.Stack_networks

let circuits =
  List.map
    (fun c -> (c, fun () -> Suite.lut_network c))
    [ "dec"; "priority"; "apex5"; "alu4"; "square"; "b14_C" ]
  @ [
      ( "square_x2",
        fun () -> Stack_networks.stack (Suite.lut_network "square") 2 );
    ]
let seeds = [ 3; 7 ]

let line bench net strategy seed =
  let o =
    {
      Sweep_options.default with
      Sweep_options.seed;
      strategy;
      guided_iterations = 20;
    }
  in
  let sw = Sweeper.create o net in
  for _ = 1 to o.Sweep_options.random_rounds do
    Sweeper.random_round sw
  done;
  let g = Sweeper.run_guided o sw in
  Printf.sprintf "%s %s seed=%d v=%d s=%d c=%d i=%d d=%d : %s" bench
    (Strategy.name strategy) seed g.Sweeper.vectors g.Sweeper.skipped
    g.Sweeper.gen_conflicts g.Sweeper.implications g.Sweeper.decisions
    (String.concat " " (List.map string_of_int (Sweeper.cost_history sw)))

let lines () =
  List.concat_map
    (fun (bench, network) ->
      let net = network () in
      List.concat_map
        (fun strategy -> List.map (line bench net strategy) seeds)
        Strategy.all)
    circuits

let golden_path =
  if Sys.file_exists "golden/guided_costs.txt" then "golden/guided_costs.txt"
  else "test/golden/guided_costs.txt"

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_histories () =
  Alcotest.(check (list string))
    "cost histories match the golden file" (read_lines golden_path) (lines ())

let () =
  match Sys.argv with
  | [| _; "--write"; path |] ->
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) (lines ()))
  | _ ->
      Alcotest.run "guided-golden"
        [
          ( "guided",
            [ Alcotest.test_case "cost histories" `Quick test_histories ] );
        ]
