(* Golden SAT-sweep behaviour. Each line of golden/sat_counts.txt is one
   circuit under one strategy and seed: the Table 1 protocol (K = 6
   mapping, the default random rounds, 20 guided rounds), then one
   [Sweeper.sat_sweep], recording its calls, proved and disproved pairs,
   solver conflicts and propagations, and a digest of the final merge
   partition (every node's representative). The solver's search depends
   on the clause order of each gate encoding, which follows the ISOP cube
   order, so a change there shows up as changed conflict or propagation
   counts even when the verdicts hold.

   Audits are forced off: under SIMGEN_CHECK the session's R005 audit
   solves once more after every query, which adds learnt clauses and
   changes the later counts. The file pins the search of an unaudited
   run, as the CLI and the benchmark make it.

   After the session rows come two rows per circuit for the fresh-solver
   route (seed 7, AI+DC+MFFC): [incremental = false], and the same with
   [certify = true]. That route re-encodes the query cones on a new
   solver each call, allocating variables lazily as clauses name them, so
   these rows pin its variable order as well as its clause order.

   The columns fall in two kinds. [proved] and [partition] are verdicts:
   they follow from which pairs are equivalent, so no change to the
   solver's search may move them. [calls], [disproved], [conflicts] and
   [propagations] are search: they move whenever the solver explores in
   a different order (different counterexamples refine the classes
   differently, so even the call count may move). A failure reports the
   two kinds separately.

   Regenerate (only when a search change is intended) with
     dune exec test/test_sat_golden.exe -- --write test/golden/sat_counts.txt
   Writing refuses when any row's verdict columns differ from the file it
   would replace; a change that is meant to move verdicts must delete
   the file first and say why. *)

module Suite = Simgen_benchgen.Suite
module Sweeper = Simgen_sweep.Sweeper
module Sweep_options = Simgen_sweep.Sweep_options
module Strategy = Simgen_core.Strategy
module N = Simgen_network.Network
module Runtime_check = Simgen_base.Runtime_check

let circuits = [ "dec"; "priority"; "apex5"; "alu4"; "square"; "b14_C" ]
let seeds = [ 3; 7 ]
let strategies = [ Strategy.RevS; Strategy.AI_DC_MFFC ]

let partition_digest sw net =
  let buf = Buffer.create 1024 in
  for id = 0 to N.num_nodes net - 1 do
    Buffer.add_string buf (string_of_int (Sweeper.representative sw id));
    Buffer.add_char buf ' '
  done;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents buf))) 0 12

let line ?(route = "") ?(tweak = Fun.id) bench net strategy seed =
  let o =
    tweak
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
  ignore (Sweeper.run_guided o sw : Sweeper.guided_stats);
  let s = Sweeper.sat_sweep o sw in
  Printf.sprintf "%s %s seed=%d%s calls=%d proved=%d disproved=%d \
                  conflicts=%d propagations=%d partition=%s"
    bench (Strategy.name strategy) seed route s.Sweeper.calls s.Sweeper.proved
    s.Sweeper.disproved s.Sweeper.conflicts s.Sweeper.propagations
    (partition_digest sw net)

let fresh o = { o with Sweep_options.incremental = false }
let fresh_certified o = { (fresh o) with Sweep_options.certify = true }

let lines () =
  Runtime_check.with_enabled false @@ fun () ->
  let nets = List.map (fun bench -> (bench, Suite.lut_network bench)) circuits in
  let session =
    List.concat_map
      (fun (bench, net) ->
        List.concat_map
          (fun strategy -> List.map (line bench net strategy) seeds)
          strategies)
      nets
  in
  let fresh_route =
    List.concat_map
      (fun (bench, net) ->
        [
          line ~route:" fresh" ~tweak:fresh bench net Strategy.AI_DC_MFFC 7;
          line ~route:" fresh-certified" ~tweak:fresh_certified bench net
            Strategy.AI_DC_MFFC 7;
        ])
      nets
  in
  session @ fresh_route

let golden_path =
  if Sys.file_exists "golden/sat_counts.txt" then "golden/sat_counts.txt"
  else "test/golden/sat_counts.txt"

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let verdict_fields = [ "proved"; "partition" ]
let search_fields = [ "calls"; "disproved"; "conflicts"; "propagations" ]

(* A row as (key, fields): the key is every token that is not one of the
   count columns (circuit, strategy, seed, route); the fields are the
   count columns as (name, token). *)
let parse line =
  let field tok =
    match String.index_opt tok '=' with
    | Some i when List.mem (String.sub tok 0 i) (verdict_fields @ search_fields)
      ->
        Some (String.sub tok 0 i, tok)
    | _ -> None
  in
  let toks = String.split_on_char ' ' line in
  ( String.concat " " (List.filter (fun t -> field t = None) toks),
    List.filter_map field toks )

(* Rows of [got] whose [names] columns differ from [expected], as
   "expected / got" line pairs; a row missing on either side counts as
   drift whatever [names] is. *)
let drift names ~expected ~got =
  let expected = List.map parse expected and got = List.map parse got in
  let show = function
    | Some f -> String.concat " " (List.map snd f)
    | None -> "(missing)"
  in
  let added = List.filter (fun (k, _) -> not (List.mem_assoc k expected)) got in
  List.filter_map
    (fun key ->
      let e = List.assoc_opt key expected and g = List.assoc_opt key got in
      let differs =
        match (e, g) with
        | Some e, Some g ->
            List.exists (fun n -> List.assoc_opt n e <> List.assoc_opt n g) names
        | _ -> true
      in
      if differs then
        Some
          (Printf.sprintf "  %s\n    golden: %s\n    now:    %s" key (show e)
             (show g))
      else None)
    (List.map fst (expected @ added))

let report title rows =
  Printf.sprintf "%s (%d rows):\n%s" title (List.length rows)
    (String.concat "\n" rows)

let test_counts () =
  let expected = read_lines golden_path and got = lines () in
  let verdicts = drift verdict_fields ~expected ~got in
  let search = drift search_fields ~expected ~got in
  if verdicts <> [] then
    Alcotest.fail
      (report "VERDICT drift: proved or partition changed" verdicts
      ^ "\n"
      ^ report "search drift (calls/disproved/conflicts/propagations)" search)
  else if search <> [] then
    Alcotest.fail
      (report
         "search drift only (calls/disproved/conflicts/propagations); \
          verdicts unchanged"
         search)
  else
    (* No column drifted by key; rows may still be reordered or repeated. *)
    Alcotest.(check (list string))
      "SAT-sweep counts match the golden file line for line" expected got

let () =
  match Sys.argv with
  | [| _; "--write"; path |] ->
      let got = lines () in
      let verdicts =
        if Sys.file_exists path then
          drift verdict_fields ~expected:(read_lines path) ~got
        else []
      in
      if verdicts <> [] then begin
        prerr_endline
          (report
             ("refusing to write " ^ path
            ^ ": proved or partition would change")
             verdicts);
        exit 1
      end;
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) got)
  | _ ->
      Alcotest.run "sat-golden"
        [ ("sat", [ Alcotest.test_case "sweep counts" `Quick test_counts ]) ]
