module Srcloc = Simgen_base.Srcloc
module Blif = Simgen_network.Blif
module Bench_format = Simgen_network.Bench_format
module Aiger = Simgen_aig.Aiger
module Dimacs = Simgen_sat.Dimacs
module Drup = Simgen_sat.Drup
module Tseitin = Simgen_sat.Tseitin
module Solver = Simgen_sat.Solver
module D = Diagnostic

let tseitin_encoding net =
  let env = Tseitin.create ~record:true () in
  let _vars = Tseitin.encode_network env net in
  Cnf_lint.run
    ~source:(Printf.sprintf "tseitin(%s)" (Simgen_network.Network.name net))
    ~nvars:(Solver.num_vars (Tseitin.solver env))
    (Tseitin.clauses env)

let parse_error loc msg =
  [ D.error ~loc:(D.Src loc) "P001" "parse error: %s" msg ]

let file path =
  let ext =
    match String.rindex_opt path '.' with
    | Some i -> String.lowercase_ascii (String.sub path i (String.length path - i))
    | None -> ""
  in
  try
    match ext with
    | ".blif" -> Net_lint.run (Blif.parse_file path)
    | ".bench" -> Net_lint.run (Bench_format.parse_file path)
    | ".aag" -> Aig_lint.run (Aiger.parse_file path)
    | ".cnf" | ".dimacs" ->
        let nvars, clauses = Dimacs.parse_file path in
        Cnf_lint.run ~source:path ~nvars clauses
    | ".drup" -> Proof_lint.run (Drup.parse_file path)
    | _ ->
        [ D.error
            ~loc:(D.Src (Srcloc.in_file path))
            "P002" "unknown file kind %S (expected .blif, .bench, .aag, .cnf, \
                    .dimacs or .drup)"
            ext ]
  with
  | Blif.Parse_error (loc, msg)
  | Bench_format.Parse_error (loc, msg)
  | Aiger.Parse_error (loc, msg)
  | Dimacs.Parse_error (loc, msg)
  | Drup.Parse_error (loc, msg) ->
      parse_error loc msg
  | Sys_error msg ->
      [ D.error ~loc:(D.Src (Srcloc.in_file path)) "P002" "%s" msg ]
