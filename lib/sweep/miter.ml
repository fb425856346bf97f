module N = Simgen_network.Network
module Sat = Simgen_sat
module Tseitin = Simgen_sat.Tseitin

type fresh = {
  verdict : Sat_session.verdict;
  valid : bool;
  stats : Sat.Solver.stats;
  cert : Simgen_check.Certificate.query option;
}

(* The fresh-solver reference implementation: one solver per query, cone
   union re-encoded every time. Kept as the baseline the incremental
   session is differentially tested and benchmarked against, and as the
   ladder's fallback when a budgeted session query gives up. *)
let check_pair_fresh ~subst ?rng ?max_conflicts ?(certify = false) net a b =
  let resolve = Sat_session.resolve subst in
  let ra = resolve a and rb = resolve b in
  if ra = rb then
    {
      verdict = Sat_session.Equal;
      valid = true;
      stats = Sat.Solver.zero_stats;
      cert = None;
    }
  else begin
    let env = Tseitin.create ~record:certify () in
    let vars = Tseitin.encode_cones ~resolve env net [ ra; rb ] in
    (* XOR output must be 1. *)
    Tseitin.add env [ Sat.Literal.pos (Tseitin.xor_var env vars.(ra) vars.(rb)) ];
    let solver = Tseitin.solver env in
    let limits =
      match max_conflicts with
      | None -> Sat.Solver.Limits.unlimited
      | Some n -> Sat.Solver.Limits.conflicts n
    in
    let result = Sat.Solver.solve_limited ~limits solver in
    let stats = Sat.Solver.stats solver in
    let answer ?(valid = true) ?cert verdict = { verdict; valid; stats; cert } in
    match result with
    | Sat.Solver.LUnsat when not certify -> answer Sat_session.Equal
    | Sat.Solver.LUnsat -> (
        (* The trimmed proof is what goes into the certificate record. *)
        match Tseitin.checked_proof env with
        | Some (clauses, events) ->
            answer
              ~cert:
                (Simgen_check.Certificate.Fresh
                   { a = ra; b = rb; clauses; events })
              Sat_session.Equal
        | None -> answer ~valid:false Sat_session.Equal)
    | Sat.Solver.LSat ->
        let vec = Tseitin.pi_values ?rng solver net vars in
        let vals = N.eval net vec in
        answer ~valid:(vals.(ra) <> vals.(rb))
          (Sat_session.Counterexample vec)
    | Sat.Solver.LUnknown -> answer Sat_session.Unknown
  end
