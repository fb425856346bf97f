(* SAT-based vector generation, routed through an incremental session:
   the targets' cones are encoded once into the session's solver and the
   OUTgold values become plain assumptions, so repeated generation calls
   against the same network (the SAT-guided baseline loop) share cone
   encodings and learned clauses. *)

let generate_pairwise_in session outgold =
  match Sat_session.solve_targets session outgold with
  | Some vec -> Some vec
  | None -> (
      (* Keep one 1-target and one 0-target, try every such pair. *)
      let ones = List.filter (fun (_, g) -> g) outgold in
      let zeros = List.filter (fun (_, g) -> not g) outgold in
      let rec pairs = function
        | [] -> None
        | one :: rest -> (
            let rec inner = function
              | [] -> pairs rest
              | zero :: more -> (
                  match Sat_session.solve_targets session [ one; zero ] with
                  | Some vec -> Some vec
                  | None -> inner more)
            in
            inner zeros)
      in
      pairs ones)
