module N = Simgen_network.Network
module Timer = Simgen_base.Timer
module Solver = Simgen_sat.Solver

type outcome =
  | Equivalent
  | Not_equivalent of { po : int; vector : bool array }
  | Inconclusive of { pos : int list }

type report = {
  outcome : outcome;
  stopped : bool;
  guided : Sweeper.guided_stats;
  sat : Sweeper.sat_stats;
  po_calls : int;
  po_stats : Solver.stats;
  final_cost : int;
  cost_history : int list;
  total_time : float;
}

let join net1 net2 =
  if N.num_pis net1 <> N.num_pis net2 then
    invalid_arg "Cec.join: PI count mismatch";
  let joined =
    N.create ~name:(Printf.sprintf "%s|%s" (N.name net1) (N.name net2)) ()
  in
  let pis = Array.init (N.num_pis net1) (fun _ -> N.add_pi joined) in
  let instantiate net =
    let map = Array.make (N.num_nodes net) (-1) in
    N.iter_nodes net (fun id ->
        match N.kind net id with
        | N.Pi idx -> map.(id) <- pis.(idx)
        | N.Gate f ->
            let fanins = Array.map (fun fi -> map.(fi)) (N.fanins net id) in
            map.(id) <- N.add_gate joined f fanins);
    Array.map (fun id -> map.(id)) (N.pos net)
  in
  let pos1 = instantiate net1 in
  let pos2 = instantiate net2 in
  Array.iter (fun id -> N.add_po joined id) pos1;
  Array.iter (fun id -> N.add_po joined id) pos2;
  (joined, pos1, pos2)

exception Stopped

(* The Fig. 2 flow over an existing sweeper: random rounds, guided
   rounds, the SAT sweep, then one miter per PO pair. [should_stop] is
   polled before random rounds 2..n, before every guided round, before
   and after the SAT sweep and before every PO query; once it answers
   [true] the flow does no more work. [max_sat_calls] caps the sweep's
   queries and the PO queries together: no PO query is posed once the
   cap is spent. *)
let run (opts : Sweep_options.t) sweeper pos1 pos2 =
  let t0 = Timer.now () in
  let observe = opts.Sweep_options.observe in
  let poll () = if opts.Sweep_options.should_stop () then raise Stopped in
  let guided = ref Sweeper.empty_guided and sat = ref Sweeper.empty_sat in
  let po_calls = ref 0 and po_stats = ref Solver.zero_stats in
  (* The PO pair under way and the quarantined ones before it, newest
     first: what a stop leaves undecided. *)
  let next_po = ref 0 and unknowns = ref [] in
  (* PO pairs: proven substitutions make most of these trivial, and the
     sweeper's substitution array shrinks the remaining miters to the
     unproven parts of the cones. Proven PO merges are recorded back into
     the substitution so they keep simplifying the later PO miters. On the
     incremental route the PO miters go through the sweeper's session, so
     they reuse the cone encodings and learned clauses of the sweep. *)
  let rec check_pos i =
    next_po := i;
    if i >= Array.length pos1 then
      match !unknowns with
      | [] -> Equivalent
      | pos -> Inconclusive { pos = List.rev pos }
    else begin
      let a = Sweeper.representative sweeper pos1.(i)
      and b = Sweeper.representative sweeper pos2.(i) in
      if a = b then check_pos (i + 1)
      else begin
        poll ();
        (match opts.Sweep_options.max_sat_calls with
         | Some m when !sat.Sweeper.calls + !po_calls >= m -> raise Stopped
         | Some _ | None -> ());
        incr po_calls;
        let verdict, st = Sweeper.verify_pair opts sweeper a b in
        po_stats := Solver.add_stats !po_stats st;
        match verdict with
        | Sat_session.Equal ->
            (* Through [Sweeper.merge] so a certifying run logs the PO
               merge against the proof that just established it. *)
            Sweeper.merge sweeper a b;
            check_pos (i + 1)
        | Sat_session.Counterexample vector ->
            (* Feed the witness back like any other counter-example so the
               partial result (classes, cost history) stays consistent. *)
            observe (Sweep_options.Counterexample vector);
            Sweeper.apply_vector sweeper vector;
            Not_equivalent { po = i; vector }
        | Sat_session.Unknown ->
            (* Quarantined by the ladder: no verdict for this PO pair, but
               a definite counter-example on a later PO still wins, so
               keep going. *)
            unknowns := i :: !unknowns;
            check_pos (i + 1)
      end
    end
  in
  let outcome, stopped =
    try
      for round = 1 to opts.Sweep_options.random_rounds do
        if round > 1 then poll ();
        Sweeper.random_round sweeper;
        observe (Sweep_options.Random_round round)
      done;
      guided := Sweeper.run_guided opts sweeper;
      poll ();
      sat := Sweeper.sat_sweep opts sweeper;
      poll ();
      (check_pos 0, false)
    with Stopped ->
      let n = Array.length pos1 in
      ( Inconclusive
          { pos = List.rev !unknowns @ List.init (n - !next_po) (( + ) !next_po) },
        true )
  in
  {
    outcome;
    stopped;
    guided = !guided;
    sat = !sat;
    po_calls = !po_calls;
    po_stats = !po_stats;
    final_cost = Sweeper.cost sweeper;
    cost_history = Sweeper.cost_history sweeper;
    total_time = Timer.now () -. t0;
  }

let check (opts : Sweep_options.t) net1 net2 =
  if N.num_pos net1 <> N.num_pos net2 then
    invalid_arg "Cec.check: PO count mismatch";
  let t0 = Timer.now () in
  let joined, pos1, pos2 = join net1 net2 in
  let r = run opts (Sweeper.create opts joined) pos1 pos2 in
  { r with total_time = Timer.now () -. t0 }
