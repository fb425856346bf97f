(* table1-guided: the paper's Table 1 protocol on every flat suite
   circuit. Each circuit is LUT-mapped (K = 6), simulated with one random
   round, then given the guided rounds, once under RevS and once under
   SimGen (AI+DC+MFFC). No SAT runs, so a SAT or serving change must read
   as no change here, while a guided-phase change shows directly. *)

module Suite = Simgen_benchgen.Suite
module Sweeper = Simgen_sweep.Sweeper
module Sweep_options = Simgen_sweep.Sweep_options
module Strategy = Simgen_core.Strategy
module N = Simgen_network.Network
module H = Harness

let circuits ~smoke = if smoke then [ "dec"; "priority"; "apex5" ] else Suite.names
let strategies = [ Strategy.RevS; Strategy.AI_DC_MFFC ]

type inst = {
  bench : string;
  strategy : Strategy.t;
  cost : int;  (** Eq. 5 after the guided rounds *)
  history : int list;
  guided_time : float;
  clock : H.clock;
}

let options (p : H.params) strategy =
  {
    Sweep_options.default with
    Sweep_options.seed = p.seed;
    strategy;
    guided_iterations = (if p.smoke then 2 else 20);
  }

let finish ~bench ~strategy ~guided_time ~t0 sw =
  {
    bench;
    strategy;
    cost = Sweeper.cost sw;
    history = Sweeper.cost_history sw;
    guided_time;
    clock = { H.start = t0; stop = H.now () };
  }

let untraced p (bench, net) strategy =
  let o = options p strategy in
  let t0 = H.now () in
  let sw = Sweeper.create o net in
  for _ = 1 to o.Sweep_options.random_rounds do
    Sweeper.random_round sw
  done;
  let g = Sweeper.run_guided o sw in
  finish ~bench ~strategy ~guided_time:g.Sweeper.guided_time ~t0 sw

(* The same instance through the public steps [run_guided] is made of.
   [guided_round] returns the round's own statistics, not a running
   total, so the counters add them up. *)
let traced p c (bench, net) strategy =
  let o = options p strategy in
  Span.instance "table1.instance" (fun () ->
      let t0 = H.now () in
      let sw = Span.with_ "sweep.create" (fun () -> Sweeper.create o net) in
      for _ = 1 to o.Sweep_options.random_rounds do
        Span.with_ "sim.random" (fun () -> Sweeper.random_round sw)
      done;
      let guided_time = ref 0.0 in
      for _ = 1 to o.Sweep_options.guided_iterations do
        let d =
          Span.with_ "core.guided" (fun () -> Sweeper.guided_round sw strategy)
        in
        guided_time := !guided_time +. d.Sweeper.guided_time;
        H.add_guided c d
      done;
      finish ~bench ~strategy ~guided_time:!guided_time ~t0 sw)

let pass run nets = List.concat_map (fun n -> List.map (run n) strategies) nets

(* Guided simulation only ever splits classes, so the cost history must
   never rise. *)
let sound i =
  let rec down = function a :: (b :: _ as rest) -> a >= b && down rest | [ _ ] | [] -> true in
  down i.history && Some i.cost = List.nth_opt i.history (List.length i.history - 1)

let key i = (i.bench, Strategy.name i.strategy, i.cost, i.history)

let run (p : H.params) =
  let setups, plain, traced =
    H.measure p
      ~setup:(fun () ->
        H.timed (fun () ->
            List.map (fun b -> (b, Suite.lut_network b)) (circuits ~smoke:p.smoke)))
      ~untraced:(fun (nets, _) -> pass (untraced p) nets)
      ~traced:(fun (nets, _) c -> pass (traced p c) nets)
  in
  let nets, _ = snd (H.last setups) in
  let first = List.hd plain in
  let all = plain @ List.map fst traced in
  let attempted = List.length (List.concat all) in
  let failed = List.length (List.filter (fun i -> not (sound i)) (List.concat all)) in
  let is_revs i = i.strategy = Strategy.RevS in
  let revs = List.filter is_revs first and simgen = List.filter (fun i -> not (is_revs i)) first in
  let cost_ratio =
    Stats.sum
      (List.map2
         (fun r s -> if r.cost = 0 then 1.0 else float_of_int s.cost /. float_of_int r.cost)
         revs simgen)
    /. float_of_int (List.length nets)
  in
  (* Guided host time of each strategy, from each instance's median over
     the passes. Both strategies run in every stretch of a run, so the
     ratio needs no scaling to the reference speed. *)
  let guided = List.combine first (H.typical (H.per_pass (fun i -> i.guided_time) plain)) in
  let guided_total pick = Stats.sum (List.filter_map (fun (i, t) -> if pick i then Some t else None) guided) in
  let time i = H.seconds i.clock in
  let values =
    H.common
      ~setup_times:(List.map fst setups)
      ~map_times:(List.map (fun (_, (_, m)) -> m) setups)
      ~luts:(List.fold_left (fun a (_, n) -> a + N.num_gates n) 0 nets)
      ~passes:(List.length plain)
      (H.typical (H.per_pass time plain))
    @ [
        Metrics.v "error_rate" (Stats.ratio (float_of_int failed) (float_of_int attempted));
        Metrics.v "cost" (float_of_int (List.fold_left (fun a i -> a + i.cost) 0 simgen));
        Metrics.v ~n:(List.length nets) "cost_ratio" cost_ratio;
        Metrics.v ~n:(List.length plain) "time_ratio"
          (Stats.ratio (guided_total (fun i -> not (is_revs i))) (guided_total is_revs));
      ]
    @ H.traced_values p ~times:(H.per_pass time plain)
        ~traced_times:(H.per_pass time (List.map fst traced))
        ~layers:(List.map snd traced) ~nets:(List.map snd nets)
  in
  let problems =
    if List.for_all (fun is -> List.map key is = List.map key first) all then []
    else [ "table1-guided: passes disagree on costs (traced or repeated)" ]
  in
  { H.attempted; failed; problems; values }
