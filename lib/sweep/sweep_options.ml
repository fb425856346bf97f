type guided_stats = {
  iterations : int;
  vectors : int;
  skipped : int;
  gen_conflicts : int;
  implications : int;
  decisions : int;
  gen_sat_calls : int;
  guided_time : float;
}

type sat_stats = {
  calls : int;
  proved : int;
  disproved : int;
  conflicts : int;
  propagations : int;
  watch_visits : int;
  clause_reads : int;
  restarts : int;
  deleted : int;
  sat_time : float;
}

type observation =
  | Random_round of int
  | Guided_round of { round : int; delta : guided_stats }
  | Sat_sweep of sat_stats
  | Counterexample of bool array

type t = {
  seed : int;
  strategy : Simgen_core.Strategy.t;
  outgold : Simgen_core.Outgold.strategy;
  random_rounds : int;
  guided_iterations : int;
  max_sat_calls : int option;
  max_conflicts : int option;
  one_distance : bool;
  incremental : bool;
  certify : bool;
  solver_audit : bool;
  should_stop : unit -> bool;
  observe : observation -> unit;
  fun_cache : Fun_cache.t option;
}

let default =
  {
    seed = 1;
    strategy = Simgen_core.Strategy.AI_DC_MFFC;
    outgold = Simgen_core.Outgold.Alternating;
    random_rounds = 1;
    guided_iterations = 20;
    max_sat_calls = None;
    max_conflicts = None;
    one_distance = false;
    incremental = true;
    certify = false;
    solver_audit = false;
    should_stop = (fun () -> false);
    observe = ignore;
    fun_cache = None;
  }
