(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (§6) on the synthetic 42-circuit suite, plus an
   ablation study. Per-layer timings live in perfbench.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- table1  -- run one experiment
     (ids: table1 table2 table2s fig5 fig6 fig7 ablation baselines
      sat-session sat-session-smoke cert cert-smoke race solver-audit
      soak soak-smoke)

   Numbers are not expected to match the paper's testbed; the shapes are:
   SimGen variants beat RevS on cost at a simulation-time premium, SAT
   calls and SAT time drop accordingly, and random simulation stalls
   where guided simulation keeps splitting (Fig. 7). *)

module Suite = Simgen_benchgen.Suite
module Sweeper = Simgen_sweep.Sweeper
module Sweep_options = Simgen_sweep.Sweep_options
module Cec = Simgen_sweep.Cec
module Json = Simgen_base.Json
module Strategy = Simgen_core.Strategy
module Config = Simgen_core.Config
module Certificate = Simgen_check.Certificate

let seed = 7

(* Local shorthand for the one options record every entry point takes:
   most experiments only vary the strategy, iteration count or a single
   flag off the defaults. [max_sat_calls = 0] stops a flow before SAT. *)
let opts_with ?(seed = seed) ?(strategy = Strategy.AI_DC_MFFC)
    ?(iterations = 20) ?(one_distance = false)
    ?(outgold = Sweep_options.default.Sweep_options.outgold) ?max_sat_calls ()
    =
  {
    Sweep_options.default with
    Sweep_options.seed;
    strategy;
    guided_iterations = iterations;
    one_distance;
    outgold;
    max_sat_calls;
  }

(* Every BENCH_*.json file: one JSON object on one line. *)
let write_json path v =
  let oc = open_out path in
  output_string oc (Json.to_string v);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" path

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Table 1: average normalized cost and simulation runtime             *)
(* ------------------------------------------------------------------ *)

let table1_seeds = [ 7; 11 ]

let table1 () =
  header
    "Table 1: normalized Cost and Simulation Runtime vs RevS (42 benchmarks)";
  let per_strategy = Hashtbl.create 7 in
  List.iter
    (fun bench ->
      let net = Suite.lut_network bench in
      (* Average each strategy over the seeds, then normalize vs RevS. *)
      let averaged strategy =
        let rs =
          List.map
            (fun seed ->
              Runs.run (opts_with ~seed ~strategy ~max_sat_calls:0 ()) net)
            table1_seeds
        in
        ( Runs.mean (List.map (fun r -> float_of_int r.Runs.cost) rs),
          Runs.mean
            (List.map
               (fun r -> r.Runs.report.Cec.guided.Sweeper.guided_time)
               rs) )
      in
      let base_cost, base_time = averaged Strategy.RevS in
      List.iter
        (fun strategy ->
          let cost, time =
            if strategy = Strategy.RevS then (base_cost, base_time)
            else averaged strategy
          in
          let cost_ratio = Runs.ratio cost base_cost in
          let time_ratio = Runs.ratio time base_time in
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt per_strategy strategy)
          in
          Hashtbl.replace per_strategy strategy
            ((cost_ratio, time_ratio) :: prev))
        Strategy.all)
    (Runs.benchmarks ());
  Printf.printf "%-22s" "";
  List.iter (fun s -> Printf.printf "%12s" (Strategy.name s)) Strategy.all;
  Printf.printf "\n%-22s" "Cost";
  let cost s = Runs.mean (List.map fst (Hashtbl.find per_strategy s)) in
  List.iter (fun s -> Printf.printf "%12.3f" (cost s)) Strategy.all;
  Printf.printf "\n%-22s" "Simulation Runtime";
  List.iter
    (fun s ->
      let rs = Hashtbl.find per_strategy s in
      Printf.printf "%12.3f" (Runs.geo_mean (List.map snd rs)))
    Strategy.all;
  Printf.printf
    "\n\n(paper: 1.000 / 0.814 / 0.812 / 0.810 / 0.807 cost; runtime rises \
     mildly.\n\
    \ Expected shape: every SimGen variant < 1.000 cost, runtime > 1.000.)\n";
  (* The gate: the paper's headline shape, every SimGen variant's mean
     cost below RevS's. *)
  match
    List.filter (fun s -> s <> Strategy.RevS && cost s >= 1.0) Strategy.all
  with
  | [] -> ()
  | worse ->
      Printf.eprintf "table1: cost ratio not below 1.000 for %s\n"
        (String.concat ", " (List.map Strategy.name worse));
      exit 1

(* ------------------------------------------------------------------ *)
(* Table 2 (upper): SAT calls and SAT time per benchmark               *)
(* ------------------------------------------------------------------ *)

let rows_cache :
    (string, (string * Runs.result * Runs.result) list) Hashtbl.t =
  Hashtbl.create 4

(* RevS and SimGen runs per [(label, network)], computed once per key:
   fig5 and fig6 reuse the runs of table2 and table2s. *)
let table2_rows ~cache_key benches =
  match Hashtbl.find_opt rows_cache cache_key with
  | Some rows -> rows
  | None ->
      let rows =
        List.map
          (fun (label, net_of) ->
            let net = net_of () in
            let revs = Runs.run (opts_with ~strategy:Strategy.RevS ()) net in
            let sgen = Runs.run (opts_with ()) net in
            (label, revs, sgen))
          benches
      in
      Hashtbl.replace rows_cache cache_key rows;
      rows

let flat_rows () =
  table2_rows ~cache_key:"flat"
    (List.map
       (fun bench -> (bench, fun () -> Suite.lut_network bench))
       (Runs.benchmarks ()))

let print_table2 rows ~time_unit =
  let scale = if time_unit = "ms" then 1000.0 else 1.0 in
  Printf.printf "%-12s %10s %10s %12s %12s\n" "Bmk" "RevS calls" "SGen calls"
    (Printf.sprintf "RevS %s" time_unit)
    (Printf.sprintf "SGen %s" time_unit);
  let tc_r = ref 0 and tc_s = ref 0 and tt_r = ref 0.0 and tt_s = ref 0.0 in
  List.iter
    (fun (bench, revs, sgen) ->
      let revs = revs.Runs.report.Cec.sat
      and sgen = sgen.Runs.report.Cec.sat in
      tc_r := !tc_r + revs.Sweeper.calls;
      tc_s := !tc_s + sgen.Sweeper.calls;
      tt_r := !tt_r +. revs.Sweeper.sat_time;
      tt_s := !tt_s +. sgen.Sweeper.sat_time;
      Printf.printf "%-12s %10d %10d %12.2f %12.2f\n" bench
        revs.Sweeper.calls sgen.Sweeper.calls
        (revs.Sweeper.sat_time *. scale)
        (sgen.Sweeper.sat_time *. scale))
    rows;
  Printf.printf "%-12s %10d %10d %12.2f %12.2f   (totals)\n" "TOTAL" !tc_r
    !tc_s (!tt_r *. scale) (!tt_s *. scale);
  (!tc_r, !tc_s)

let table2 () =
  header "Table 2 (upper): SAT calls and SAT time, RevS vs SimGen";
  let revs_calls, simgen_calls = print_table2 (flat_rows ()) ~time_unit:"ms" in
  Printf.printf
    "\n(expected shape: SimGen needs fewer SAT calls than RevS on most rows,\n\
    \ and total SAT time drops accordingly.)\n";
  (* The gate: the paper's headline shape, fewer SAT calls in total. *)
  if simgen_calls >= revs_calls then begin
    Printf.eprintf "table2: SimGen's %d SAT calls are not below RevS's %d\n"
      simgen_calls revs_calls;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Table 2 (lower): stacked benchmarks (&putontop, §6.4)               *)
(* ------------------------------------------------------------------ *)

let stacked_rows () =
  table2_rows ~cache_key:"stacked"
    (List.map
       (fun (bench, copies) ->
         ( Printf.sprintf "%s (%d)" bench copies,
           fun () -> Suite.stacked_lut_network bench ))
       (Runs.stacked_benchmarks ()))

let table2_stacked () =
  header "Table 2 (lower): stacked benchmarks (putontop)";
  ignore (print_table2 (stacked_rows ()) ~time_unit:"ms");
  Printf.printf
    "\n(same trend as the upper table at larger scale: the copies multiply\n\
    \ the candidate pairs and deepen the miter cones.)\n"

(* ------------------------------------------------------------------ *)
(* Figures 5 and 6: per-benchmark normalized differences               *)
(* ------------------------------------------------------------------ *)

let figure_rows rows =
  List.map
    (fun (bench, revs, sgen) ->
      let r f = Runs.ratio (f sgen) (f revs) in
      ( bench,
        r (fun x -> float_of_int x.Runs.cost),
        r (fun x -> x.Runs.report.Cec.guided.Sweeper.guided_time),
        r (fun x -> float_of_int x.Runs.report.Cec.sat.Sweeper.calls),
        r (fun x -> x.Runs.report.Cec.sat.Sweeper.sat_time) ))
    rows

let spark v =
  (* Tiny text bar: 1.0 is the RevS baseline. *)
  let n = int_of_float (v *. 10.0 +. 0.5) in
  String.concat "" (List.init (min n 30) (fun _ -> "#"))

let print_figure rows =
  Printf.printf "%-14s %28s %28s %28s %28s\n" "" "cost" "sim runtime"
    "SAT calls" "SAT time";
  List.iter
    (fun (bench, c, st, sc, stt) ->
      Printf.printf "%-14s %8.3f %-19s %8.3f %-19s %8.3f %-19s %8.3f %-19s\n"
        bench c (spark c) st (spark st) sc (spark sc) stt (spark stt))
    rows;
  let col f = Runs.mean (List.map f rows) in
  Printf.printf "%-14s %8.3f %19s %8.3f %19s %8.3f %19s %8.3f %19s\n" "MEAN"
    (col (fun (_, c, _, _, _) -> c))
    ""
    (col (fun (_, _, st, _, _) -> st))
    ""
    (col (fun (_, _, _, sc, _) -> sc))
    ""
    (col (fun (_, _, _, _, stt) -> stt))
    ""

let fig5 () =
  header
    "Figure 5: SimGen/RevS ratios per benchmark (cost, sim runtime, SAT \
     calls, SAT time; 1.0 = RevS)";
  print_figure (figure_rows (flat_rows ()))

let fig6 () =
  header "Figure 6: the same ratios on the stacked benchmarks";
  print_figure (figure_rows (stacked_rows ()))

(* ------------------------------------------------------------------ *)
(* Figure 7: iteration traces, RandS vs RandS->RevS vs RandS->SimGen   *)
(* ------------------------------------------------------------------ *)

let fig7_trace net mode ~iterations =
  (* RandS until the cost stalls for 3 consecutive iterations, then switch
     to the guided strategy (if any). Returns (cost, cumulative seconds)
     per iteration. *)
  let sw = Sweeper.create (opts_with ()) net in
  let t0 = Unix.gettimeofday () in
  let trace = ref [] in
  let stall = ref 0 in
  let switched = ref false in
  let last_cost = ref max_int in
  for _ = 1 to iterations do
    (match (mode, !switched) with
     | `Random_only, _ | _, false -> Sweeper.random_round sw
     | `Then rs, true -> ignore (Sweeper.guided_round sw rs));
    let c = Sweeper.cost sw in
    if c = !last_cost then incr stall else stall := 0;
    last_cost := c;
    if !stall >= 3 && mode <> `Random_only then switched := true;
    trace := (c, Unix.gettimeofday () -. t0) :: !trace
  done;
  List.rev !trace

let fig7 () =
  header
    "Figure 7: cost per iteration, RandS vs RandS->RevS vs RandS->SimGen";
  List.iter
    (fun bench ->
      let net = Suite.lut_network bench in
      let iterations = 45 in
      let rand = fig7_trace net `Random_only ~iterations in
      let revs = fig7_trace net (`Then Strategy.RevS) ~iterations in
      let sgen = fig7_trace net (`Then Strategy.AI_DC_MFFC) ~iterations in
      Printf.printf "\n[%s]\n%5s %22s %22s %22s\n" bench "iter"
        "RandS cost/time" "+RevS cost/time" "+SimGen cost/time";
      List.iteri
        (fun i ((c1, t1), ((c2, t2), (c3, t3))) ->
          Printf.printf "%5d %12d %8.4fs %12d %8.4fs %12d %8.4fs\n" (i + 1) c1
            t1 c2 t2 c3 t3)
        (List.combine rand (List.combine revs sgen)))
    [ "apex2"; "cps" ];
  Printf.printf
    "\n(expected shape: RandS flattens after a few iterations; the guided\n\
    \ tails keep reducing cost, SimGen at least as fast as RevS.)\n"

(* ------------------------------------------------------------------ *)
(* Ablation: Eq. 4 coefficients and implication power                  *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "Ablation: Eq. (4) alpha/beta and implication strategy";
  let benches = [ "apex2"; "cps"; "seq"; "b14_C"; "voter" ] in
  Printf.printf "alpha/beta sweep (AI + DC + MFFC decisions):\n";
  Printf.printf "%-18s %10s %10s\n" "(alpha, beta)" "mean cost" "conflicts";
  List.iter
    (fun (alpha, beta) ->
      let costs = ref [] and conflicts = ref 0 in
      List.iter
        (fun bench ->
          let net = Suite.lut_network bench in
          let sw = Sweeper.create (opts_with ()) net in
          Sweeper.random_round sw;
          let config = { Config.default with Config.alpha; beta } in
          for _ = 1 to 20 do
            ignore (Sweeper.guided_round_config sw config)
          done;
          let g = Sweeper.guided_stats sw in
          conflicts := !conflicts + g.Sweeper.gen_conflicts;
          costs := float_of_int (Sweeper.cost sw) :: !costs)
        benches;
      Printf.printf "%-18s %10.2f %10d\n"
        (Printf.sprintf "(%.1f, %.2f)" alpha beta)
        (Runs.mean !costs) !conflicts)
    [ (1.0, 0.0); (1.0, 0.25); (1.0, 0.5); (1.0, 1.0); (0.0, 1.0) ];
  Printf.printf
    "\nimplication power (conflicts and implied values per guided phase):\n";
  Printf.printf "%-11s %12s %12s %12s\n" "strategy" "implications" "decisions"
    "conflicts";
  List.iter
    (fun strategy ->
      let impl = ref 0 and dec = ref 0 and conf = ref 0 in
      List.iter
        (fun bench ->
          let net = Suite.lut_network bench in
          let opts = opts_with ~strategy ~max_sat_calls:0 () in
          let g = (Runs.run opts net).Runs.report.Cec.guided in
          impl := !impl + g.Sweeper.implications;
          dec := !dec + g.Sweeper.decisions;
          conf := !conf + g.Sweeper.gen_conflicts)
        benches;
      Printf.printf "%-11s %12d %12d %12d\n" (Strategy.name strategy) !impl
        !dec !conf)
    Strategy.all

(* ------------------------------------------------------------------ *)
(* Related-work baselines (extension): SAT vectors, 1-distance,        *)
(* OUTgold strategies                                                  *)
(* ------------------------------------------------------------------ *)

let baselines () =
  header
    "Baselines: SimGen vs SAT-vector generation (Lee/Amaru) and 1-distance \
     (Mishchenko)";
  let benches = [ "apex2"; "cps"; "seq"; "b14_C"; "pdc" ] in
  Printf.printf "%-8s %-14s %8s %10s %10s %10s\n" "bench" "generator" "cost"
    "gen calls" "gen time" "sweep SAT";
  List.iter
    (fun bench ->
      let net = Suite.lut_network bench in
      let row label cost (g : Sweeper.guided_stats) (s : Sweeper.sat_stats) =
        Printf.printf "%-8s %-14s %8d %10d %9.3fs %10d\n" bench label cost
          g.Sweeper.gen_sat_calls g.Sweeper.guided_time s.Sweeper.calls
      in
      let flow label opts =
        let r = Runs.run opts net in
        row label r.Runs.cost r.Runs.report.Cec.guided
          r.Runs.report.Cec.sat
      in
      flow "RevS" (opts_with ~strategy:Strategy.RevS ());
      flow "SimGen" (opts_with ());
      (* No options field selects SAT-vector generation, so this flow
         calls its guided loop by hand. *)
      let opts = opts_with () in
      let sw = Sweeper.create opts net in
      Sweeper.random_round sw;
      let g = Sweeper.run_sat_guided opts sw in
      let cost = Sweeper.cost sw in
      row "SAT vectors" cost g (Sweeper.sat_sweep opts sw))
    benches;
  Printf.printf
    "\n(the SAT-vector generator is exact, so its post-simulation cost is \
     the floor;\n\
    \ SimGen approaches it without spending any generation SAT calls.)\n";
  Printf.printf "\n1-distance counter-example expansion during SAT sweeping:\n";
  Printf.printf "%-8s %-16s %10s %10s\n" "bench" "mode" "SAT calls" "disproved";
  List.iter
    (fun bench ->
      let net = Suite.lut_network bench in
      let flow label one_distance =
        let opts = opts_with ~iterations:5 ~one_distance () in
        let s = (Runs.run opts net).Runs.report.Cec.sat in
        Printf.printf "%-8s %-16s %10d %10d\n" bench label s.Sweeper.calls
          s.Sweeper.disproved
      in
      flow "plain cex" false;
      flow "1-distance cex" true)
    benches;
  Printf.printf "\nOUTgold strategies (SimGen, cost after 20 iterations):\n";
  Printf.printf "%-8s %12s %12s %12s\n" "bench" "alternating" "random" "level";
  List.iter
    (fun bench ->
      let net = Suite.lut_network bench in
      let cost_with outgold =
        (Runs.run (opts_with ~outgold ~max_sat_calls:0 ()) net).Runs.cost
      in
      Printf.printf "%-8s %12d %12d %12d\n" bench
        (cost_with Simgen_core.Outgold.Alternating)
        (cost_with Simgen_core.Outgold.Random_balanced)
        (cost_with Simgen_core.Outgold.Level_split))
    benches

(* ------------------------------------------------------------------ *)
(* Incremental SAT sessions: fresh-per-pair vs one persistent solver   *)
(* ------------------------------------------------------------------ *)

(* The gate the incremental session must clear on every suite: no slower
   than fresh solving on wall time, and no more than 1.5x the fresh
   propagation volume (BCP over a garbage-collected clause database). *)
let props_slack = 1.5

let sat_session_compare ~benches ~net_of ~guided_iterations ~out_file title =
  header title;
  Printf.printf "%-14s %9s | %9s %9s %8s | %9s %9s %8s | %7s %5s %5s\n" "bench"
    "calls" "fr confl" "fr props" "fr time" "inc confl" "inc props" "inc time"
    "confl x" "same" "gate";
  (* One full sweep with the miter route fixed by [incremental]. *)
  let flow ~incremental net =
    Runs.run
      { (opts_with ~iterations:guided_iterations ()) with
        Sweep_options.incremental }
      net
  in
  let rows =
    List.map
      (fun bench ->
        let net = net_of bench in
        let fresh = flow ~incremental:false net in
        let inc = flow ~incremental:true net in
        (* Verdicts are route-independent, so both routes end at the exact
           functional-equivalence partition; the counter-example sequences
           (and hence call counts) may differ along the way. *)
        let same = fresh.Runs.partition = inc.Runs.partition in
        let fresh = fresh.Runs.report.Cec.sat
        and inc = inc.Runs.report.Cec.sat in
        let gate =
          inc.Sweeper.sat_time <= fresh.Sweeper.sat_time
          && float_of_int inc.Sweeper.propagations
             <= props_slack *. float_of_int fresh.Sweeper.propagations
        in
        let ratio =
          if inc.Sweeper.conflicts = 0 then Float.infinity
          else
            float_of_int fresh.Sweeper.conflicts
            /. float_of_int inc.Sweeper.conflicts
        in
        Printf.printf
          "%-14s %9d | %9d %9d %7.3fs | %9d %9d %7.3fs | %7.2f %5s %5s\n"
          bench inc.Sweeper.calls fresh.Sweeper.conflicts
          fresh.Sweeper.propagations fresh.Sweeper.sat_time
          inc.Sweeper.conflicts inc.Sweeper.propagations inc.Sweeper.sat_time
          ratio
          (if same then "yes" else "NO")
          (if gate then "ok" else "FAIL");
        (bench, fresh, inc, same, gate))
      benches
  in
  let total f =
    List.fold_left (fun acc (_, fr, inc, _, _) -> acc + f fr inc) 0 rows
  in
  let t_fresh_confl = total (fun fr _ -> fr.Sweeper.conflicts)
  and t_inc_confl = total (fun _ inc -> inc.Sweeper.conflicts)
  and t_fresh_props = total (fun fr _ -> fr.Sweeper.propagations)
  and t_inc_props = total (fun _ inc -> inc.Sweeper.propagations)
  and t_inc_deleted = total (fun _ inc -> inc.Sweeper.deleted) in
  let all_same = List.for_all (fun (_, _, _, same, _) -> same) rows in
  let all_gated = List.for_all (fun (_, _, _, _, gate) -> gate) rows in
  Printf.printf
    "TOTAL: conflicts %d -> %d, propagations %d -> %d (%d clauses GCed), \
     merge results %s, perf gate %s\n"
    t_fresh_confl t_inc_confl t_fresh_props t_inc_props t_inc_deleted
    (if all_same then "identical" else "DIFFER")
    (if all_gated then "passed" else "FAILED");
  (* One object per bench plus totals; the schema mirrors the console
     table. *)
  let stats_json (s : Sweeper.sat_stats) =
    Json.(
      Obj
        [
          ("calls", Int s.Sweeper.calls);
          ("proved", Int s.Sweeper.proved);
          ("disproved", Int s.Sweeper.disproved);
          ("conflicts", Int s.Sweeper.conflicts);
          ("propagations", Int s.Sweeper.propagations);
          ("restarts", Int s.Sweeper.restarts);
          ("deleted", Int s.Sweeper.deleted);
          ("sat_time", Float s.Sweeper.sat_time);
        ])
  in
  write_json out_file
    Json.(
      Obj
        [
          ("experiment", String "sat-session");
          ("seed", Int seed);
          ("guided_iterations", Int guided_iterations);
          ("props_slack", Float props_slack);
          ( "benches",
            List
              (List.map
                 (fun (bench, fresh, inc, same, gate) ->
                   Obj
                     [
                       ("bench", String bench);
                       ("fresh", stats_json fresh);
                       ("incremental", stats_json inc);
                       ("identical_merges", Bool same);
                       ("gate", Bool gate);
                     ])
                 rows) );
          ( "total",
            Obj
              [
                ("fresh_conflicts", Int t_fresh_confl);
                ("incremental_conflicts", Int t_inc_confl);
                ("fresh_propagations", Int t_fresh_props);
                ("incremental_propagations", Int t_inc_props);
                ("incremental_deleted", Int t_inc_deleted);
                ("identical_merges", Bool all_same);
                ("gate", Bool all_gated);
              ] );
        ]);
  if not all_same then begin
    Printf.eprintf
      "sat-session: merge results differ between fresh and incremental\n";
    exit 1
  end;
  if not all_gated then begin
    Printf.eprintf
      "sat-session: incremental route exceeded the perf gate (sat_time <= \
       fresh and propagations <= %.1fx fresh)\n"
      props_slack;
    exit 1
  end

let sat_session () =
  (* A representative slice of the stacked suite — one bench per size
     band; the full suite at both routes runs for tens of minutes. *)
  sat_session_compare
    ~benches:[ "apex2"; "square"; "arbiter" ]
    ~net_of:Suite.stacked_lut_network ~guided_iterations:10
    ~out_file:"BENCH_SAT_SESSION.json"
    "Incremental SAT sessions vs fresh-per-pair solvers (stacked suite)"

let sat_session_smoke () =
  (* Stacked subset: only stacked suites make enough queries against one
     instance for the session's clause-database management to matter, so
     the gate is meaningful here in a way the flat suite cannot be. *)
  sat_session_compare
    ~benches:[ "apex2"; "square" ]
    ~net_of:Suite.stacked_lut_network ~guided_iterations:10
    ~out_file:"BENCH_SAT_SESSION.json"
    "Incremental SAT sessions vs fresh-per-pair solvers (stacked smoke \
     subset)"

(* ------------------------------------------------------------------ *)
(* Certification overhead: certified session sweep + independent check *)
(* ------------------------------------------------------------------ *)

(* Wall time covers the whole flow (simulation + SAT) plus, on the
   certified side, assembling and independently re-checking the
   certificate — the honest end-to-end price of not trusting the
   solver. *)
let cert_compare ~benches ~net_of ~guided_iterations ~out_file title =
  header title;
  Printf.printf "%-14s %9s | %8s | %8s %9s %9s %7s | %8s %5s %5s\n" "bench"
    "calls" "plain" "cert" "queries" "steps" "checked" "overhead" "valid"
    "same";
  let flow ~certify net =
    Runs.run
      { (opts_with ~iterations:guided_iterations ()) with
        Sweep_options.certify }
      net
  in
  (* Per bench: both wall times, the two verdicts the gate reads, and
     the bench's JSON object. *)
  let rows =
    List.map
      (fun bench ->
        let net = net_of bench in
        let plain = flow ~certify:false net in
        let cert = flow ~certify:true net in
        let report = Option.get cert.Runs.cert in
        (* one answer in every mode: the same merges, and the cut check
           answering the same pairs *)
        let same =
          plain.Runs.partition = cert.Runs.partition
          && plain.Runs.cut_hits = cert.Runs.cut_hits
        in
        let t_plain = plain.Runs.time and t_cert = cert.Runs.time in
        let cut_hits = cert.Runs.cut_hits in
        let overhead = if t_plain > 0.0 then t_cert /. t_plain else 1.0 in
        let cert = cert.Runs.report.Cec.sat
        and valid = report.Certificate.valid in
        Printf.printf
          "%-14s %9d | %7.3fs | %7.3fs %9d %9d %7d | %7.2fx %5s %5s\n" bench
          cert.Sweeper.calls t_plain t_cert report.Certificate.queries
          report.Certificate.steps report.Certificate.steps_checked overhead
          (if valid then "yes" else "NO")
          (if same then "yes" else "NO");
        ( t_plain,
          t_cert,
          valid,
          same,
          Json.(
            Obj
              [
                ("bench", String bench);
                ("calls", Int cert.Sweeper.calls);
                ("proved", Int cert.Sweeper.proved);
                ("plain_time", Float t_plain);
                ("certified_time", Float t_cert);
                ("overhead", Float overhead);
                ("queries", Int report.Certificate.queries);
                ("proof_steps", Int report.Certificate.steps);
                ("steps_checked", Int report.Certificate.steps_checked);
                ("steps_trimmed", Int report.Certificate.steps_trimmed);
                ("cut_hits", Int cut_hits);
                ("certificate_valid", Bool valid);
                ("identical_merges", Bool same);
              ]) ))
      benches
  in
  let t_plain_total =
    List.fold_left (fun acc (tp, _, _, _, _) -> acc +. tp) 0.0 rows
  and t_cert_total =
    List.fold_left (fun acc (_, tc, _, _, _) -> acc +. tc) 0.0 rows
  in
  let total_overhead =
    if t_plain_total > 0.0 then t_cert_total /. t_plain_total else 1.0
  in
  let all_valid = List.for_all (fun (_, _, v, _, _) -> v) rows in
  let all_same = List.for_all (fun (_, _, _, s, _) -> s) rows in
  let within_2x = total_overhead <= 2.0 in
  Printf.printf
    "TOTAL: %.3fs plain -> %.3fs certified (%.2fx, %s), certificates %s, \
     merge results %s\n"
    t_plain_total t_cert_total total_overhead
    (if within_2x then "within 2x" else "OVER 2x")
    (if all_valid then "all valid" else "INVALID")
    (if all_same then "identical" else "DIFFER");
  write_json out_file
    Json.(
      Obj
        [
          ("experiment", String "cert");
          ("seed", Int seed);
          ("guided_iterations", Int guided_iterations);
          ("benches", List (List.map (fun (_, _, _, _, j) -> j) rows));
          ( "total",
            Obj
              [
                ("plain_time", Float t_plain_total);
                ("certified_time", Float t_cert_total);
                ("overhead", Float total_overhead);
                ("within_2x", Bool within_2x);
                ("all_valid", Bool all_valid);
                ("identical_merges", Bool all_same);
              ] );
        ]);
  if not (all_same && all_valid) then begin
    Printf.eprintf
      "cert: %s\n"
      (if not all_valid then "a certificate failed its independent check"
       else
         "merge results or cut-check answers differ between plain and \
          certified sweeps");
    exit 1
  end

let cert () =
  cert_compare
    ~benches:[ "apex2"; "square"; "arbiter" ]
    ~net_of:Suite.stacked_lut_network ~guided_iterations:10
    ~out_file:"BENCH_CERT.json"
    "Certified sweeps: proof logging + independent re-check vs plain \
     (stacked suite)"

let cert_smoke () =
  cert_compare
    ~benches:[ "apex2"; "cps" ]
    ~net_of:Suite.lut_network ~guided_iterations:5
    ~out_file:"BENCH_CERT.json"
    "Certified sweeps: proof logging + independent re-check vs plain \
     (smoke subset)"

(* ------------------------------------------------------------------ *)
(* Daemon answers (shared by the soak experiment)                      *)
(* ------------------------------------------------------------------ *)

module Serve_server = Simgen_serve.Server
module Serve_protocol = Simgen_serve.Protocol

let frame_status = function
  | Serve_protocol.Result fields -> (
      match
        Serve_protocol.string_member "status" (Serve_protocol.Obj fields)
      with
      | Some s -> s
      | None -> "missing-status")
  | Serve_protocol.Failed msg -> "failed: " ^ msg
  | Serve_protocol.Overloaded _ -> "overloaded"
  | Serve_protocol.Event _ -> "unexpected-event"

(* ------------------------------------------------------------------ *)
(* Race: concurrency sanitizer overhead on the stacked batch suite     *)
(* ------------------------------------------------------------------ *)

(* Instrumentation is compiled in unconditionally, so "baseline" is the
   production configuration (probes present, recording disarmed) and the
   disarmed gate bounds probe cost + run-to-run noise: a second
   independent disarmed series must stay within 1.05x of the first.
   The armed series (full event recording + drain-time analysis) must
   stay within 3x and produce zero race diagnostics. Min-of-3 per
   series keeps a single noisy rep from tripping the gate. *)
let race () =
  header
    "Race: concurrency sanitizer overhead on the stacked batch suite \
     (min of 3 reps per series)";
  let module R = Simgen_runner in
  let module Shared = Simgen_base.Shared in
  let module Race_check = Simgen_check.Race_check in
  let workers = 2 and reps = 3 in
  let specs () =
    let specs =
      List.concat_map
        (fun bench ->
          List.map
            (fun seed ->
              R.Job.make
                ~options:
                  {
                    Sweep_options.default with
                    Sweep_options.seed;
                    guided_iterations = 10;
                  }
                ~limits:
                  { R.Budget.unlimited with R.Budget.deadline = Some 30.0 }
                ~label:(Printf.sprintf "%s/s%d" bench seed)
                ~id:0
                (R.Job.Sweep (R.Job.Suite_stacked bench)))
            [ seed; seed + 1 ])
        [ "apex2"; "square" ]
    in
    List.mapi (fun id s -> { s with R.Job.id }) specs
  in
  let run_once ~armed () =
    Shared.disarm ();
    Shared.reset_trace ();
    if armed then Shared.arm ();
    let cache = R.Pattern_cache.create () in
    let report = R.Pool.run ~workers ~cache (specs ()) in
    Shared.disarm ();
    let trace = if armed then Some (Shared.snapshot ()) else None in
    Shared.reset_trace ();
    (report.R.Pool.wall_time, trace)
  in
  let series name ~armed =
    let runs = List.init reps (fun _ -> run_once ~armed ()) in
    let best =
      List.fold_left (fun acc (t, _) -> min acc t) infinity runs
    in
    Printf.printf "%-10s min %7.3fs  (reps:%s)\n%!" name best
      (String.concat ""
         (List.map (fun (t, _) -> Printf.sprintf " %.3fs" t) runs));
    (best, List.filter_map snd runs)
  in
  let baseline, _ = series "baseline" ~armed:false in
  let disarmed, _ = series "disarmed" ~armed:false in
  let armed, traces = series "armed" ~armed:true in
  let trace = List.nth traces 0 in
  let events = List.length trace.Shared.events in
  let diags =
    List.filter
      (fun (d : Simgen_check.Diagnostic.t) ->
        d.Simgen_check.Diagnostic.severity <> Simgen_check.Diagnostic.Info)
      (Race_check.analyze trace)
  in
  List.iter
    (fun d -> print_endline (Simgen_check.Diagnostic.to_string d))
    diags;
  let disarmed_overhead = disarmed /. baseline in
  let armed_overhead = armed /. baseline in
  let disarmed_ok = disarmed_overhead <= 1.05 in
  let armed_ok = armed_overhead <= 3.0 in
  let race_clean = diags = [] in
  Printf.printf
    "disarmed overhead %.3fx (gate 1.05x, %s); armed %.3fx (gate 3x, %s); \
     %d events, %d race diagnostic(s) (%s)\n"
    disarmed_overhead
    (if disarmed_ok then "ok" else "OVER")
    armed_overhead
    (if armed_ok then "ok" else "OVER")
    events (List.length diags)
    (if race_clean then "clean" else "RACES");
  write_json "BENCH_RACE.json"
    Json.(
      Obj
        [
          ("experiment", String "race");
          ("seed", Int seed);
          ("workers", Int workers);
          ("jobs", Int (List.length (specs ())));
          ("reps", Int reps);
          ("baseline_time", Float baseline);
          ("disarmed_time", Float disarmed);
          ("armed_time", Float armed);
          ("disarmed_overhead", Float disarmed_overhead);
          ("armed_overhead", Float armed_overhead);
          ("events", Int events);
          ("race_diagnostics", Int (List.length diags));
          ("disarmed_within_1_05x", Bool disarmed_ok);
          ("armed_within_3x", Bool armed_ok);
          ("race_clean", Bool race_clean);
        ]);
  if not (disarmed_ok && armed_ok && race_clean) then begin
    Printf.eprintf "race: %s\n"
      (if not race_clean then "the armed run found data races"
       else "sanitizer overhead gate breached");
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Solver-audit: solver-state sanitizer overhead on stacked sweeps     *)
(* ------------------------------------------------------------------ *)

(* Same three-series shape as the race experiment. The sampling hook is
   compiled into the solver's conflict path unconditionally (one counter
   test per conflict when disarmed), so "baseline" is the production
   configuration and the disarmed gate bounds hook cost + run-to-run
   noise at 1.05x. The sampled series arms the sanitizer through
   [Sweep_options.solver_audit] — audit_light (trail/reason, focus
   fence, decision heap, counter monotonicity) every 16th conflict —
   and must stay within 1.5x. The sanitizer observes, never steers:
   merge partitions must be identical across all three series. *)
let solver_audit () =
  header
    "Solver-audit: solver-state sanitizer overhead on the stacked smoke \
     subset (min of 3 reps per series)";
  let benches = [ "apex2"; "square" ] and reps = 3 in
  let flow ~audit bench =
    Runs.run
      { (opts_with ~iterations:10 ()) with Sweep_options.solver_audit = audit }
      (Suite.stacked_lut_network bench)
  in
  let series name ~audit =
    let passes =
      List.init reps (fun _ -> List.map (flow ~audit) benches)
    in
    let time pass = List.fold_left (fun a r -> a +. r.Runs.time) 0.0 pass in
    let best = List.fold_left (fun acc p -> min acc (time p)) infinity passes in
    Printf.printf "%-10s min %7.3fs  (reps:%s)\n%!" name best
      (String.concat ""
         (List.map (fun p -> Printf.sprintf " %.3fs" (time p)) passes));
    (* Partitions and stats from the first rep: the flow is deterministic
       for a fixed seed, so reps only differ in wall time. *)
    (best, List.hd passes)
  in
  let baseline, rows_b = series "baseline" ~audit:false in
  let disarmed, _ = series "disarmed" ~audit:false in
  let sampled, rows_s = series "sampled" ~audit:true in
  let part r = r.Runs.partition in
  let same = List.map part rows_b = List.map part rows_s in
  let conflicts rows =
    List.fold_left
      (fun a r -> a + r.Runs.report.Cec.sat.Sweeper.conflicts)
      0 rows
  in
  let disarmed_overhead = disarmed /. baseline in
  let sampled_overhead = sampled /. baseline in
  let disarmed_ok = disarmed_overhead <= 1.05 in
  let sampled_ok = sampled_overhead <= 1.5 in
  Printf.printf
    "disarmed overhead %.3fx (gate 1.05x, %s); sampled %.3fx (gate 1.5x, \
     %s); %d conflicts audited every 16th, merge partitions %s\n"
    disarmed_overhead
    (if disarmed_ok then "ok" else "OVER")
    sampled_overhead
    (if sampled_ok then "ok" else "OVER")
    (conflicts rows_s)
    (if same then "identical" else "DIFFER");
  write_json "BENCH_SOLVERSAN.json"
    Json.(
      Obj
        [
          ("experiment", String "solver-audit");
          ("seed", Int seed);
          ("reps", Int reps);
          ("benches", List (List.map (fun b -> String b) benches));
          ("baseline_time", Float baseline);
          ("disarmed_time", Float disarmed);
          ("sampled_time", Float sampled);
          ("disarmed_overhead", Float disarmed_overhead);
          ("sampled_overhead", Float sampled_overhead);
          ("baseline_conflicts", Int (conflicts rows_b));
          ("sampled_conflicts", Int (conflicts rows_s));
          ("disarmed_within_1_05x", Bool disarmed_ok);
          ("sampled_within_1_5x", Bool sampled_ok);
          ("identical_merges", Bool same);
        ]);
  if not (disarmed_ok && sampled_ok && same) then begin
    Printf.eprintf "solver-audit: %s\n"
      (if not same then
         "merge partitions differ with the sanitizer armed (it must only \
          observe)"
       else "sanitizer overhead gate breached");
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Soak: chaos harness for the overload/crash-safety layer             *)
(* ------------------------------------------------------------------ *)

module Fault = Simgen_fault.Fault
module Serve_client = Simgen_serve.Client

(* Burst: an in-process daemon on a real socket, driven by more client
   domains than workers with conn-drop/slow-client faults and the
   concurrency sanitizer armed. Gates: completion without deadlock, queue
   depth bounded by --max-queue, bounded RSS growth, verdict parity with
   a fault-free baseline, tiny-deadline jobs never answered with a normal
   verdict, zero race diagnostics. [soak_burst] answers the burst's
   JSON object; its [ok] field is every gate's verdict. *)

let rm_f path = try Sys.remove path with Sys_error _ -> ()

(* Soak sockets live under the system temp directory, never the working
   tree: a bench run must not litter the repo root. The pid keeps
   concurrent runs apart. *)
let scratch_path name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "simgen-bench-%d-%s" (Unix.getpid ()) name)

let rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file ->
            close_in_noerr ic;
            None
        | line -> (
            match Scanf.sscanf line "VmRSS: %d kB" (fun kb -> kb) with
            | kb ->
                close_in_noerr ic;
                Some kb
            | exception Scanf.Scan_failure _ | exception Failure _ -> go ())
      in
      go ()

let client_status = function
  | Ok fields -> (
      match
        Serve_protocol.string_member "status" (Serve_protocol.Obj fields)
      with
      | Some s -> s
      | None -> "missing-status")
  | Error (Serve_client.Timeout _) -> "client-timeout"
  | Error (Serve_client.Overloaded _) -> "overloaded"
  | Error (Serve_client.Dropped _) -> "dropped"
  | Error (Serve_client.Remote msg) -> "failed: " ^ msg

let await_daemon sock =
  let rec go n =
    if n = 0 then false
    else
      match
        Serve_client.call ~socket:sock ~connect_timeout:1.0 ~read_timeout:5.0
          ~retry:Simgen_runner.Retry_policy.none Serve_protocol.Ping
      with
      | Ok _ -> true
      | Error _ ->
          Unix.sleepf 0.1;
          go (n - 1)
  in
  go 100

let soak_burst ~benches ~workers ~max_queue ~clients =
  Printf.printf "--- burst at %dx worker capacity with faults armed ---\n%!"
    (clients / workers);
  let module Shared = Simgen_base.Shared in
  let module Race_check = Simgen_check.Race_check in
  let request ~deadline_ms bench =
    ( Printf.sprintf "%s%s" bench
        (match deadline_ms with Some _ -> "/deadline" | None -> ""),
      Serve_protocol.Job { cmd = "sweep"; args = bench; deadline_ms } )
  in
  let reqs =
    List.concat_map
      (fun b -> [ request ~deadline_ms:None b ])
      benches
    @ [ request ~deadline_ms:(Some 1) (List.hd benches) ]
  in
  (* Fault-free baseline for verdict parity, in-process. *)
  let baseline_server =
    Serve_server.create ~workers:1
      ~pattern_cache:(Simgen_runner.Pattern_cache.create ())
      ()
  in
  let baseline =
    List.filter_map
      (fun (label, req) ->
        match req with
        | Serve_protocol.Job { deadline_ms = Some _; _ } -> None
        | Serve_protocol.Job { deadline_ms = None; _ }
        | Serve_protocol.Ping | Serve_protocol.Stats | Serve_protocol.Shutdown
        | Serve_protocol.Lint _ ->
            Some (label, frame_status (Serve_server.handle baseline_server req)))
      reqs
  in
  let sock = scratch_path "soak-burst.sock" in
  rm_f sock;
  let rss_before = rss_kb () in
  Shared.reset_trace ();
  Shared.arm ();
  Fault.arm ~prob:0.01 ~seed "conn-drop";
  Fault.arm ~prob:0.02 ~seed "slow-client";
  let server =
    Serve_server.create ~workers ~max_queue
      ~pattern_cache:(Simgen_runner.Pattern_cache.create ())
      ()
  in
  let server_domain =
    Shared.spawn ~loc:(Shared.here __POS__) (fun () ->
        Serve_server.serve server ~socket:sock)
  in
  if not (await_daemon sock) then begin
    Printf.eprintf "soak: burst daemon did not come up\n";
    exit 1
  end;
  let finished =
    Shared.Atomic.make ~loc:(Shared.here __POS__) "soak.finished" 0
  in
  let client_domains =
    List.init clients (fun c ->
        Shared.spawn ~loc:(Shared.here __POS__) (fun () ->
            let out =
              List.map
                (fun (label, req) ->
                  ( label,
                    client_status
                      (Serve_client.call ~socket:sock ~read_timeout:120.0
                         ~retry_seed:c req) ))
                reqs
            in
            Shared.Atomic.incr finished;
            out))
  in
  (* Sample the daemon's own stats while the burst runs: the max queue
     depth it ever reports is the bounded-queue gate, and finishing the
     sampling loop before the safety deadline is the deadlock gate. *)
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. 600.0 in
  let max_depth = ref 0 and shed = ref 0 and deadline_expired = ref 0 in
  let deadlocked = ref false in
  while Shared.Atomic.get finished < clients && not !deadlocked do
    (match
       Serve_client.call ~socket:sock ~connect_timeout:2.0 ~read_timeout:10.0
         ~retry:Simgen_runner.Retry_policy.none Serve_protocol.Stats
     with
    | Ok fields ->
        let obj = Serve_protocol.Obj fields in
        let intf name =
          match Serve_protocol.int_member name obj with
          | Some i -> i
          | None -> 0
        in
        max_depth := max !max_depth (intf "queue_depth");
        shed := intf "shed";
        deadline_expired := intf "deadline_expired"
    | Error _ -> ());
    if Unix.gettimeofday () > deadline then deadlocked := true
    else Unix.sleepf 0.05
  done;
  if !deadlocked then begin
    Printf.eprintf "soak: burst did not finish within 600s (deadlock?)\n";
    exit 1
  end;
  let outcomes = List.concat_map Shared.join client_domains in
  (match
     Serve_client.call ~socket:sock ~connect_timeout:2.0 ~read_timeout:10.0
       Serve_protocol.Shutdown
   with
  | Ok _ -> ()
  | Error _ ->
      (* The shutdown connection itself can be a conn-drop victim; the
         daemon still drains via its own SIGTERM-equivalent stop flag. *)
      Serve_server.request_shutdown server);
  ignore (Shared.join server_domain);
  let wall = Unix.gettimeofday () -. t0 in
  Fault.reset ();
  Shared.disarm ();
  let trace = Shared.snapshot () in
  Shared.reset_trace ();
  let diags =
    List.filter
      (fun (d : Simgen_check.Diagnostic.t) ->
        d.Simgen_check.Diagnostic.severity <> Simgen_check.Diagnostic.Info)
      (Race_check.analyze trace)
  in
  List.iter
    (fun d -> print_endline (Simgen_check.Diagnostic.to_string d))
    diags;
  let rss_after = rss_kb () in
  (* Gates over the collected outcomes. *)
  let answered label = List.assoc_opt label baseline in
  let parity_checked = ref 0 and parity_bad = ref 0 in
  let shed_answers = ref 0 and dropped_answers = ref 0 in
  let deadline_ok = ref true in
  List.iter
    (fun (label, status) ->
      match answered label with
      | Some expect ->
          if status = "overloaded" then incr shed_answers
          else if status = "client-timeout" || status = "dropped" then
            incr dropped_answers
          else begin
            incr parity_checked;
            if status <> expect then begin
              incr parity_bad;
              Printf.eprintf "soak parity: %s answered %s, baseline %s\n"
                label status expect
            end
          end
      | None ->
          (* A 1 ms-deadline job must never produce a normal verdict. *)
          if status = "swept" || status = "equivalent" then
            deadline_ok := false)
    outcomes;
  let depth_ok = !max_depth <= max_queue in
  let parity_ok = !parity_bad = 0 && !parity_checked > 0 in
  let race_clean = diags = [] in
  let rss_growth_kb =
    match (rss_before, rss_after) with
    | Some a, Some b -> Some (b - a)
    | Some _, None | None, Some _ | None, None -> None
  in
  let rss_ok =
    match rss_growth_kb with Some kb -> kb < 768 * 1024 | None -> true
  in
  Printf.printf
    "burst: %d clients x %d reqs over %d workers in %.1fs | max queue depth \
     %d/%d | %d overloaded, %d dropped/timeout, %d parity-checked (%d bad) \
     | shed %d, deadline-expired %d | rss growth %s | %d race diagnostics\n"
    clients (List.length reqs) workers wall !max_depth max_queue !shed_answers
    !dropped_answers !parity_checked !parity_bad !shed !deadline_expired
    (match rss_growth_kb with
    | Some kb -> Printf.sprintf "%d kB" kb
    | None -> "n/a")
    (List.length diags);
  let ok =
    depth_ok && parity_ok && !deadline_ok && race_clean && rss_ok
  in
  if not ok then
    Printf.eprintf
      "soak burst FAILED (depth ok %b, parity ok %b, deadline ok %b, races \
       clean %b, rss ok %b)\n"
      depth_ok parity_ok !deadline_ok race_clean rss_ok;
  Json.(
    Obj
      [
        ("workers", Int workers);
        ("max_queue", Int max_queue);
        ("clients", Int clients);
        ("wall_time", Float wall);
        ("max_queue_depth", Int !max_depth);
        ("overloaded_answers", Int !shed_answers);
        ("dropped_answers", Int !dropped_answers);
        ("parity_checked", Int !parity_checked);
        ("parity_bad", Int !parity_bad);
        ("shed", Int !shed);
        ("deadline_expired", Int !deadline_expired);
        ("race_diagnostics", Int (List.length diags));
        ( "rss_growth_kb",
          match rss_growth_kb with Some kb -> Int kb | None -> Null );
        ("ok", Bool ok);
      ])

let soak_run ~burst_benches ~clients title =
  header title;
  let burst =
    soak_burst ~benches:burst_benches ~workers:2 ~max_queue:4 ~clients
  in
  let ok = Json.member "ok" burst = Some (Json.Bool true) in
  write_json "BENCH_SOAK.json"
    Json.(
      Obj
        [
          ("experiment", String "soak");
          ("seed", Int seed);
          ("burst", burst);
          ("ok", Bool ok);
        ]);
  if not ok then exit 1

let soak () =
  soak_run ~burst_benches:[ "apex2"; "square" ] ~clients:4
    "Soak: burst overload with faults and sanitizer armed"

let soak_smoke () =
  soak_run ~burst_benches:[ "apex2" ] ~clients:4
    "Soak (smoke): burst overload with faults and sanitizer armed"

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* Quick experiments first so partial console output is still useful if a
   run is interrupted; fig5/fig6 reuse the table2/table2s row caches. *)
let experiments =
  [
    ("table1", table1);
    ("fig7", fig7);
    ("ablation", ablation);
    ("baselines", baselines);
    ("sat-session", sat_session);
    ("sat-session-smoke", sat_session_smoke);
    ("cert", cert);
    ("cert-smoke", cert_smoke);
    ("race", race);
    ("solver-audit", solver_audit);
    ("soak", soak);
    ("soak-smoke", soak_smoke);
    ("table2", table2);
    ("fig5", fig5);
    ("table2s", table2_stacked);
    ("fig6", fig6);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    (* The smoke variant is a CI alias for sat-session; running both by
       default would just overwrite the same JSON. race, solver-audit
       and soak are gated pass/fail checks (they can exit 1 on a noisy
       machine), so they only run when requested explicitly. *)
    | _ ->
        List.filter_map
          (fun (name, _) ->
            if
              name = "sat-session-smoke" || name = "cert-smoke"
              || name = "race"
              || name = "solver-audit" || name = "soak"
              || name = "soak-smoke"
            then None
            else Some name)
          experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
          f ();
          flush stdout
      | None ->
          Printf.eprintf "unknown experiment %S (known: %s)\n" name
            (String.concat " " (List.map fst experiments));
          exit 1)
    requested
