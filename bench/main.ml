(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (§6) on the synthetic 42-circuit suite, plus a
   Bechamel micro-benchmark per table/figure and an ablation study.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- table1  -- run one experiment
     (ids: table1 table2 table2s fig5 fig6 fig7 ablation baselines runner
      micro sat-session sat-session-smoke cert cert-smoke serve
      serve-smoke race solver-audit soak soak-smoke)

   Numbers are not expected to match the paper's testbed; the shapes are:
   SimGen variants beat RevS on cost at a simulation-time premium, SAT
   calls and SAT time drop accordingly, and random simulation stalls
   where guided simulation keeps splitting (Fig. 7). *)

module Suite = Simgen_benchgen.Suite
module Sweeper = Simgen_sweep.Sweeper
module Sweep_options = Simgen_sweep.Sweep_options
module Strategy = Simgen_core.Strategy
module Config = Simgen_core.Config
module Stack = Simgen_network.Stack_networks
module N = Simgen_network.Network

let seed = 7

(* Local shorthand for the one options record every entry point takes:
   most experiments only vary the strategy, iteration count or a single
   flag off the defaults. *)
let opts_with ?(seed = seed) ?(strategy = Strategy.AI_DC_MFFC)
    ?(iterations = 20) ?(one_distance = false)
    ?(outgold = Sweep_options.default.Sweep_options.outgold) () =
  {
    Sweep_options.default with
    Sweep_options.seed;
    strategy;
    guided_iterations = iterations;
    one_distance;
    outgold;
  }

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
            (fun seed -> Runs.run ~seed ~with_sat:false ~bench net strategy)
            table1_seeds
        in
        ( Runs.mean (List.map (fun r -> float_of_int r.Runs.cost) rs),
          Runs.mean (List.map (fun r -> r.Runs.sim_time) rs) )
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
  List.iter
    (fun s ->
      let rs = Hashtbl.find per_strategy s in
      Printf.printf "%12.3f" (Runs.mean (List.map fst rs)))
    Strategy.all;
  Printf.printf "\n%-22s" "Simulation Runtime";
  List.iter
    (fun s ->
      let rs = Hashtbl.find per_strategy s in
      Printf.printf "%12.3f" (Runs.geo_mean (List.map snd rs)))
    Strategy.all;
  Printf.printf
    "\n\n(paper: 1.000 / 0.814 / 0.812 / 0.810 / 0.807 cost; runtime rises \
     mildly.\n\
    \ Expected shape: every SimGen variant < 1.000 cost, runtime > 1.000.)\n"

(* ------------------------------------------------------------------ *)
(* Table 2 (upper): SAT calls and SAT time per benchmark               *)
(* ------------------------------------------------------------------ *)

let rows_cache :
    (string, (string * Runs.result * Runs.result) list) Hashtbl.t =
  Hashtbl.create 4

let table2_rows ~cache_key benches net_of =
  match Hashtbl.find_opt rows_cache cache_key with
  | Some rows -> rows
  | None ->
      let rows =
        List.map
          (fun bench ->
            let net = net_of bench in
            let revs = Runs.run ~seed ~bench net Strategy.RevS in
            let sgen = Runs.run ~seed ~bench net Strategy.AI_DC_MFFC in
            (bench, revs, sgen))
          benches
      in
      Hashtbl.replace rows_cache cache_key rows;
      rows

let print_table2 rows ~time_unit =
  let scale = if time_unit = "ms" then 1000.0 else 1.0 in
  Printf.printf "%-12s %10s %10s %12s %12s\n" "Bmk" "RevS calls" "SGen calls"
    (Printf.sprintf "RevS %s" time_unit)
    (Printf.sprintf "SGen %s" time_unit);
  let tc_r = ref 0 and tc_s = ref 0 and tt_r = ref 0.0 and tt_s = ref 0.0 in
  List.iter
    (fun (bench, revs, sgen) ->
      tc_r := !tc_r + revs.Runs.sat_calls;
      tc_s := !tc_s + sgen.Runs.sat_calls;
      tt_r := !tt_r +. revs.Runs.sat_time;
      tt_s := !tt_s +. sgen.Runs.sat_time;
      Printf.printf "%-12s %10d %10d %12.2f %12.2f\n" bench
        revs.Runs.sat_calls sgen.Runs.sat_calls
        (revs.Runs.sat_time *. scale)
        (sgen.Runs.sat_time *. scale))
    rows;
  Printf.printf "%-12s %10d %10d %12.2f %12.2f   (totals)\n" "TOTAL" !tc_r
    !tc_s (!tt_r *. scale) (!tt_s *. scale)

let table2 () =
  header "Table 2 (upper): SAT calls and SAT time, RevS vs SimGen";
  let rows =
    table2_rows ~cache_key:"flat" (Runs.benchmarks ()) Suite.lut_network
  in
  print_table2 rows ~time_unit:"ms";
  Printf.printf
    "\n(expected shape: SimGen needs fewer SAT calls than RevS on most rows,\n\
    \ and total SAT time drops accordingly.)\n"

(* ------------------------------------------------------------------ *)
(* Table 2 (lower): stacked benchmarks (&putontop, §6.4)               *)
(* ------------------------------------------------------------------ *)

let stacked_rows () =
  match Hashtbl.find_opt rows_cache "stacked" with
  | Some rows -> rows
  | None ->
      let rows =
        List.map
          (fun (bench, copies) ->
            let net = Suite.stacked_lut_network bench in
            let label = Printf.sprintf "%s (%d)" bench copies in
            let revs = Runs.run ~seed ~bench:label net Strategy.RevS in
            let sgen = Runs.run ~seed ~bench:label net Strategy.AI_DC_MFFC in
            (label, revs, sgen))
          (Runs.stacked_benchmarks ())
      in
      Hashtbl.replace rows_cache "stacked" rows;
      rows

let table2_stacked () =
  header "Table 2 (lower): stacked benchmarks (putontop)";
  let rows = stacked_rows () in
  print_table2 rows ~time_unit:"ms";
  Printf.printf
    "\n(same trend as the upper table at larger scale: the copies multiply\n\
    \ the candidate pairs and deepen the miter cones.)\n"

(* ------------------------------------------------------------------ *)
(* Figures 5 and 6: per-benchmark normalized differences               *)
(* ------------------------------------------------------------------ *)

let figure_rows rows =
  List.map
    (fun (bench, revs, sgen) ->
      let r v b = Runs.ratio v b in
      ( bench,
        r (float_of_int sgen.Runs.cost) (float_of_int revs.Runs.cost),
        r sgen.Runs.sim_time revs.Runs.sim_time,
        r (float_of_int sgen.Runs.sat_calls) (float_of_int revs.Runs.sat_calls),
        r sgen.Runs.sat_time revs.Runs.sat_time ))
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
  print_figure
    (figure_rows
       (table2_rows ~cache_key:"flat" (Runs.benchmarks ()) Suite.lut_network))

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
          let r = Runs.run ~seed ~with_sat:false ~bench net strategy in
          impl := !impl + r.Runs.implications;
          dec := !dec + r.Runs.decisions;
          conf := !conf + r.Runs.gen_conflicts)
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
      let flow label guide =
        let sw = Sweeper.create (opts_with ()) net in
        Sweeper.random_round sw;
        let g = guide sw in
        let cost_after_guided = Sweeper.cost sw in
        let s = Sweeper.sat_sweep (opts_with ()) sw in
        Printf.printf "%-8s %-14s %8d %10d %9.3fs %10d\n" bench label
          cost_after_guided g.Sweeper.gen_sat_calls g.Sweeper.guided_time
          s.Sweeper.calls
      in
      flow "RevS" (Sweeper.run_guided (opts_with ~strategy:Strategy.RevS ()));
      flow "SimGen" (Sweeper.run_guided (opts_with ()));
      flow "SAT vectors" (Sweeper.run_sat_guided (opts_with ())))
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
        let sw = Sweeper.create opts net in
        Sweeper.random_round sw;
        ignore (Sweeper.run_guided opts sw);
        let s = Sweeper.sat_sweep opts sw in
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
        let opts = opts_with ~outgold () in
        let sw = Sweeper.create opts net in
        Sweeper.random_round sw;
        ignore (Sweeper.run_guided opts sw);
        Sweeper.cost sw
      in
      Printf.printf "%-8s %12d %12d %12d\n" bench
        (cost_with Simgen_core.Outgold.Alternating)
        (cost_with Simgen_core.Outgold.Random_balanced)
        (cost_with Simgen_core.Outgold.Level_split))
    benches

(* ------------------------------------------------------------------ *)
(* Incremental SAT sessions: fresh-per-pair vs one persistent solver   *)
(* ------------------------------------------------------------------ *)

(* One full sweep flow (random round + guided rounds + SAT sweep) with
   the miter route fixed by [incremental]. Returns the sweep stats and
   the final merge partition (each gate's representative), which must be
   identical across routes: refinement only separates inequivalent nodes,
   so the final partition is path-independent. *)
let session_flow ~incremental ~guided_iterations net =
  let opts =
    {
      Sweep_options.default with
      Sweep_options.seed;
      guided_iterations;
      incremental;
    }
  in
  let sw = Sweeper.create opts net in
  Sweeper.random_round sw;
  ignore (Sweeper.run_guided opts sw);
  let s = Sweeper.sat_sweep opts sw in
  let partition = ref [] in
  N.iter_gates net (fun id ->
      partition := Sweeper.representative sw id :: !partition);
  (s, List.rev !partition)

(* The gate the incremental session must clear on every suite: no slower
   than fresh solving on wall time, and no more than 1.5x the fresh
   propagation volume (BCP over a garbage-collected clause database). *)
let props_slack = 1.5

let sat_session_compare ~benches ~net_of ~guided_iterations ~out_file title =
  header title;
  Printf.printf "%-14s %9s | %9s %9s %8s | %9s %9s %8s | %7s %5s %5s\n" "bench"
    "calls" "fr confl" "fr props" "fr time" "inc confl" "inc props" "inc time"
    "confl x" "same" "gate";
  let rows =
    List.map
      (fun bench ->
        let net = net_of bench in
        let fresh, part_f =
          session_flow ~incremental:false ~guided_iterations net
        in
        let inc, part_i =
          session_flow ~incremental:true ~guided_iterations net
        in
        (* Verdicts are route-independent, so both routes end at the exact
           functional-equivalence partition; the counter-example sequences
           (and hence call counts) may differ along the way. *)
        let same = part_f = part_i in
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
  (* Hand-rolled JSON (the container has no JSON library), one object per
     bench plus totals; schema mirrors the console table. *)
  let buf = Buffer.create 1024 in
  let stats_json (s : Sweeper.sat_stats) =
    Printf.sprintf
      "{\"calls\":%d,\"proved\":%d,\"disproved\":%d,\"conflicts\":%d,\"propagations\":%d,\"restarts\":%d,\"deleted\":%d,\"sat_time\":%.6f}"
      s.Sweeper.calls s.Sweeper.proved s.Sweeper.disproved s.Sweeper.conflicts
      s.Sweeper.propagations s.Sweeper.restarts s.Sweeper.deleted
      s.Sweeper.sat_time
  in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"experiment\":\"sat-session\",\"seed\":%d,\"guided_iterations\":%d,\"props_slack\":%.2f,\"benches\":["
       seed guided_iterations props_slack);
  List.iteri
    (fun i (bench, fresh, inc, same, gate) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"bench\":\"%s\",\"fresh\":%s,\"incremental\":%s,\"identical_merges\":%b,\"gate\":%b}"
           bench (stats_json fresh) (stats_json inc) same gate))
    rows;
  Buffer.add_string buf
    (Printf.sprintf
       "],\"total\":{\"fresh_conflicts\":%d,\"incremental_conflicts\":%d,\"fresh_propagations\":%d,\"incremental_propagations\":%d,\"incremental_deleted\":%d,\"identical_merges\":%b,\"gate\":%b}}"
       t_fresh_confl t_inc_confl t_fresh_props t_inc_props t_inc_deleted
       all_same all_gated);
  let oc = open_out out_file in
  output_string oc (Buffer.contents buf);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out_file;
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

(* One full certified-or-not sweep flow; wall time covers the whole flow
   (simulation + SAT) plus, on the certified side, assembling and
   independently re-checking the certificate — the honest end-to-end
   price of not trusting the solver. *)
let cert_flow ~certify ~guided_iterations net =
  let opts =
    {
      Sweep_options.default with
      Sweep_options.seed;
      guided_iterations;
      certify;
    }
  in
  let t0 = Unix.gettimeofday () in
  let sw = Sweeper.create opts net in
  Sweeper.random_round sw;
  ignore (Sweeper.run_guided opts sw);
  let s = Sweeper.sat_sweep opts sw in
  let report =
    if certify then Some (Simgen_check.Certificate.check (Sweeper.certificate sw))
    else None
  in
  let time = Unix.gettimeofday () -. t0 in
  let partition = ref [] in
  N.iter_gates net (fun id ->
      partition := Sweeper.representative sw id :: !partition);
  (s, report, time, List.rev !partition)

let cert_compare ~benches ~net_of ~guided_iterations ~out_file title =
  header title;
  Printf.printf "%-14s %9s | %8s | %8s %9s %9s %7s | %8s %5s %5s\n" "bench"
    "calls" "plain" "cert" "queries" "steps" "checked" "overhead" "valid"
    "same";
  let rows =
    List.map
      (fun bench ->
        let net = net_of bench in
        let plain, _, t_plain, part_p =
          cert_flow ~certify:false ~guided_iterations net
        in
        let cert, report, t_cert, part_c =
          cert_flow ~certify:true ~guided_iterations net
        in
        let report = Option.get report in
        let same = part_p = part_c in
        let overhead = if t_plain > 0.0 then t_cert /. t_plain else 1.0 in
        Printf.printf
          "%-14s %9d | %7.3fs | %7.3fs %9d %9d %7d | %7.2fx %5s %5s\n" bench
          cert.Sweeper.calls t_plain t_cert
          report.Simgen_check.Certificate.queries
          report.Simgen_check.Certificate.steps
          report.Simgen_check.Certificate.steps_checked overhead
          (if report.Simgen_check.Certificate.valid then "yes" else "NO")
          (if same then "yes" else "NO");
        (bench, plain, cert, report, t_plain, t_cert, overhead, same))
      benches
  in
  let t_plain_total =
    List.fold_left (fun acc (_, _, _, _, tp, _, _, _) -> acc +. tp) 0.0 rows
  and t_cert_total =
    List.fold_left (fun acc (_, _, _, _, _, tc, _, _) -> acc +. tc) 0.0 rows
  in
  let total_overhead =
    if t_plain_total > 0.0 then t_cert_total /. t_plain_total else 1.0
  in
  let all_same = List.for_all (fun (_, _, _, _, _, _, _, s) -> s) rows in
  let all_valid =
    List.for_all
      (fun (_, _, _, r, _, _, _, _) -> r.Simgen_check.Certificate.valid)
      rows
  in
  let within_2x = total_overhead <= 2.0 in
  Printf.printf
    "TOTAL: %.3fs plain -> %.3fs certified (%.2fx, %s), certificates %s, \
     merge results %s\n"
    t_plain_total t_cert_total total_overhead
    (if within_2x then "within 2x" else "OVER 2x")
    (if all_valid then "all valid" else "INVALID")
    (if all_same then "identical" else "DIFFER");
  (* Hand-rolled JSON, same convention as the sat-session experiment. *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"experiment\":\"cert\",\"seed\":%d,\"guided_iterations\":%d,\"benches\":["
       seed guided_iterations);
  List.iteri
    (fun i (bench, plain, cert, report, tp, tc, overhead, same) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"bench\":\"%s\",\"calls\":%d,\"proved\":%d,\"plain_time\":%.6f,\"certified_time\":%.6f,\"overhead\":%.4f,\"queries\":%d,\"proof_steps\":%d,\"steps_checked\":%d,\"steps_trimmed\":%d,\"certificate_valid\":%b,\"identical_merges\":%b}"
           bench cert.Sweeper.calls cert.Sweeper.proved tp tc overhead
           report.Simgen_check.Certificate.queries
           report.Simgen_check.Certificate.steps
           report.Simgen_check.Certificate.steps_checked
           report.Simgen_check.Certificate.steps_trimmed
           report.Simgen_check.Certificate.valid same);
      ignore plain)
    rows;
  Buffer.add_string buf
    (Printf.sprintf
       "],\"total\":{\"plain_time\":%.6f,\"certified_time\":%.6f,\"overhead\":%.4f,\"within_2x\":%b,\"all_valid\":%b,\"identical_merges\":%b}}"
       t_plain_total t_cert_total total_overhead within_2x all_valid all_same);
  let oc = open_out out_file in
  output_string oc (Buffer.contents buf);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out_file;
  if not (all_same && all_valid) then begin
    Printf.eprintf
      "cert: %s\n"
      (if not all_valid then "a certificate failed its independent check"
       else "merge results differ between plain and certified sweeps");
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
(* Serve: warm vs cold requests through the persistent sweep service   *)
(* ------------------------------------------------------------------ *)

module Serve_server = Simgen_serve.Server
module Serve_protocol = Simgen_serve.Protocol
module Fun_cache = Simgen_sweep.Fun_cache

(* Each bench contributes one sweep and one self-CEC job; the whole list
   runs twice against one in-process server (cold, then warm). Only the
   pattern cache carries state from the first pass to the second; the
   cut-local check stores nothing, so its hit rate is the same in both.
   Verdicts must agree between the passes. *)

let serve_requests ~stacked benches =
  let s = if stacked then " stacked=true" else "" in
  List.concat_map
    (fun bench ->
      [
        ( bench,
          "sweep",
          Serve_protocol.Job
            { cmd = "sweep"; args = bench ^ s; deadline_ms = None } );
        ( bench,
          "cec",
          Serve_protocol.Job
            {
              cmd = "cec";
              args = Printf.sprintf "%s %s%s" bench bench s;
              deadline_ms = None;
            } );
      ])
    benches

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

let serve_phase server reqs =
  List.map
    (fun (bench, kind, req) ->
      let t0 = Unix.gettimeofday () in
      let status = frame_status (Serve_server.handle server req) in
      (bench, kind, status, Unix.gettimeofday () -. t0))
    reqs

let percentile latencies p =
  let sorted = Array.of_list (List.sort compare latencies) in
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

let serve_hit_rate (after : Fun_cache.stats) (before : Fun_cache.stats) =
  let consults = after.Fun_cache.consults - before.Fun_cache.consults in
  let hits = after.Fun_cache.hits - before.Fun_cache.hits in
  if consults = 0 then 0.0 else float_of_int hits /. float_of_int consults

let serve_compare ~benches ~stacked ~out_file title =
  header title;
  let fun_cache = Fun_cache.create () in
  let server =
    Serve_server.create ~workers:1 ~fun_cache
      ~pattern_cache:(Simgen_runner.Pattern_cache.create ())
      ()
  in
  let reqs = serve_requests ~stacked benches in
  let s0 = Fun_cache.stats fun_cache in
  let cold = serve_phase server reqs in
  let s1 = Fun_cache.stats fun_cache in
  let warm = serve_phase server reqs in
  let s2 = Fun_cache.stats fun_cache in
  Printf.printf "%-10s %-6s %-14s %9s %9s %8s %6s\n" "bench" "cmd" "status"
    "cold" "warm" "speedup" "same";
  let rows =
    List.map2
      (fun (bench, kind, st_c, t_c) (_, _, st_w, t_w) ->
        let speedup = if t_w > 0.0 then t_c /. t_w else 1.0 in
        let same = st_c = st_w in
        Printf.printf "%-10s %-6s %-14s %8.3fs %8.3fs %7.2fx %6s\n" bench kind
          st_c t_c t_w speedup
          (if same then "yes" else "NO");
        (bench, kind, st_c, t_c, st_w, t_w, speedup, same))
      cold warm
  in
  let times phase = List.map (fun (_, _, _, t) -> t) phase in
  let cold_times = times cold and warm_times = times warm in
  let sum = List.fold_left ( +. ) 0.0 in
  let warm_speedup =
    if sum warm_times > 0.0 then sum cold_times /. sum warm_times else 1.0
  in
  let cold_rate = serve_hit_rate s1 s0 and warm_rate = serve_hit_rate s2 s1 in
  let parity = List.for_all (fun (_, _, _, _, _, _, _, s) -> s) rows in
  Printf.printf
    "TOTAL: %.3fs cold -> %.3fs warm (%.2fx), fun-cache hit rate %.3f cold \
     -> %.3f warm, verdicts %s\n"
    (sum cold_times) (sum warm_times) warm_speedup cold_rate warm_rate
    (if parity then "identical" else "DIFFER");
  (* Service-level counters from the daemon's own stats response: all
     zero in this in-process harness (nothing queues here) but printed so
     the table matches what a socket deployment reports. *)
  (match Serve_server.handle server Serve_protocol.Stats with
   | Serve_protocol.Result fields ->
       let obj = Serve_protocol.Obj fields in
       let intf name =
         match Serve_protocol.int_member name obj with Some i -> i | None -> 0
       in
       Printf.printf "service: queue depth %d/%d, shed %d, deadline-expired %d\n"
         (intf "queue_depth") (intf "max_queue") (intf "shed")
         (intf "deadline_expired")
   | Serve_protocol.Failed _ | Serve_protocol.Event _
   | Serve_protocol.Overloaded _ -> ());
  (* Hand-rolled JSON, same convention as the other experiments. *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"experiment\":\"serve\",\"seed\":%d,\"requests\":[" seed);
  List.iteri
    (fun i (bench, kind, st_c, t_c, st_w, t_w, speedup, same) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"bench\":\"%s\",\"cmd\":\"%s\",\"cold_status\":\"%s\",\"cold_time\":%.6f,\"warm_status\":\"%s\",\"warm_time\":%.6f,\"speedup\":%.4f,\"parity\":%b}"
           bench kind st_c t_c st_w t_w speedup same))
    rows;
  let phase_json name rate ts =
    Printf.sprintf
      "\"%s\":{\"hit_rate\":%.4f,\"total_time\":%.6f,\"p50\":%.6f,\"p90\":%.6f,\"max\":%.6f}"
      name rate (sum ts) (percentile ts 50.0) (percentile ts 90.0)
      (percentile ts 100.0)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "],%s,%s,\"warm_speedup\":%.4f,\"fun_cache\":{\"consults\":%d,\"hits\":%d,\"local_proofs\":%d,\"local_cexes\":%d},\"parity\":%b}"
       (phase_json "cold" cold_rate cold_times)
       (phase_json "warm" warm_rate warm_times)
       warm_speedup s2.Fun_cache.consults s2.Fun_cache.hits
       s2.Fun_cache.local_proofs s2.Fun_cache.local_cexes parity);
  let oc = open_out out_file in
  output_string oc (Buffer.contents buf);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out_file;
  if not parity then begin
    Printf.eprintf "serve: warm verdicts differ from cold\n";
    exit 1
  end

let serve () =
  serve_compare
    ~benches:[ "apex2"; "square"; "arbiter" ]
    ~stacked:true ~out_file:"BENCH_SERVE.json"
    "Serve: cold vs warm submissions through the persistent daemon (stacked \
     suite)"

let serve_smoke () =
  serve_compare
    ~benches:[ "apex2"; "cps" ]
    ~stacked:false ~out_file:"BENCH_SERVE.json"
    "Serve: cold vs warm submissions through the persistent daemon (smoke \
     subset)"

(* ------------------------------------------------------------------ *)
(* Runner: parallel batch throughput on stacked suites (§6.4 scale)    *)
(* ------------------------------------------------------------------ *)

let runner () =
  header
    "Runner: batch throughput on stacked benchmarks (putontop), workers vs 1 \
     domain";
  let module R = Simgen_runner in
  (* Two sweep jobs per stacked benchmark (different seeds): the second
     job of each pair is where the shared pattern cache pays off. A
     handful of stacked suites with a per-job deadline keeps the whole
     experiment at interactive scale. *)
  let benches =
    List.filteri (fun i _ -> i < 4) (Runs.stacked_benchmarks ())
  in
  let specs =
    List.concat_map
      (fun (bench, _copies) ->
        List.map
          (fun seed ->
            R.Job.make ~seed ~guided_iterations:10
              ~limits:{ R.Budget.unlimited with R.Budget.deadline = Some 15.0 }
              ~label:(Printf.sprintf "%s/s%d" bench seed)
              ~id:0
              (R.Job.Sweep (R.Job.Suite_stacked bench)))
          [ seed; seed + 1 ])
      benches
  in
  let specs = List.mapi (fun id s -> { s with R.Job.id }) specs in
  let run_with workers =
    let cache = R.Pattern_cache.create () in
    let report = R.Pool.run ~workers ~cache specs in
    (report, cache)
  in
  let print_report workers (report, cache) =
    let jobs = Array.length report.R.Pool.results in
    let cpu_time =
      Array.fold_left
        (fun acc r -> acc +. r.R.Job.time)
        0.0 report.R.Pool.results
    in
    let hits =
      Array.fold_left
        (fun acc r -> acc + r.R.Job.cache_hits)
        0 report.R.Pool.results
    in
    Printf.printf
      "%2d worker(s): %d jobs in %7.3fs wall (%6.2f jobs/s, %7.3fs cpu, \
       per-worker throughput %6.2f jobs/s), %d cached patterns replayed\n"
      workers jobs report.R.Pool.wall_time
      (float_of_int jobs /. report.R.Pool.wall_time)
      cpu_time
      (float_of_int jobs /. report.R.Pool.wall_time /. float_of_int workers)
      hits;
    ignore cache
  in
  let r1 = run_with 1 in
  print_report 1 r1;
  let parallel = max 2 (Domain.recommended_domain_count ()) in
  let rn = run_with parallel in
  print_report parallel rn;
  let w1 = (fst r1).R.Pool.wall_time and wn = (fst rn).R.Pool.wall_time in
  Printf.printf
    "speedup vs 1 domain: %.2fx on %d domains (recommended domain count %d)\n"
    (w1 /. wn) parallel
    (Domain.recommended_domain_count ());
  Printf.printf
    "\n(expected shape: near-linear speedup while jobs outnumber domains and \
     the\n machine has cores to spare; on a single-core container the \
     speedup is ~1x.)\n"

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
              R.Job.make ~seed ~guided_iterations:10
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
  let oc = open_out "BENCH_RACE.json" in
  Printf.fprintf oc
    "{\"experiment\":\"race\",\"seed\":%d,\"workers\":%d,\"jobs\":%d,\"reps\":%d,\"baseline_time\":%.6f,\"disarmed_time\":%.6f,\"armed_time\":%.6f,\"disarmed_overhead\":%.4f,\"armed_overhead\":%.4f,\"events\":%d,\"race_diagnostics\":%d,\"disarmed_within_1_05x\":%b,\"armed_within_3x\":%b,\"race_clean\":%b}\n"
    seed workers
    (List.length (specs ()))
    reps baseline disarmed armed disarmed_overhead armed_overhead events
    (List.length diags) disarmed_ok armed_ok race_clean;
  close_out oc;
  Printf.printf "wrote BENCH_RACE.json\n";
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
    let opts =
      {
        Sweep_options.default with
        Sweep_options.seed;
        guided_iterations = 10;
        solver_audit = audit;
      }
    in
    let net = Suite.stacked_lut_network bench in
    let t0 = Unix.gettimeofday () in
    let sw = Sweeper.create opts net in
    Sweeper.random_round sw;
    ignore (Sweeper.run_guided opts sw);
    let s = Sweeper.sat_sweep opts sw in
    let t = Unix.gettimeofday () -. t0 in
    let partition = ref [] in
    N.iter_gates net (fun id ->
        partition := Sweeper.representative sw id :: !partition);
    (t, s, List.rev !partition)
  in
  let series name ~audit =
    let passes =
      List.init reps (fun _ -> List.map (flow ~audit) benches)
    in
    let time pass = List.fold_left (fun a (t, _, _) -> a +. t) 0.0 pass in
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
  let part (_, _, p) = p in
  let same = List.map part rows_b = List.map part rows_s in
  let conflicts rows =
    List.fold_left (fun a (_, s, _) -> a + s.Sweeper.conflicts) 0 rows
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
  let oc = open_out "BENCH_SOLVERSAN.json" in
  Printf.fprintf oc
    "{\"experiment\":\"solver-audit\",\"seed\":%d,\"reps\":%d,\"benches\":[%s],\"baseline_time\":%.6f,\"disarmed_time\":%.6f,\"sampled_time\":%.6f,\"disarmed_overhead\":%.4f,\"sampled_overhead\":%.4f,\"baseline_conflicts\":%d,\"sampled_conflicts\":%d,\"disarmed_within_1_05x\":%b,\"sampled_within_1_5x\":%b,\"identical_merges\":%b}\n"
    seed reps
    (String.concat "," (List.map (Printf.sprintf "\"%s\"") benches))
    baseline disarmed sampled disarmed_overhead sampled_overhead
    (conflicts rows_b) (conflicts rows_s) disarmed_ok sampled_ok same;
  close_out oc;
  Printf.printf "wrote BENCH_SOLVERSAN.json\n";
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
   verdict, zero race diagnostics. *)

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
  let fun_cache = Fun_cache.create () in
  let server =
    Serve_server.create ~workers ~max_queue ~fun_cache
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
  ( ok,
    wall,
    !max_depth,
    !shed_answers,
    !dropped_answers,
    !parity_checked,
    !parity_bad,
    !shed,
    !deadline_expired,
    List.length diags,
    rss_growth_kb )

let soak_run ~burst_benches ~clients title =
  header title;
  let workers = 2 and max_queue = 4 in
  let ( ok,
        wall,
        max_depth,
        shed_answers,
        dropped,
        parity_checked,
        parity_bad,
        shed,
        deadline_expired,
        races,
        rss_growth_kb ) =
    soak_burst ~benches:burst_benches ~workers ~max_queue ~clients
  in
  let oc = open_out "BENCH_SOAK.json" in
  Printf.fprintf oc
    "{\"experiment\":\"soak\",\"seed\":%d,\"burst\":{\"workers\":%d,\"max_queue\":%d,\"clients\":%d,\"wall_time\":%.3f,\"max_queue_depth\":%d,\"overloaded_answers\":%d,\"dropped_answers\":%d,\"parity_checked\":%d,\"parity_bad\":%d,\"shed\":%d,\"deadline_expired\":%d,\"race_diagnostics\":%d,\"rss_growth_kb\":%s,\"ok\":%b},\"ok\":%b}\n"
    seed workers max_queue clients wall max_depth shed_answers dropped
    parity_checked parity_bad shed deadline_expired races
    (match rss_growth_kb with Some kb -> string_of_int kb | None -> "null")
    ok ok;
  close_out oc;
  Printf.printf "wrote BENCH_SOAK.json\n";
  if not ok then exit 1

let soak () =
  soak_run ~burst_benches:[ "apex2"; "square" ] ~clients:4
    "Soak: burst overload with faults and sanitizer armed"

let soak_smoke () =
  soak_run ~burst_benches:[ "apex2" ] ~clients:4
    "Soak (smoke): burst overload with faults and sanitizer armed"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure           *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "Bechamel micro-benchmarks (one per table/figure)";
  let open Bechamel in
  let net = Suite.lut_network "apex2" in
  let guided strategy () =
    let sw = Sweeper.create (opts_with ()) net in
    Sweeper.random_round sw;
    ignore (Sweeper.guided_round sw strategy)
  in
  (* table1: one guided iteration per strategy (the simulation-runtime
     column); table2: one full SAT sweep after simulation (the SAT-time
     column); fig7: one random round (the RandS curve). *)
  let test_table1 =
    Test.make_grouped ~name:"table1_guided_round"
      (List.map
         (fun s ->
           Test.make ~name:(Strategy.name s) (Staged.stage (guided s)))
         Strategy.all)
  in
  let test_table2 =
    Test.make ~name:"table2_sat_sweep"
      (Staged.stage (fun () ->
           let opts = opts_with ~iterations:5 () in
           let sw = Sweeper.create opts net in
           Sweeper.random_round sw;
           ignore (Sweeper.run_guided opts sw);
           ignore (Sweeper.sat_sweep opts sw)))
  in
  let test_fig7 =
    Test.make ~name:"fig7_random_round"
      (Staged.stage (fun () ->
           let sw = Sweeper.create (opts_with ()) net in
           Sweeper.random_round sw))
  in
  let test_fig5 =
    Test.make ~name:"fig5_vector_generation"
      (Staged.stage (fun () ->
           let targets =
             let all = ref [] in
             N.iter_gates net (fun id -> all := id :: !all);
             List.filteri (fun i _ -> i < 8) !all
           in
           let outgold = Simgen_core.Outgold.assign targets in
           ignore
             (Simgen_core.Vector_gen.generate ~config:Config.default net
                outgold)))
  in
  let tests =
    Test.make_grouped ~name:"simgen"
      [ test_table1; test_table2; test_fig5; test_fig7 ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  Printf.printf "%-45s %15s\n" "benchmark" "time/run";
  List.iter
    (fun (name, ols) ->
      let time =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> Printf.sprintf "%12.3f us" (t /. 1_000.0)
        | Some [] | None -> "n/a"
      in
      Printf.printf "%-45s %15s\n" name time)
    (List.sort compare rows)

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
    ("serve", serve);
    ("serve-smoke", serve_smoke);
    ("runner", runner);
    ("race", race);
    ("solver-audit", solver_audit);
    ("soak", soak);
    ("soak-smoke", soak_smoke);
    ("micro", micro);
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
              || name = "serve-smoke" || name = "race"
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
