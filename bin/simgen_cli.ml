(* simgen: command-line front end.

   Subcommands:
     list               - list the built-in benchmark suite
     gen                - generate a benchmark and write BLIF/BENCH/AIGER
     map                - LUT-map a BLIF/BENCH/AIGER input
     sweep              - run the simulation + SAT sweeping flow, print stats
     certify-sweep      - certified sweep + independent certificate re-check
     cec                - equivalence-check two circuit files (SAT or BDD)
     batch              - run a manifest of CEC/sweep jobs on a worker pool
     serve              - persistent sweep daemon on a Unix socket
     submit             - send one request to a running daemon
     ping               - liveness check against a running daemon
     atpg               - stuck-at test generation campaign
     lint               - static checks over circuit/CNF files or suites
     race-check         - replay a --tsan trace through the race detector
     proof-lint         - static analysis over a DRUP proof file
     info               - parse a circuit file and print statistics *)

open Cmdliner
module Suite = Simgen_benchgen.Suite
module N = Simgen_network.Network
module Blif = Simgen_network.Blif
module Bench_format = Simgen_network.Bench_format
module Aiger = Simgen_aig.Aiger
module Convert = Simgen_aig.Convert
module Mapper = Simgen_mapping.Lut_mapper
module Sweeper = Simgen_sweep.Sweeper
module Cec = Simgen_sweep.Cec
module Sweep_options = Simgen_sweep.Sweep_options
module Strategy = Simgen_core.Strategy
module Runner = Simgen_runner
module Shared = Simgen_base.Shared
module Check = Simgen_check
module Serve = Simgen_serve
module Fun_cache = Simgen_sweep.Fun_cache
module Drup = Simgen_sat.Drup

(* ------------------------------------------------------------------ *)
(* I/O helpers                                                         *)
(* ------------------------------------------------------------------ *)

let read_network = Runner.Job.read_network

let write_network path net =
  if Filename.check_suffix path ".blif" then Blif.write_file path net
  else if Filename.check_suffix path ".bench" then
    Bench_format.write_file path net
  else if Filename.check_suffix path ".aag" then
    Aiger.write_file path (Convert.aig_of_network net)
  else failwith (path ^ ": unknown extension (expected .blif/.bench/.aag)")

let load_or_generate spec =
  (* A circuit argument is either a file path or a suite benchmark name. *)
  if Sys.file_exists spec then read_network spec
  else
    match Suite.find spec with
    | Some _ -> Suite.lut_network spec
    | None -> failwith (spec ^ ": neither a file nor a known benchmark")

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)
(* ------------------------------------------------------------------ *)

let circuit_arg n doc =
  Arg.(required & pos n (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let strategy_arg =
  let parse s =
    match Strategy.of_string s with
    | Some st -> Ok st
    | None -> Error (`Msg (s ^ ": unknown strategy"))
  in
  let print fmt s = Format.pp_print_string fmt (Strategy.name s) in
  Arg.(
    value
    & opt (conv (parse, print)) Strategy.AI_DC_MFFC
    & info [ "strategy" ] ~docv:"S"
        ~doc:
          "Pattern generation strategy: RevS, SI+RD, AI+RD, AI+DC, \
           AI+DC+MFFC (or 'simgen').")

let iterations_arg =
  Arg.(
    value & opt int 20
    & info [ "iterations" ] ~docv:"N" ~doc:"Guided simulation iterations.")

let fresh_arg =
  Arg.(
    value & flag
    & info [ "fresh" ]
        ~doc:
          "Use a fresh SAT solver per candidate pair instead of the \
           incremental per-sweep session (the pre-session behaviour; \
           mainly for comparison).")

let certify_arg =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Validate a DRUP proof for every UNSAT verdict. Composes with \
           the incremental session (per-query proof slices are logged and \
           replayed); add --fresh only to force the standalone-solver \
           route.")

let solver_audit_arg =
  Arg.(
    value & flag
    & info [ "solver-audit" ]
        ~doc:
          "Arm the sampled solver-state sanitizer (R007..R013) on every \
           SAT session: watch integrity, reason/trail and decision-heap \
           consistency, focus-fence soundness and counter monotonicity \
           are audited every few conflicts. Observes only — verdicts and \
           merge partitions are unchanged; a tripped invariant raises a \
           runtime-check violation through the session recovery path.")

let max_conflicts_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-conflicts" ] ~docv:"N"
        ~doc:
          "Base per-query SAT conflict budget. A query that exhausts it \
           climbs the degradation ladder (escalated budgets, fresh solver, \
           BDD fallback) and is quarantined as inconclusive rather than \
           answered wrongly. Unlimited by default.")

let retry_arg =
  Arg.(
    value & opt int 1
    & info [ "retry" ] ~docv:"N"
        ~doc:
          "Attempts per job or check, including the first (>= 1). Crashed \
           or watchdog-stalled attempts are retried with jittered \
           exponential backoff.")

(* The options record shared by sweep and cec. *)
let sweep_options strategy iterations seed fresh certify =
  {
    Sweep_options.default with
    Sweep_options.strategy;
    guided_iterations = iterations;
    seed;
    incremental = not fresh;
    certify;
  }

(* ------------------------------------------------------------------ *)
(* Subcommands                                                         *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Printf.printf "%-12s %-12s %s\n" "name" "family" "stacked copies";
    List.iter
      (fun e ->
        let family =
          match e.Suite.family with
          | Suite.Mcnc_pla -> "mcnc-pla"
          | Suite.Arithmetic -> "arithmetic"
          | Suite.Epfl_control -> "epfl-ctrl"
          | Suite.Itc99 -> "itc99"
        in
        Printf.printf "%-12s %-12s %s\n" e.Suite.name family
          (match e.Suite.stack_copies with
           | Some c -> string_of_int c
           | None -> "-"))
      Suite.entries
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in benchmark suite.")
    Term.(const run $ const ())

let gen_cmd =
  let run name output stacked =
    let net =
      if stacked then Suite.stacked_lut_network name else Suite.lut_network name
    in
    write_network output net;
    Format.printf "%a -> %s@." N.pp_stats net output
  in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Output file (.blif, .bench or .aag).")
  in
  let stacked =
    Arg.(
      value & flag
      & info [ "stacked" ] ~doc:"Emit the stacked (putontop) variant.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a suite benchmark and write it to a file.")
    Term.(const run $ circuit_arg 0 "Benchmark name." $ output $ stacked)

let map_cmd =
  let run input output k =
    let net = read_network input in
    let aig = Convert.aig_of_network net in
    let mapped, stats = Mapper.map_with_stats ~k aig in
    write_network output mapped;
    Printf.printf "%s: %d LUTs, depth %d, %d edges -> %s\n" input
      stats.Mapper.luts stats.Mapper.depth stats.Mapper.edges output
  in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let k =
    Arg.(value & opt int 6 & info [ "k" ] ~docv:"K" ~doc:"LUT input count.")
  in
  Cmd.v
    (Cmd.info "map" ~doc:"Technology-map a circuit into K-LUTs.")
    Term.(const run $ circuit_arg 0 "Input circuit file." $ output $ k)

let sweep_cmd =
  let run spec strategy iterations seed fresh =
    let opts = sweep_options strategy iterations seed fresh false in
    let net = load_or_generate spec in
    Format.printf "%a@." N.pp_stats net;
    let sw = Sweeper.create opts net in
    (* The costs the phases leave, caught as the flow reports them. *)
    let after_random = ref 0 and after_guided = ref 0 in
    let observe : Sweep_options.observation -> unit = function
      | Random_round _ ->
          after_random := Sweeper.cost sw;
          after_guided := Sweeper.cost sw
      | Guided_round _ -> after_guided := Sweeper.cost sw
      | Sat_sweep _ | Counterexample _ -> ()
    in
    let r = Cec.run { opts with Sweep_options.observe } sw [||] [||] in
    let g = r.Cec.guided and s = r.Cec.sat in
    Printf.printf "cost after random simulation : %d\n" !after_random;
    Printf.printf "cost after %d guided rounds   : %d (%s)\n" iterations
      !after_guided (Strategy.name strategy);
    Printf.printf
      "  vectors %d, skipped classes %d, conflicts %d, implications %d, \
       decisions %d, %.3fs\n"
      g.Sweeper.vectors g.Sweeper.skipped g.Sweeper.gen_conflicts
      g.Sweeper.implications g.Sweeper.decisions g.Sweeper.guided_time;
    Printf.printf
      "SAT sweeping: %d calls (%d proved, %d disproved) in %.3fs\n"
      s.Sweeper.calls s.Sweeper.proved s.Sweeper.disproved s.Sweeper.sat_time;
    Printf.printf
      "  solver: %d conflicts, %d propagations (%d watcher visits, %d \
       clause reads), %d restarts%s\n"
      s.Sweeper.conflicts s.Sweeper.propagations s.Sweeper.watch_visits
      s.Sweeper.clause_reads s.Sweeper.restarts
      (if fresh then " (fresh solver per pair)" else " (incremental session)");
    Printf.printf "final cost                   : %d\n" (Sweeper.cost sw)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run random + guided simulation and SAT sweeping on a circuit file \
          or suite benchmark.")
    Term.(
      const run
      $ circuit_arg 0 "Circuit file or benchmark name."
      $ strategy_arg $ iterations_arg $ seed_arg $ fresh_arg)

let certify_sweep_cmd =
  let run spec strategy iterations seed fresh out drup_out =
    (match drup_out with
     | Some dir
       when fresh && Sys.file_exists dir
            && not (Sys.is_directory dir && Sys.readdir dir = [||]) ->
         Printf.eprintf
           "certify-sweep: --drup %s: with --fresh, must be a new or empty \
            directory\n"
           dir;
         exit 2
     | _ -> ());
    let net =
      try load_or_generate spec
      with Failure msg ->
        Printf.eprintf "certify-sweep: %s\n" msg;
        exit 2
    in
    let opts = sweep_options strategy iterations seed fresh true in
    let sw = Sweeper.create opts net in
    let s = (Cec.run opts sw [||] [||]).Cec.sat in
    let cert = Sweeper.certificate sw in
    let report = Check.Certificate.check cert in
    (match out with
     | Some path ->
         let oc = open_out path in
         output_string oc (Check.Certificate.to_jsonl cert (Some report));
         close_out oc
     | None -> ());
    (match drup_out with
     | Some dir when fresh ->
         (* Each fresh query's proof stands alone and ends with its own
            empty clause: one file per query, so each lints whole. *)
         if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
         Array.iteri
           (fun k -> function
             | Check.Certificate.Fresh { events; _ } ->
                 Out_channel.with_open_text
                   (Filename.concat dir (Printf.sprintf "q%d.drup" k))
                   (fun oc -> output_string oc (Drup.to_dimacs_proof events))
             | Check.Certificate.Session _ | Check.Certificate.Rebuild -> ())
           cert.Check.Certificate.queries
     | Some path ->
         let oc = open_out path in
         Array.iter
           (function
             | Check.Certificate.Session { events; _ }
             | Check.Certificate.Fresh { events; _ } ->
                 output_string oc (Drup.to_dimacs_proof events)
             | Check.Certificate.Rebuild -> ())
           cert.Check.Certificate.queries;
         close_out oc
     | None -> ());
    Printf.printf
      "sweep: %d SAT calls (%d proved, %d disproved), final cost %d\n"
      s.Sweeper.calls s.Sweeper.proved s.Sweeper.disproved (Sweeper.cost sw);
    Printf.printf
      "certificate: %d queries (%d proved), %d merges, %d proof steps (%d \
       checked, %d trimmed)\n"
      report.Check.Certificate.queries report.Check.Certificate.proved
      report.Check.Certificate.merges report.Check.Certificate.steps
      report.Check.Certificate.steps_checked
      report.Check.Certificate.steps_trimmed;
    if report.Check.Certificate.valid then print_endline "certificate: VALID"
    else begin
      List.iter
        (fun d -> prerr_endline (Check.Diagnostic.to_string d))
        report.Check.Certificate.diags;
      print_endline "certificate: INVALID";
      exit 1
    end
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write the certificate (queries, merges and the check report) \
             as JSONL to $(docv).")
  in
  let drup_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "drup" ] ~docv:"PATH"
          ~doc:
            "Also write the DRUP text of the proofs — input for \
             $(b,proof-lint) and drat-trim-style tools. On the session \
             route, $(docv) is one file holding every proof slice in \
             order. With $(b,--fresh), $(docv) is a new or empty directory \
             (created if missing) holding one standalone proof per query, \
             $(i,qK.drup) for the certificate's query $(i,K).")
  in
  Cmd.v
    (Cmd.info "certify-sweep"
       ~doc:
         "Run a DRUP-certified sweep and independently re-check the \
          resulting certificate: every learned clause is validated by \
          reverse unit propagation and the merge log is replayed against \
          the proved equivalences. Exit codes: 0 certificate valid, 1 \
          invalid, 2 usage or load error.")
    Term.(
      const run
      $ circuit_arg 0 "Circuit file or benchmark name."
      $ strategy_arg $ iterations_arg $ seed_arg $ fresh_arg $ out $ drup_out)

let cec_cmd =
  let run spec1 spec2 strategy iterations seed use_bdd fresh certify
      solver_audit max_conflicts retries =
    if retries < 1 then begin
      Printf.eprintf "--retry must be at least 1\n";
      exit 1
    end;
    let net1 = load_or_generate spec1 in
    let net2 = load_or_generate spec2 in
    if use_bdd then begin
      match Simgen_sweep.Bdd_backend.check_outputs net1 net2 with
      | Some None -> Printf.printf "EQUIVALENT (BDD)\n"
      | Some (Some (po, vector)) ->
          Printf.printf "NOT EQUIVALENT at PO %d (BDD)\nwitness: %s\n" po
            (Serve.Server.vector_string vector);
          exit 1
      | None ->
          Printf.eprintf "BDD node quota exceeded; rerun without --bdd\n";
          exit 2
    end
    else begin
    let options =
      {
        (sweep_options strategy iterations seed fresh certify) with
        Sweep_options.max_conflicts;
        solver_audit;
      }
    in
    (* One job through the batch runner's executor: lint pre-flight,
       the supervisor's retries with jittered backoff, and the
       certificate check under --certify. *)
    let spec =
      Runner.Job.make ~options
        ~retry:Runner.Retry_policy.(with_attempts retries default)
        ~id:0
        (Runner.Job.Cec (Runner.Job.Inline net1, Runner.Job.Inline net2))
    in
    let events =
      Runner.Events.callback (fun e ->
          match e.Runner.Events.payload with
          | Runner.Events.Retry { attempt; delay; cause } ->
              Printf.eprintf "attempt %d failed (%s); retrying in %.3fs\n%!"
                attempt cause delay
          | Queued | Started _ | Lint _ | Cache_replay _ | Random_round _
          | Guided_round _ | Sat_sweep _ | Fault _ | Degrade _ | Quarantine _
          | Fun_cache_stats _ | Certificate _ | Finished _ ->
              ())
    in
    let r = Runner.Exec.run ~events ~worker:0 spec in
    let code =
      match r.Runner.Job.status with
      | Runner.Job.Equivalent ->
          Printf.printf "EQUIVALENT\n";
          0
      | Runner.Job.Not_equivalent { po; vector } ->
          Printf.printf "NOT EQUIVALENT at PO %d\nwitness: %s\n" po
            (Serve.Server.vector_string vector);
          1
      | Runner.Job.Inconclusive { pos } ->
          Printf.printf
            "INCONCLUSIVE: PO pair(s) %s quarantined by the degradation \
             ladder (every other PO pair proved equal)\n"
            (String.concat "," (List.map string_of_int pos));
          3
      | (Runner.Job.Failed _ | Runner.Job.Budget_exhausted _ | Runner.Job.Swept)
        as status ->
          Printf.eprintf "cec: %s\n" (Runner.Job.status_to_string status);
          exit 2
    in
    (* Every verdict comes from a flow report. *)
    Option.iter
      (fun (f : Cec.report) ->
        let sat = f.Cec.sat in
        Printf.printf
          "sweep: %d SAT calls (%d proved, %d disproved), %d PO miters, \
           %.3fs total\n"
          sat.Sweeper.calls sat.Sweeper.proved sat.Sweeper.disproved
          f.Cec.po_calls r.Runner.Job.time;
        Printf.printf
          "       %d conflicts, %d propagations (%d watcher visits, %d \
           clause reads), %d restarts\n"
          sat.Sweeper.conflicts sat.Sweeper.propagations
          sat.Sweeper.watch_visits sat.Sweeper.clause_reads
          sat.Sweeper.restarts)
      r.Runner.Job.flow;
    if code <> 0 then exit code
    end
  in
  let bdd_flag =
    Arg.(
      value & flag
      & info [ "bdd" ]
          ~doc:"Use the BDD backend instead of simulation + SAT sweeping.")
  in
  Cmd.v
    (Cmd.info "cec"
       ~doc:
         "Combinational equivalence check of two circuits, run as a \
          one-job batch: both circuits are linted first, and a lint error \
          fails the check. Exit codes: 0 equivalent, 1 not equivalent, 2 \
          the check failed on its last attempt (lint error, PI mismatch, \
          invalid certificate, crash), 3 inconclusive (quarantined PO \
          pairs under --max-conflicts).")
    Term.(
      const run
      $ circuit_arg 0 "First circuit."
      $ circuit_arg 1 "Second circuit."
      $ strategy_arg $ iterations_arg $ seed_arg $ bdd_flag $ fresh_arg
      $ certify_arg $ solver_audit_arg $ max_conflicts_arg $ retry_arg)

(* Shared by batch --tsan, serve --tsan and race-check: drain-time
   analysis of the recorded trace. Returns 1 if any non-info race
   diagnostic was found, 0 otherwise. *)
let tsan_report ?trace_out ~json () =
  Shared.disarm ();
  let trace = Shared.snapshot () in
  (match trace_out with
  | Some path ->
      Shared.write_trace trace path;
      Printf.eprintf "tsan: %d event(s) written to %s\n%!"
        (List.length trace.Shared.events) path
  | None -> ());
  let diags = Check.Race_check.analyze trace in
  Check.Diagnostic.render ~json Format.std_formatter diags;
  Check.Race_check.exit_code diags

let tsan_arg =
  Arg.(
    value & flag
    & info [ "tsan" ]
        ~doc:
          "Arm the concurrency sanitizer: record every shared-state \
           access during the run and run the vector-clock race detector \
           at drain. Any T diagnostic forces a non-zero exit.")

let tsan_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tsan-trace" ] ~docv:"FILE"
        ~doc:
          "With $(b,--tsan), also write the recorded event trace to \
           $(docv) for offline replay with $(b,race-check).")

let batch_cmd =
  let run manifest workers telemetry no_cache max_conflicts retries certify
      solver_audit tsan tsan_trace =
    if retries < 1 then begin
      Printf.eprintf "--retry must be at least 1\n";
      exit 1
    end;
    (* CLI flags set the manifest baseline; per-line key=value pairs
       still override per job. *)
    let defaults =
      let d = Runner.Manifest.default_options in
      {
        d with
        Runner.Manifest.sweep =
          {
            d.Runner.Manifest.sweep with
            Sweep_options.max_conflicts;
            certify;
            solver_audit;
          };
        retry =
          Runner.Retry_policy.with_attempts retries d.Runner.Manifest.retry;
      }
    in
    let jobs =
      try Runner.Manifest.parse_file ~defaults manifest
      with Failure msg ->
        Printf.eprintf "%s: %s\n" manifest msg;
        exit 1
    in
    if jobs = [] then begin
      Printf.eprintf "%s: no jobs\n" manifest;
      exit 1
    end;
    if workers < 1 then begin
      Printf.eprintf "--workers must be at least 1\n";
      exit 1
    end;
    let telemetry_oc = Option.map open_out telemetry in
    let events =
      match telemetry_oc with
      | Some oc -> Runner.Events.channel oc
      | None -> Runner.Events.null
    in
    let cache =
      if no_cache then None
      else Some (Runner.Pattern_cache.create ())
    in
    (* SIGINT drains rather than kills: the cancel flag makes every
       running job return Budget_exhausted Cancelled at its next budget
       check and keeps queued jobs from doing work, so the pool joins,
       the telemetry sink is flushed, and the partial table still
       prints. A second Ctrl-C falls back to the default behaviour. *)
    let cancel =
      Shared.Atomic.make ~loc:(Shared.here __POS__) "cli.batch.cancel" false
    in
    let previous_sigint =
      try
        Some
          (Sys.signal Sys.sigint
             (Sys.Signal_handle
                (fun _ ->
                  (* signal context: the silent accessors skip trace
                     recording, which is not reentrant *)
                  if Shared.Atomic.silent_get cancel then exit 130;
                  Shared.Atomic.silent_set cancel true;
                  prerr_endline
                    "interrupted: draining running jobs (Ctrl-C again to \
                     kill)")))
      with Invalid_argument _ | Sys_error _ -> None
    in
    if tsan then Shared.arm ();
    let report = Runner.Pool.run ~workers ~events ?cache ~cancel jobs in
    Option.iter (Sys.set_signal Sys.sigint) previous_sigint;
    Option.iter close_out telemetry_oc;
    Printf.printf "%-4s %-32s %-24s %8s %8s %8s %9s %6s %6s %3s %4s %8s %3s\n"
      "job" "label" "status" "cost" "SAT" "confl" "props" "hits" "added"
      "att" "quar" "time" "wkr";
    Array.iter
      (fun (r : Runner.Job.result) ->
        let cost, calls, sat =
          match r.Runner.Job.flow with
          | Some f ->
              (f.Cec.final_cost, f.Cec.sat.Sweeper.calls + f.Cec.po_calls, f.Cec.sat)
          | None -> (0, 0, Sweeper.empty_sat)
        in
        Printf.printf
          "%-4d %-32s %-24s %8d %8d %8d %9d %6d %6d %3d %4d %7.3fs %3d\n"
          r.Runner.Job.spec.Runner.Job.id
          r.Runner.Job.spec.Runner.Job.label
          (Runner.Job.status_to_string r.Runner.Job.status)
          cost calls sat.Sweeper.conflicts sat.Sweeper.propagations
          r.Runner.Job.cache_hits
          r.Runner.Job.cache_added r.Runner.Job.attempts
          (List.length r.Runner.Job.quarantined)
          r.Runner.Job.time r.Runner.Job.worker)
      report.Runner.Pool.results;
    (match cache with
     | Some c ->
         Printf.printf
           "pattern cache: %d vectors, %d hits, %d misses, %d dropped\n"
           (Runner.Pattern_cache.size c)
           (Runner.Pattern_cache.hits c)
           (Runner.Pattern_cache.misses c)
           (Runner.Pattern_cache.dropped c)
     | None -> ());
    print_endline (Runner.Pool.summary report);
    let failed = ref false and inconclusive = ref false in
    Array.iter
      (fun (r : Runner.Job.result) ->
        if r.Runner.Job.quarantined <> [] then inconclusive := true;
        match r.Runner.Job.status with
        | Runner.Job.Failed _ -> failed := true
        | Runner.Job.Inconclusive _ -> inconclusive := true
        | Runner.Job.Swept | Runner.Job.Equivalent
        | Runner.Job.Not_equivalent _ | Runner.Job.Budget_exhausted _ ->
            ())
      report.Runner.Pool.results;
    let races =
      if tsan || Shared.is_armed () then
        tsan_report ?trace_out:tsan_trace ~json:false () = 1
      else false
    in
    if Shared.Atomic.silent_get cancel then exit 130
    else if !failed || races then exit 1
    else if !inconclusive then exit 3
  in
  let manifest =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"MANIFEST"
          ~doc:
            ("Job manifest: one \"cec A B [key=value ...]\" or \"sweep C \
              [key=value ...]\" per line. Keys: "
            ^ String.concat ", " Runner.Manifest.keys
            ^ "."))
  in
  let workers =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains executing jobs in parallel.")
  in
  let telemetry =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:"Write one JSON event per job phase to $(docv) (JSONL).")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:
            "Disable the cross-job pattern cache (replaying distinguishing \
             patterns between jobs with matching PI counts).")
  in
  let batch_certify =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Default every job to certify=true: sweeps record DRUP proof \
             slices, the certificate is re-checked after each job, and an \
             invalid certificate fails the job. Per-line certify=false \
             still overrides.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run a manifest of CEC/sweep jobs on a parallel worker pool with \
          per-job budgets, retry supervision, JSONL telemetry and a shared \
          pattern cache. Exit codes: 0 all decided, 1 any job failed, 3 \
          inconclusive/quarantined results, 130 interrupted (SIGINT \
          drains running jobs and flushes telemetry first). Verdicts \
          appear in the table and the telemetry, not in the exit code: a \
          not-equivalent job is decided, so it exits 0, where cec and \
          submit exit 1.")
    Term.(
      const run $ manifest $ workers $ telemetry $ no_cache $ max_conflicts_arg
      $ retry_arg $ batch_certify $ solver_audit_arg $ tsan_arg
      $ tsan_trace_arg)

(* ------------------------------------------------------------------ *)
(* Daemon and client                                                   *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt string "simgen.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let run socket workers max_queue telemetry tsan tsan_trace =
    let telemetry_oc = Option.map open_out telemetry in
    let events =
      match telemetry_oc with
      | Some oc -> Runner.Events.channel oc
      | None -> Runner.Events.null
    in
    let pattern_cache = Runner.Pattern_cache.create () in
    let server =
      Serve.Server.create ?workers ~max_queue ~fun_cache:(Fun_cache.create ())
        ~pattern_cache ~telemetry:events ()
    in
    Printf.printf "simgen daemon: listening on %s (pid %d)\n%!" socket
      (Unix.getpid ());
    if tsan then Shared.arm ();
    Serve.Server.serve server ~socket;
    Option.iter close_out telemetry_oc;
    Printf.printf "simgen daemon: drained, exiting\n%!";
    if tsan || Shared.is_armed () then
      exit (tsan_report ?trace_out:tsan_trace ~json:false ())
  in
  let workers =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains executing jobs (default: the recommended \
             domain count minus one).")
  in
  let max_queue =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission bound: queued (not yet dispatched) jobs beyond N \
             are refused with an overloaded answer carrying a retry-after \
             hint, instead of buffering without bound.")
  in
  let telemetry =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:
            "Daemon-side JSONL event log: every job's telemetry across \
             all clients, flushed per line.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent sweep daemon: a Unix-domain-socket JSONL \
          service dispatching sweep/cec/certify/lint jobs onto a worker \
          pool, with a cut-local truth-table check before every SAT query, \
          bounded-queue admission control and per-request deadlines. \
          SIGTERM or a shutdown request drains in-flight jobs (the batch \
          SIGINT path), flushes telemetry, and exits 0.")
    Term.(
      const run $ socket_arg $ workers $ max_queue $ telemetry $ tsan_arg
      $ tsan_trace_arg)

let submit_cmd =
  let run socket cmd args deadline_ms timeout show_events =
    let req =
      match cmd with
      | "ping" -> Ok Serve.Protocol.Ping
      | "stats" -> Ok Serve.Protocol.Stats
      | "shutdown" -> Ok Serve.Protocol.Shutdown
      | "lint" -> (
          match args with
          | [ target ] -> Ok (Serve.Protocol.Lint { target })
          | [] | _ :: _ -> Error "lint takes exactly one target")
      | "sweep" | "cec" | "certify" ->
          if args = [] then Error (cmd ^ " needs circuit arguments")
          else
            Ok
              (Serve.Protocol.Job
                 { cmd; args = String.concat " " args; deadline_ms })
      | cmd -> Error (cmd ^ ": unknown command")
    in
    match req with
    | Error msg ->
        Printf.eprintf "submit: %s\n" msg;
        exit 2
    | Ok req -> (
        let on_event j =
          if show_events then prerr_endline (Serve.Protocol.to_string j)
        in
        match Serve.Client.call ~socket ?read_timeout:timeout ~on_event req with
        | Error err ->
            Printf.eprintf "submit: %s\n" (Serve.Client.error_to_string err);
            exit 2
        | Ok fields ->
            print_endline (Serve.Protocol.to_string (Serve.Protocol.Obj fields));
            (* Exit codes mirror the one-shot cec/batch conventions. *)
            (match
               Serve.Protocol.string_member "status" (Serve.Protocol.Obj fields)
             with
             | Some status ->
                 let prefixed p = String.length status >= String.length p
                                  && String.sub status 0 (String.length p) = p in
                 if status = "equivalent" || status = "swept"
                    || status = "ok" || status = "shutting-down"
                 then exit 0
                 else if prefixed "not-equivalent" then exit 1
                 else if prefixed "inconclusive" || prefixed "budget-exhausted"
                 then exit 3
                 else if prefixed "failed" then exit 1
                 else exit 0
             | None -> exit 0))
  in
  let cmd =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"CMD"
          ~doc:
            "Request: sweep, cec, certify, lint, stats, ping or shutdown.")
  in
  let args =
    Arg.(
      value & pos_right 0 string []
      & info [] ~docv:"ARGS"
          ~doc:
            "Job arguments in the batch manifest grammar: circuits plus \
             key=value options (seed, deadline, retries, stacked, ...).")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "End-to-end deadline for a job request, in milliseconds, \
             measured from daemon receipt: covers queueing and \
             execution. An expired job is answered \
             budget-exhausted:deadline (exit 3) instead of holding a \
             worker.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"S"
          ~doc:
            "Client-side read timeout in seconds per protocol line \
             (default 120); streamed events reset it.")
  in
  let show_events =
    Arg.(
      value & flag
      & info [ "events" ]
          ~doc:"Print the job's streamed telemetry events to stderr.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Send one request to a running simgen daemon and print the \
          result as JSON. Overloaded answers are retried with jittered \
          backoff before giving up. Exit codes mirror the one-shot \
          commands: 0 equivalent/swept/ok, 1 not equivalent or failed, \
          3 inconclusive or budget-exhausted, 2 transport, timeout, \
          overload or usage error.")
    Term.(
      const run $ socket_arg $ cmd $ args $ deadline_ms $ timeout
      $ show_events)

let ping_cmd =
  let run socket =
    match
      Serve.Client.call ~socket ~connect_timeout:2.0 ~read_timeout:5.0
        Serve.Protocol.Ping
    with
    | Ok fields ->
        print_endline (Serve.Protocol.to_string (Serve.Protocol.Obj fields))
    | Error err ->
        Printf.eprintf "ping: %s\n" (Serve.Client.error_to_string err);
        exit 1
  in
  Cmd.v
    (Cmd.info "ping"
       ~doc:
         "Liveness check: exit 0 if a daemon answers on the socket, 1 \
          otherwise.")
    Term.(const run $ socket_arg)

let atpg_cmd =
  let run spec seed =
    let net = load_or_generate spec in
    Format.printf "%a@." N.pp_stats net;
    let stats = Simgen_atpg.Tpg.campaign ~seed net in
    Format.printf "%a@." Simgen_atpg.Tpg.pp_stats stats
  in
  Cmd.v
    (Cmd.info "atpg"
       ~doc:
         "Stuck-at test generation: random patterns, then guided \
          activation, then SAT.")
    Term.(const run $ circuit_arg 0 "Circuit file or benchmark name." $ seed_arg)

(* ------------------------------------------------------------------ *)
(* Diagnostics commands: lint, race-check, proof-lint                  *)
(* ------------------------------------------------------------------ *)

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit one JSON object per diagnostic (JSONL) instead of text.")

let diagnostics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write diagnostics to $(docv) instead of stdout.")

(* Render [diags] to [output] (stdout by default); the count line goes to
   stderr unless stdout carries the JSONL stream. *)
let write_diagnostics name ~json output diags =
  let render fmt =
    Check.Diagnostic.render ~json fmt diags;
    Format.pp_print_flush fmt ()
  in
  (match output with
   | Some path ->
       Out_channel.with_open_text path (fun oc ->
           render (Format.formatter_of_out_channel oc))
   | None -> render Format.std_formatter);
  let errors, warnings, infos = Check.Diagnostic.counts diags in
  if output <> None || not json then
    Printf.eprintf "%s: %d error(s), %d warning(s), %d info(s)\n" name errors
      warnings infos

let lint_cmd =
  let run targets json suites tseitin semantic sem_budget =
    (* Each target is a file (routed by extension), or a suite benchmark
       name (lints its AIG and its mapped LUT network); --suites appends
       every suite entry. Exit code: 0 clean/info, 1 warnings, 2 errors. *)
    let targets =
      if suites then targets @ Suite.names else targets
    in
    if targets = [] then begin
      Printf.eprintf "lint: no targets (give files, names, or --suites)\n";
      exit 2
    end;
    let fmt = Format.std_formatter in
    let extra_lints net =
      let enc_diags =
        if tseitin then Check.Lint.tseitin_encoding net else []
      in
      let sem_diags =
        if semantic then Check.Sem_lint.run ~budget:sem_budget net else []
      in
      enc_diags @ sem_diags
    in
    let lint_one target =
      if Sys.file_exists target then begin
        let diags = Check.Lint.file target in
        (* The semantic tier needs a network; re-route circuit files
           through the loader (CNF/AIG targets get the base lints only). *)
        if (semantic || tseitin)
           && (Filename.check_suffix target ".blif"
               || Filename.check_suffix target ".bench")
           && not
                (List.exists
                   (fun d -> d.Check.Diagnostic.code = "P001")
                   diags)
        then diags @ extra_lints (read_network target)
        else diags
      end
      else
        match Suite.find target with
        | None ->
            [ Check.Diagnostic.error ~loc:(Check.Diagnostic.Named target)
                "P002" "neither a file nor a known benchmark" ]
        | Some _ ->
            let aig_diags = Check.Aig_lint.run (Suite.aig target) in
            let net = Suite.lut_network target in
            let net_diags = Check.Net_lint.run net in
            aig_diags @ net_diags @ extra_lints net
    in
    let worst = ref 0 in
    List.iter
      (fun target ->
        let diags = lint_one target in
        let errors, warnings, infos = Check.Diagnostic.counts diags in
        if not json then
          Format.fprintf fmt "%s: %d error(s), %d warning(s), %d info(s)@."
            target errors warnings infos;
        Check.Diagnostic.render ~json fmt diags;
        worst := max !worst (Check.Diagnostic.exit_code diags))
      targets;
    exit !worst
  in
  let targets =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"TARGET"
          ~doc:
            "Circuit or CNF file (.blif, .bench, .aag, .cnf, .dimacs) or \
             suite benchmark name.")
  in
  let suites =
    Arg.(
      value & flag
      & info [ "suites" ] ~doc:"Lint every built-in suite benchmark.")
  in
  let tseitin =
    Arg.(
      value & flag
      & info [ "tseitin" ]
          ~doc:
            "Additionally lint the Tseitin CNF encoding of each linted \
             network.")
  in
  let semantic =
    Arg.(
      value & flag
      & info [ "semantic" ]
          ~doc:
            "Additionally run the SAT/BDD-proved semantic tier \
             (S001..S008): provably-constant gates, redundant fanins, \
             equivalent nodes, equal/complementary POs and dead logic. \
             Every finding carries an independently re-checked DRUP \
             witness; budget-exhausted queries surface as info-level \
             S008 'unknown' and never affect the exit code.")
  in
  let sem_budget =
    Arg.(
      value & opt int 2000
      & info [ "sem-budget" ] ~docv:"N"
          ~doc:
            "Per-query conflict budget for --semantic; no single SAT \
             call may exceed it.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static network/AIG/CNF checks; exit 0 on clean or \
          info-only, 1 on warnings, 2 on errors.")
    Term.(
      const run $ targets $ json_arg $ suites $ tseitin $ semantic
      $ sem_budget)

let race_check_cmd =
  let run trace json output =
    match Check.Race_check.file trace with
    | Error msg ->
        Printf.eprintf "race-check: %s\n" msg;
        exit 2
    | Ok diags ->
        write_diagnostics "race-check" ~json output diags;
        exit (Check.Race_check.exit_code diags)
  in
  let trace =
    (* a plain string, not Arg.file: an unreadable trace is this
       command's documented exit-2 path, not a cmdliner usage error *)
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:
            "Event trace recorded by a $(b,--tsan) run (header \
             simgen-tsan 1).")
  in
  Cmd.v
    (Cmd.info "race-check"
       ~doc:
         "Replay a recorded concurrency trace through the vector-clock \
          happens-before race detector (T001-T008 diagnostics; corrupt \
          trace lines degrade to located P001 warnings). Exit 0 clean or \
          info-only, 1 on any race or parse finding, 2 on usage or an \
          unreadable trace.")
    Term.(const run $ trace $ json_arg $ diagnostics_out_arg)

let proof_lint_cmd =
  let run file formula expect_unsat json output =
    let fail msg =
      Printf.eprintf "proof-lint: %s\n" msg;
      exit 2
    in
    let formula =
      match formula with
      | None -> None
      | Some path -> (
          try Some (snd (Simgen_sat.Dimacs.parse_file path)) with
          | Sys_error msg -> fail msg
          | Simgen_sat.Dimacs.Parse_error (loc, msg) ->
              fail
                (Printf.sprintf "%s: %s"
                   (Option.value
                      (Simgen_base.Srcloc.to_string loc)
                      ~default:path)
                   msg))
    in
    let diags =
      (* A malformed proof degrades to a located P001 error diagnostic
         (exit 2 through the normal severity mapping), matching the lint
         subcommand's treatment of unparsable inputs. *)
      match Drup.parse_file file with
      | events -> Check.Proof_lint.run ?formula ~expect_unsat events
      | exception Sys_error msg -> fail msg
      | exception Drup.Parse_error (loc, msg) ->
          [ Check.Diagnostic.error ~loc:(Check.Diagnostic.Src loc) "P001"
              "parse error: %s" msg ]
    in
    write_diagnostics "proof-lint" ~json output diags;
    exit (Check.Diagnostic.exit_code diags)
  in
  let file =
    (* a plain string, not Arg.file: an unreadable proof is this
       command's documented exit-2 path, not a cmdliner usage error *)
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PROOF"
          ~doc:
            "DRUP proof file ($(b,certify-sweep --drup) output, or any \
             drat-trim-style text proof).")
  in
  let formula =
    Arg.(
      value
      & opt (some string) None
      & info [ "formula" ] ~docv:"CNF"
          ~doc:
            "Original formula in DIMACS CNF. Enables the semantic \
             deletion checks (D001, D002, D006) on top of the structural \
             ones; without it, deletions are never flagged (a session \
             proof slice legitimately deletes clauses learned in earlier \
             slices).")
  in
  let expect_unsat =
    Arg.(
      value & flag
      & info [ "expect-unsat" ]
          ~doc:
            "Require the proof to derive the empty clause; its absence \
             is a D008 error.")
  in
  Cmd.v
    (Cmd.info "proof-lint"
       ~doc:
         "Static analysis over a DRUP proof-event stream (D001-D009): \
          tautological and duplicate-literal steps, learns after the \
          empty clause, and — with $(b,--formula) — deletion-stream \
          defects (delete of a never-added or exhausted clause, \
          delete-then-use). Exit 0 clean or info-only, 1 on warnings, 2 \
          on errors or an unreadable proof.")
    Term.(const run $ file $ formula $ expect_unsat $ json_arg
          $ diagnostics_out_arg)

let info_cmd =
  let run spec =
    let net = load_or_generate spec in
    Format.printf "%a@." N.pp_stats net;
    Printf.printf "depth: %d\n" (Simgen_network.Level.depth net)
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print statistics of a circuit file or benchmark.")
    Term.(const run $ circuit_arg 0 "Circuit file or benchmark name.")

let () =
  let doc = "SimGen: simulation pattern generation for equivalence checking" in
  let info = Cmd.info "simgen" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
       [ list_cmd; gen_cmd; map_cmd; sweep_cmd; certify_sweep_cmd; cec_cmd;
         batch_cmd; serve_cmd; submit_cmd; ping_cmd; atpg_cmd; lint_cmd;
         race_check_cmd; proof_lint_cmd;
         info_cmd ]))
