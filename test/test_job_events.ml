(* Golden job behaviour of the runner. golden/job_events.txt holds, for a
   fixed set of jobs, the event stream [Exec.run] emits (each event as
   its JSON line with the wall-clock fields [at] and [time] removed)
   followed by one [result] line with the job's status, cost history
   and SAT calls. The jobs cover every path through an attempt: CEC of
   an equivalent pair and of a one-row mutant, a sweep, the pattern
   cache and the cut check, the SAT-call cap, the deadline and cancel
   budgets, certification, the degradation ladder under a zero conflict
   budget, and injected faults with retries.
   Audits are forced off, as in the SAT golden: they add solver work.

   The parity test checks that a CEC job through [Exec.run] reports
   what [Cec.check] reports for the same pair and options.

   Regenerate (only when a behaviour change is intended) with
     dune exec test/test_job_events.exe -- --write test/golden/job_events.txt *)

module N = Simgen_network.Network
module TT = Simgen_network.Truth_table
module Rng = Simgen_base.Rng
module Shared = Simgen_base.Shared
module Runtime_check = Simgen_base.Runtime_check
module Suite = Simgen_benchgen.Suite
module Fault = Simgen_fault.Fault
module Cec = Simgen_sweep.Cec
module Sweeper = Simgen_sweep.Sweeper
module Sweep_options = Simgen_sweep.Sweep_options
module Fun_cache = Simgen_sweep.Fun_cache
module Runner = Simgen_runner
module Budget = Runner.Budget
module Job = Runner.Job
module Events = Runner.Events
module Exec = Runner.Exec
module Retry_policy = Runner.Retry_policy
module Pattern_cache = Runner.Pattern_cache
module Protocol = Simgen_serve.Protocol

(* A copy of [net] with one truth-table row of one gate flipped, chosen
   so that some PO differs on a seeded random vector: non-equivalent by
   construction. Gates are tried from the last one back. *)
let mutant net =
  let rng = Rng.create 11 in
  let flip g row =
    let m = N.create ~name:(N.name net ^ "-mutant") () in
    N.iter_nodes net (fun id ->
        match N.kind net id with
        | N.Pi _ -> ignore (N.add_pi m)
        | N.Gate f ->
            let f =
              if id = g then TT.xor f (TT.of_minterms (TT.nvars f) [ row ])
              else f
            in
            ignore (N.add_gate m f (N.fanins net id)));
    Array.iter (N.add_po m) (N.pos net);
    m
  in
  let differs m =
    List.exists
      (fun _ ->
        let v = Array.init (N.num_pis net) (fun _ -> Rng.bool rng) in
        N.eval_pos net v <> N.eval_pos m v)
      (List.init 256 Fun.id)
  in
  let gates = ref [] in
  N.iter_gates net (fun g ->
      if Array.length (N.fanins net g) > 0 then gates := g :: !gates);
  let rec search = function
    | [] -> failwith ("no observable flip in " ^ N.name net)
    | g :: rest -> (
        let f = match N.kind net g with N.Gate f -> f | N.Pi _ -> assert false in
        let rows = List.init (1 lsl TT.nvars f) Fun.id in
        match List.find_opt (fun row -> differs (flip g row)) rows with
        | Some row -> flip g row
        | None -> search rest)
  in
  search !gates

(* POs that are PIs on one side and buffers of them on the other: the
   sweep has no gate pair to prove, so every PO pair costs a PO-phase
   query. *)
let pis_vs_buffers n =
  let pis () =
    let net = N.create () in
    (net, Array.init n (fun _ -> N.add_pi net))
  in
  let plain, a = pis () in
  Array.iter (N.add_po plain) a;
  let buffered, b = pis () in
  Array.iter (fun x -> N.add_po buffered (N.add_gate buffered (TT.var 0 1) [| x |])) b;
  (plain, buffered)

let job ?(seed = 1) ?(guided_iterations = 20) ?(certify = false) ?fun_cache
    ?max_sat_calls ?max_conflicts ?limits ?retry kind =
  let options =
    {
      Sweep_options.default with
      Sweep_options.seed;
      guided_iterations;
      certify;
      fun_cache;
      max_sat_calls;
      max_conflicts;
    }
  in
  Job.make ~id:0 ~options ?limits ?retry kind

let inline2 a b = Job.Cec (Job.Inline a, Job.Inline b)
let limited f = f Budget.unlimited

(* The events of one run as golden lines: JSON with the wall-clock
   fields dropped, then the result summary. *)
let render events (r : Job.result) =
  let strip e =
    match Protocol.parse (Events.to_json e) with
    | Ok (Protocol.Obj fields) ->
        Protocol.to_string
          (Protocol.Obj (List.filter (fun (k, _) -> k <> "at" && k <> "time") fields))
    | Ok _ | Error _ -> failwith "unparseable event"
  in
  List.map strip events
  @ [
      (let history, sat_calls =
         match r.Job.flow with
         | Some f -> (f.Cec.cost_history, f.Cec.sat.Sweeper.calls + f.Cec.po_calls)
         | None -> ([], 0)
       in
       Printf.sprintf "result status=%s history=%s sat_calls=%d"
         (Job.status_to_string r.Job.status)
         (String.concat "," (List.map string_of_int history))
         sat_calls);
    ]

let run ?cache ?cancel spec =
  let sink, collect = Events.memory () in
  let r = Exec.run ?cache ?cancel ~events:sink ~worker:0 spec in
  render (collect ()) r

let with_faults arm f =
  Fault.reset ();
  arm ();
  Fun.protect ~finally:Fault.reset f

let cases () =
  let dec6 = Suite.lut_network "dec" and dec4 = Suite.lut_network ~k:4 "dec" in
  let pri6 = Suite.lut_network "priority" in
  let retries n = Retry_policy.with_attempts n Retry_policy.default in
  [
    ("cec-equivalent", fun () -> run (job ~seed:3 (inline2 dec6 dec4)));
    ("cec-mutant", fun () -> run (job ~seed:3 (inline2 dec6 (mutant dec4))));
    ("sweep", fun () -> run (job ~seed:5 (Job.Sweep (Job.Inline pri6))));
    ( "pattern-cache",
      fun () ->
        let cache = Pattern_cache.create () in
        let first = run ~cache (job ~seed:3 (inline2 dec6 (mutant dec4))) in
        first @ run ~cache (job ~seed:4 (Job.Sweep (Job.Inline dec4))) );
    ( "cut-check",
      fun () ->
        run (job ~seed:3 ~fun_cache:(Fun_cache.create ()) (inline2 dec6 dec4)) );
    ( "max-sat-in-po-phase",
      fun () ->
        let a, b = pis_vs_buffers 4 in
        run
          (job ~guided_iterations:0 ~max_sat_calls:2 (inline2 a b)) );
    ( "deadline-0",
      fun () ->
        run
          (job ~seed:5
             ~limits:(limited (fun l -> { l with Budget.deadline = Some 0.0 }))
             (Job.Sweep (Job.Inline pri6))) );
    ( "cancelled",
      fun () ->
        run ~cancel:(Shared.Atomic.make "test.golden.cancel" true)
          (job ~seed:3 (inline2 dec6 dec4)) );
    ( "certify",
      fun () ->
        run (job ~seed:3 ~guided_iterations:5 ~certify:true (Job.Sweep (Job.Inline dec6))) );
    ( "worker-crash",
      fun () ->
        with_faults
          (fun () -> Fault.arm ~times:1 "worker-crash")
          (fun () -> run (job ~seed:5 ~retry:(retries 3) (Job.Sweep (Job.Inline pri6)))) );
    ( "ladder",
      fun () ->
        let a, b = pis_vs_buffers 3 in
        run (job ~guided_iterations:2 ~max_conflicts:0 ~certify:true (inline2 a b)) );
    ( "gen-giveup",
      fun () ->
        with_faults
          (fun () -> Fault.arm ~times:5 "gen-giveup")
          (fun () -> run (job ~seed:3 ~retry:(retries 2) (inline2 dec6 (mutant dec4)))) );
  ]

let lines () =
  Runtime_check.with_enabled false @@ fun () ->
  List.concat_map (fun (name, f) -> ("# " ^ name) :: f ()) (cases ())

(* Parity: the same CEC through [Exec.run] and through [Cec.check]. *)
let parity_circuits = [ "dec"; "priority"; "apex5"; "alu4"; "square"; "b14_C" ]

let check_parity left right =
  let opts = { Sweep_options.default with Sweep_options.seed = 3 } in
  let c = Cec.check opts left right in
  let r = Exec.run ~events:Events.null ~worker:0 (job ~seed:3 (inline2 left right)) in
  let what = N.name right in
  let outcome =
    match c.Cec.outcome with
    | Cec.Equivalent -> Job.Equivalent
    | Cec.Not_equivalent { po; vector } -> Job.Not_equivalent { po; vector }
    | Cec.Inconclusive { pos } -> Job.Inconclusive { pos }
  in
  Alcotest.(check string) (what ^ " outcome")
    (Job.status_to_string outcome) (Job.status_to_string r.Job.status);
  let f =
    match r.Job.flow with
    | Some f -> f
    | None -> Alcotest.fail (what ^ ": no flow report")
  in
  Alcotest.(check (list int)) (what ^ " cost history") c.Cec.cost_history f.Cec.cost_history;
  let counts (s : Sweeper.sat_stats) =
    [ s.Sweeper.calls; s.Sweeper.proved; s.Sweeper.disproved; s.Sweeper.conflicts;
      s.Sweeper.propagations; s.Sweeper.restarts; s.Sweeper.deleted ]
  in
  Alcotest.(check (list int)) (what ^ " sweep counts") (counts c.Cec.sat) (counts f.Cec.sat);
  Alcotest.(check int) (what ^ " PO calls") c.Cec.po_calls f.Cec.po_calls

let test_parity () =
  Runtime_check.with_enabled false @@ fun () ->
  List.iter
    (fun name ->
      let k6 = Suite.lut_network name and k4 = Suite.lut_network ~k:4 name in
      check_parity k6 k4;
      check_parity k6 (mutant k4))
    parity_circuits

let golden_path =
  if Sys.file_exists "golden/job_events.txt" then "golden/job_events.txt"
  else "test/golden/job_events.txt"

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_events () =
  Alcotest.(check (list string))
    "event streams match the golden file" (read_lines golden_path) (lines ())

let () =
  match Sys.argv with
  | [| _; "--write"; path |] ->
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) (lines ()))
  | _ ->
      Alcotest.run "job-events"
        [
          ( "exec",
            [
              Alcotest.test_case "event streams" `Quick test_events;
              Alcotest.test_case "parity with Cec.check" `Quick test_parity;
            ] );
        ]
