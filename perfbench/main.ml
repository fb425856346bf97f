(* End-to-end benchmark of SimGen: four named workloads, their end-to-end
   metrics, and a traced run that splits the time by layer.

     dune exec perfbench/main.exe -- [--workload W]... [--seed N]
         [--seconds S] [--trace 0|1] [--json FILE] [--spans FILE] [--smoke]
     dune exec perfbench/main.exe -- compare A.jsonl B.jsonl
     dune exec perfbench/main.exe -- self-test

   Workloads: table1-guided, cec-mix, cec-stacked, serve-repeat (all four
   when none is named, each in its own child process so that peak memory
   is per workload). A run sets its workload up at least three times and
   reports the median set-up time, then repeats the workload while
   another pass fits in [--seconds] (at least once) and reports each
   instance's median over the passes. Every end-to-end time is scaled to a
   reference machine speed, which the run measures as it goes (see
   machine.ml). [--trace 1] spends the second half of that time on
   traced passes and reports per-layer metrics instead of end-to-end ones.
   README.md has the workloads, the metrics and how to compare runs.

   Every metric is printed as "workload metric value unit"; the last line
   is one JSON object {correct, attempted, failed, metrics} holding the
   metrics listed in BENCHMARK.json, which is read from the working
   directory. [--json FILE] appends the run, with
   every metric, as one line of FILE for [compare]; [--spans FILE] writes
   the traced spans as JSONL. The exit code is 1 when any verdict is wrong
   or any check fails. *)

module Protocol = Simgen_serve.Protocol
module H = Harness

type args = {
  names : string list;
  params : H.params;
  json : string option;
  spans : string option;
}

let usage () =
  prerr_endline
    "usage: main.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1] \
     [--json FILE] [--spans FILE] [--smoke]\n\
    \       main.exe compare A.jsonl B.jsonl\n\
    \       main.exe self-test";
  exit 2

let parse argv =
  let rec go a = function
    | [] -> { a with names = List.rev a.names }
    | "--workload" :: w :: rest ->
        if not (List.mem_assoc w Workloads.all) then begin
          Printf.eprintf "unknown workload %S (known: %s)\n" w
            (String.concat " " (List.map fst Workloads.all));
          exit 2
        end;
        go { a with names = w :: a.names } rest
    | "--seed" :: n :: rest -> go { a with params = { a.params with seed = int_of_string n } } rest
    | "--seconds" :: s :: rest ->
        go { a with params = { a.params with seconds = float_of_string s } } rest
    | "--trace" :: t :: rest ->
        go { a with params = { a.params with trace = int_of_string t <> 0 } } rest
    | "--smoke" :: rest -> go { a with params = { a.params with smoke = true } } rest
    | "--json" :: f :: rest -> go { a with json = Some f } rest
    | "--spans" :: f :: rest -> go { a with spans = Some f } rest
    | arg :: _ ->
        Printf.eprintf "bad argument %S\n" arg;
        usage ()
  in
  try
    go
      {
        names = [];
        params = { H.seed = 7; seconds = 0.0; trace = false; smoke = false };
        json = None;
        spans = None;
      }
      argv
  with Failure _ -> usage ()

let json_string s = Protocol.to_string (Protocol.String s)

let metrics_json ~with_n values =
  String.concat ","
    (List.map
       (fun { Metrics.metric; value; n } ->
         Printf.sprintf "%s:{\"value\":%s,\"unit\":%s%s}" (json_string metric)
           (Metrics.number value)
           (json_string (Metrics.unit_of metric))
           (if with_n then Printf.sprintf ",\"n\":%d" n else ""))
       values)

(* The values in metric-table order: the listed ones first. *)
let ordered values =
  List.filter_map
    (fun m -> List.find_opt (fun v -> v.Metrics.metric = m.Metrics.name) values)
    (Metrics.all ())

let run_one name (a : args) =
  let p = a.params in
  let r =
    try (List.assoc name Workloads.all) p
    with e ->
      (* A crash is a failed run, reported like any other. *)
      {
        H.attempted = 1;
        failed = 1;
        problems = [ name ^ " raised " ^ Printexc.to_string e ];
        values = [];
      }
  in
  let values = ordered r.H.values in
  List.iter (Metrics.print_line name) values;
  let wanted = List.filter (fun m -> Metrics.is_e2e m <> p.H.trace) (Metrics.listed ()) in
  let reported, missing =
    List.partition_map
      (fun m ->
        match List.find_opt (fun v -> v.Metrics.metric = m.Metrics.name) values with
        | Some v -> Left v
        | None -> Right m.Metrics.name)
      wanted
  in
  let problems =
    r.H.problems
    @ List.map (fun m -> Printf.sprintf "%s: metric %s not measured" name m) missing
  in
  List.iter (fun msg -> Printf.printf "PROBLEM %s\n" msg) problems;
  let correct = r.H.failed = 0 && problems = [] in
  Option.iter
    (fun path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      Printf.fprintf oc
        "{\"workload\":%s,\"seed\":%d,\"seconds\":%s,\"trace\":%d,\"smoke\":%b,\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
        (json_string name) p.H.seed (Metrics.number p.H.seconds)
        (if p.H.trace then 1 else 0)
        p.H.smoke correct r.H.attempted r.H.failed
        (metrics_json ~with_n:true values);
      close_out oc)
    a.json;
  Option.iter (fun path -> Span.write_jsonl path !H.kept_spans) a.spans;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct r.H.attempted r.H.failed
    (metrics_json ~with_n:false reported);
  if not correct then exit 1

(* Several workloads: one child process each, run one after another, so
   that each reports its own peak memory. Each writes its spans to its own
   file: spans.jsonl becomes spans.cec-mix.jsonl. *)
let run_children (a : args) names argv =
  let rec strip = function
    | ("--workload" | "--spans") :: _ :: rest -> strip rest
    | x :: rest -> x :: strip rest
    | [] -> []
  in
  let base = strip argv in
  let spans name =
    match a.spans with
    | None -> []
    | Some f ->
        [ "--spans"; Filename.remove_extension f ^ "." ^ name ^ Filename.extension f ]
  in
  let failures =
    List.filter
      (fun name ->
        let pid =
          Unix.create_process Sys.executable_name
            (Array.of_list
               ((Sys.executable_name :: base) @ [ "--workload"; name ] @ spans name))
            Unix.stdin Unix.stdout Unix.stderr
        in
        snd (Unix.waitpid [] pid) <> Unix.WEXITED 0)
      names
  in
  if failures <> [] then begin
    Printf.printf "FAILED: %s\n" (String.concat " " failures);
    exit 1
  end

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> exit (Compare.run a b)
  | [ "self-test" ] -> exit (Self_test.run ())
  | [ "serve-daemon"; socket ] -> Serve_repeat.daemon socket
  | argv -> (
      let a = parse argv in
      (* Without BENCHMARK.json, stop before measuring anything. *)
      ignore (Metrics.listed ());
      match a.names with
      | [ name ] -> run_one name a
      | [] -> run_children a (List.map fst Workloads.all) argv
      | names -> run_children a names argv)
