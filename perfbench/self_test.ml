(* [self-test]: unit checks of the order statistics against Python's
   [statistics.quantiles] and of the metric-name grammar, and a check of
   BENCHMARK.json (read from the working directory) against the format
   it must keep. Exits 1 on any failure. *)

module Protocol = Simgen_serve.Protocol

let failures = ref []
let check what ok = if not ok then failures := what :: !failures

let close a b = Float.abs (a -. b) < 1e-9

let stats () =
  let ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, med, q3 = Stats.quartiles ten in
  check "quartiles of 1..10" (close q1 2.75 && close med 5.5 && close q3 8.25);
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] *)
  let q1, med, q3 = Stats.quartiles [ 2.0; 1.0 ] in
  check "quartiles of two samples" (close q1 0.75 && close med 1.5 && close q3 2.25);
  check "one sample" (Stats.quartiles [ 4.0 ] = (4.0, 4.0, 4.0));
  (* statistics.quantiles(range(1, 41), n=100)[74] == 30.75 *)
  let forty = List.init 40 (fun i -> float_of_int (i + 1)) in
  check "p75 of 1..40" (close (Stats.percentile 75 forty) 30.75);
  check "spread of 1..10" (close (Stats.spread ten) (5.5 /. 5.5));
  check "spread of a constant" (Stats.spread [ 3.0; 3.0; 3.0 ] = 0.0)

let names () =
  List.iter
    (fun n -> check ("valid name " ^ n) (Stats.valid_name n))
    [ "wall_s"; "instance_s.p50"; "sim.ns_per_gate_word"; "0x"; "a-b" ];
  List.iter
    (fun n -> check (Printf.sprintf "invalid name %S" n) (not (Stats.valid_name n)))
    [ ""; "-x"; ".x"; "a b"; "a/b"; String.make 65 'a' ]

(* Every metric has a valid name and unit and is defined once; the
   listed end-to-end ones include setup_s, are never 0 by construction
   and may worsen by at most a quarter. *)
let metrics () =
  let all = Metrics.all () in
  List.iter
    (fun (m : Metrics.t) ->
      let u = m.Metrics.unit_ in
      check ("name " ^ m.Metrics.name) (Stats.valid_name m.Metrics.name);
      check ("unit of " ^ m.Metrics.name)
        (String.length u >= 1 && String.length u <= 16
        && String.for_all
             (function
               | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
               | _ -> false)
             u))
    all;
  let names = List.map (fun m -> m.Metrics.name) all in
  check "names unique" (List.length (List.sort_uniq compare names) = List.length names);
  List.iter
    (fun (m : Metrics.t) ->
      match m.Metrics.bound with
      | Some b -> check ("bound of " ^ m.Metrics.name) (b > 0.0 && b <= 0.25)
      | None -> ())
    (Metrics.listed ());
  check "setup_s listed"
    (List.exists
       (fun (m : Metrics.t) ->
         m.Metrics.name = "setup_s" && m.Metrics.unit_ = "s"
         && m.Metrics.better = Metrics.Lower && Metrics.is_e2e m)
       (Metrics.listed ()))

let workloads () =
  match Metrics.load Metrics.benchmark_json with
  | Error msg -> check msg false
  | Ok (j, _) ->
      let listed =
        match Protocol.member "workloads" j with
        | Some (Protocol.List l) -> l
        | Some (Protocol.Null | Protocol.Bool _ | Protocol.Int _ | Protocol.Float _
               | Protocol.String _ | Protocol.Obj _)
        | None ->
            []
      in
      let str key o = Option.value ~default:"" (Protocol.string_member key o) in
      check "workloads match the program's"
        (List.map (str "name") listed = List.map fst Workloads.all);
      List.iter
        (fun o ->
          let why = str "why" o in
          check ("why of " ^ str "name" o)
            (why <> "" && String.length why <= 200 && not (String.contains why '\n')))
        listed

let run () =
  stats ();
  names ();
  metrics ();
  workloads ();
  match !failures with
  | [] ->
      print_endline "self-test: ok";
      0
  | fs ->
      List.iter (Printf.printf "self-test FAILED: %s\n") (List.rev fs);
      1
