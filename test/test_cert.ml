(* Whole-sweep certificates: the recorder (Sat_session / Sweeper) and the
   independent checker (Simgen_check.Certificate), exercised on real
   suite benchmarks plus targeted tampering for every X-code. *)

module Suite = Simgen_benchgen.Suite
module N = Simgen_network.Network
module Sweeper = Simgen_sweep.Sweeper
module Sweep_options = Simgen_sweep.Sweep_options
module Sat_session = Simgen_sweep.Sat_session
module Miter = Simgen_sweep.Miter
module Cert = Simgen_check.Certificate
module Diagnostic = Simgen_check.Diagnostic
module Sat = Simgen_sat

let opts certify =
  { Sweep_options.default with Sweep_options.seed = 7; certify }

(* Full sweep (random -> guided -> SAT) under the given options; returns
   the sweeper for inspection. *)
let sweep ?(name = "dec") certify =
  let net = Suite.lut_network name in
  let o = opts certify in
  let sw = Sweeper.create o net in
  Sweeper.random_round sw;
  ignore (Sweeper.run_guided o sw);
  ignore (Sweeper.sat_sweep o sw);
  sw

let codes report =
  List.sort_uniq compare
    (List.map (fun d -> d.Diagnostic.code) report.Cert.diags)

(* A certified session-route sweep yields a certificate the independent
   checker accepts, with every merge backed by a proved query. *)
let test_valid_certificate () =
  let sw = sweep true in
  let cert = Sweeper.certificate sw in
  let report = Cert.check cert in
  Alcotest.(check (list string)) "no diagnostics" [] (codes report);
  Alcotest.(check bool) "valid" true report.Cert.valid;
  Alcotest.(check bool) "has queries" true (report.Cert.queries > 0);
  Alcotest.(check bool) "has merges" true (report.Cert.merges > 0);
  Alcotest.(check bool) "proved <= queries" true
    (report.Cert.proved <= report.Cert.queries);
  Alcotest.(check bool) "checked <= steps" true
    (report.Cert.steps_checked <= report.Cert.steps)

(* Certification must not change verdicts: the final merge partition of a
   certified sweep is identical to the uncertified one. *)
let test_merge_parity () =
  List.iter
    (fun name ->
      let sw_plain = sweep ~name false and sw_cert = sweep ~name true in
      let net = Sweeper.network sw_plain in
      for id = 0 to N.num_nodes net - 1 do
        Alcotest.(check int)
          (Printf.sprintf "%s: representative of %d" name id)
          (Sweeper.representative sw_plain id)
          (Sweeper.representative sw_cert id)
      done)
    [ "dec"; "apex5" ]

(* An uncertified sweeper records nothing. *)
let test_uncertified_empty () =
  let sw = sweep false in
  let cert = Sweeper.certificate sw in
  Alcotest.(check int) "no queries" 0 (Array.length cert.Cert.queries);
  Alcotest.(check (list pass)) "no merges" [] cert.Cert.merges

(* ---------------------- tampering, one X-code each ------------------- *)

let cert_of_sweep () = Sweeper.certificate (sweep true)

let check_fails ~code (cert : Cert.t) =
  let report = Cert.check cert in
  Alcotest.(check bool) "invalid" false report.Cert.valid;
  Alcotest.(check bool)
    (Printf.sprintf "emits %s (got %s)" code (String.concat "," (codes report)))
    true
    (List.mem code (codes report))

let first_proven_merge (cert : Cert.t) =
  match cert.Cert.merges with
  | m :: _ -> m
  | [] -> Alcotest.fail "certificate has no merges"

(* X002: claim Equal on a query whose proof never derives the obligation
   (strip its proof events). *)
let test_tamper_obligation () =
  let cert = cert_of_sweep () in
  let queries = Array.copy cert.Cert.queries in
  let tampered = ref false in
  Array.iteri
    (fun i q ->
      match q with
      | Cert.Session ({ equal = true; _ } as s) when not !tampered ->
          tampered := true;
          queries.(i) <- Cert.Session { s with events = [] }
      | _ -> ())
    queries;
  Alcotest.(check bool) "found a proven session query" true !tampered;
  check_fails ~code:"X002" { cert with Cert.queries }

(* X003: an activation variable that already occurs in the problem
   clauses is not fresh. *)
let test_tamper_act_freshness () =
  let cert = cert_of_sweep () in
  let queries = Array.copy cert.Cert.queries in
  let tampered = ref false in
  Array.iteri
    (fun i q ->
      match q with
      | Cert.Session ({ va; _ } as s) when not !tampered ->
          tampered := true;
          queries.(i) <- Cert.Session { s with act = va }
      | _ -> ())
    queries;
  Alcotest.(check bool) "found a session query" true !tampered;
  check_fails ~code:"X003" { cert with Cert.queries }

(* X004: a merge citing no proof at all, and one citing a proof of a
   different pair. *)
let test_tamper_proof_ref () =
  let cert = cert_of_sweep () in
  let m = first_proven_merge cert in
  check_fails ~code:"X004"
    { cert with Cert.merges = [ { m with Cert.proof = -1 } ] };
  check_fails ~code:"X004"
    {
      cert with
      Cert.merges =
        [ { Cert.repr = m.Cert.repr + 1; node = m.Cert.node + 1;
            proof = m.Cert.proof } ];
    }

(* X005: representative id above the absorbed node. *)
let test_tamper_monotone () =
  let cert = cert_of_sweep () in
  let m = first_proven_merge cert in
  check_fails ~code:"X005"
    {
      cert with
      Cert.merges =
        [ { Cert.repr = m.Cert.node; node = m.Cert.repr;
            proof = m.Cert.proof } ];
    }

(* X007: the same node absorbed twice. *)
let test_tamper_double_merge () =
  let cert = cert_of_sweep () in
  let m = first_proven_merge cert in
  check_fails ~code:"X007" { cert with Cert.merges = [ m; m ] }

(* X008: node ids outside the network. *)
let test_tamper_range () =
  let cert = cert_of_sweep () in
  let m = first_proven_merge cert in
  check_fails ~code:"X008"
    {
      cert with
      Cert.merges =
        [ { m with Cert.node = cert.Cert.num_nodes + 5 } ];
    }

(* Forged session slices: lemmas nothing entails, over a pair (x1, x2)
   nothing relates. Each lemma was accepted when a root unit it implied
   itself, or one that a later lemma implied through it, outlived its
   retraction in the backward pass. The checker must reject every forged
   lemma (X001) and so the merge citing the slice (X004). *)
let forged_cert clauses events =
  let lit d = Sat.Literal.of_dimacs d in
  {
    Cert.num_nodes = 2;
    queries =
      [|
        Cert.Session
          {
            a = 0;
            b = 1;
            act = 3;
            va = 1;
            vb = 2;
            equal = true;
            clauses = List.map (List.map lit) clauses;
            events =
              List.map
                (fun c -> Sat.Solver.Learn (Array.of_list (List.map lit c)))
                events;
          };
      |];
    merges = [ { Cert.repr = 0; node = 1; proof = 0 } ];
  }

let check_forged ~forged cert =
  let report = Cert.check cert in
  Alcotest.(check bool) "invalid" false report.Cert.valid;
  Alcotest.(check int) "nothing proved" 0 report.Cert.proved;
  let x001 =
    List.filter_map
      (fun d ->
        match (d.Diagnostic.code, d.Diagnostic.message) with
        | "X001", m -> Scanf.sscanf_opt m "proof step %d" Fun.id
        | _ -> None)
      report.Cert.diags
  in
  Alcotest.(check (list int)) "X001 on the forged lemmas" forged
    (List.sort compare x001);
  Alcotest.(check bool) "X004 on the merge" true
    (List.mem "X004" (codes report))

(* (a) With [not x0] at the root each lemma is unit when installed, and
   its own root unit satisfied it in the backward pass. DIMACS numbering:
   variable x_i is [i + 1]. *)
let test_forged_self_unit () =
  check_forged ~forged:[ 0; 1 ]
    (forged_cert [ [ -1 ] ] [ [ 1; 2 ]; [ 1; 3 ] ])

(* (b) The unit [x1] is RUP only through the forged [x0 | x1], and its
   root unit then justified that lemma; likewise [x2] and [x4 | x2]. *)
let test_forged_later_unit () =
  check_forged ~forged:[ 0; 2 ]
    (forged_cert [ [ -1; 2 ]; [ -5; 3 ] ] [ [ 1; 2 ]; [ 2 ]; [ 5; 3 ]; [ 3 ] ])

(* (c) The forged [x0 | x4] implies x4 at the root, so x1 and x2 follow
   from the problem clauses and the units [x1] and [x2] pass; the slice
   then deletes the forged lemma. Its root unit must count as used, or
   the backward pass trims the lemma unchecked. *)
let test_forged_deleted_after_use () =
  let cert =
    forged_cert [ [ -1 ]; [ -5; 2 ]; [ -5; 3 ] ] [ [ 1; 5 ]; [ 2 ]; [ 3 ] ]
  in
  let delete =
    Sat.Solver.Delete (Array.map Sat.Literal.of_dimacs [| 1; 5 |])
  in
  check_forged ~forged:[ 0 ]
    {
      cert with
      Cert.queries =
        Array.map
          (function
            | Cert.Session s -> Cert.Session { s with events = s.events @ [ delete ] }
            | q -> q)
          cert.Cert.queries;
    }

(* A Rebuild marker resets the checker's variable space: records taken
   from two separate sessions validate only with the marker between
   them. *)
let test_rebuild_marker () =
  let net = Suite.lut_network "dec" in
  let query_once () =
    let session = Sat_session.create ~certify:true net in
    (* Find a provably-equal pair: duplicate gates exist in the suite
       networks, so scan gate pairs with identical functions/fanins via
       the miter. *)
    let found = ref None in
    N.iter_nodes net (fun a ->
        if !found = None && not (N.is_pi net a) then
          N.iter_nodes net (fun b ->
              if !found = None && b > a && not (N.is_pi net b) then
                match Sat_session.check_pair session a b with
                | Sat_session.Equal -> found := Some (a, b)
                | _ -> ()));
    match (!found, Sat_session.take_cert_queries session) with
    | Some (a, b), qs ->
        ((a, b), List.filter (function Cert.Session _ -> true | _ -> false) qs)
    | None, _ -> Alcotest.fail "no equal pair found"
  in
  let (a, b), qs1 = query_once () in
  let _, qs2 = query_once () in
  (* The proving query of each session is its last record. *)
  let proof_idx = List.length qs1 + 1 + List.length qs2 - 1 in
  let with_marker =
    {
      Cert.num_nodes = N.num_nodes net;
      queries = Array.of_list (qs1 @ [ Cert.Rebuild ] @ qs2);
      merges = [ { Cert.repr = min a b; node = max a b; proof = proof_idx } ];
    }
  in
  let report = Cert.check with_marker in
  Alcotest.(check (list string)) "marker separates sessions" []
    (codes report);
  (* Without the marker the second session's records replay into the
     first session's variable space and must trip the checker (the act
     variables collide with already-used ones). *)
  let without_marker =
    {
      with_marker with
      Cert.queries = Array.of_list (qs1 @ qs2);
      merges = [];
    }
  in
  let report = Cert.check without_marker in
  Alcotest.(check bool) "collision detected" false report.Cert.valid

(* The fresh certified route (ladder fallback) produces standalone
   records the checker accepts, already trimmed. *)
let test_fresh_certified_route () =
  let net = Suite.lut_network "dec" in
  let sw = Sweeper.create (opts true) net in
  Sweeper.random_round sw;
  let o = { (opts true) with Sweep_options.incremental = false } in
  ignore (Sweeper.sat_sweep o sw);
  let cert = Sweeper.certificate sw in
  let all_fresh =
    Array.for_all
      (function Cert.Fresh _ -> true | _ -> false)
      cert.Cert.queries
  in
  Alcotest.(check bool) "fresh records only" true all_fresh;
  let report = Cert.check cert in
  Alcotest.(check (list string)) "fresh route validates" [] (codes report);
  Alcotest.(check bool) "has merges" true (report.Cert.merges > 0)

(* Drup.trim: the trimmed proof stays valid and never grows. *)
let test_trim () =
  let trims = ref 0 in
  let net = Suite.lut_network "apex5" in
  let sw = Sweeper.create (opts false) net in
  Sweeper.random_round sw;
  let checked = ref 0 in
  List.iter
    (fun cls ->
      match cls with
      | a :: b :: _ when !checked < 12 -> (
          incr checked;
          let r =
            Miter.check_pair_fresh ~certify:true
              ~subst:(Sweeper.substitution sw) net a b
          in
          match (r.Miter.verdict, r.Miter.cert) with
          | Sat_session.Equal, Some (Cert.Fresh { clauses; events; _ }) ->
              Alcotest.(check bool) "trimmed proof valid" true r.Miter.valid;
              Alcotest.(check bool) "trimmed proof still checks" true
                (Sat.Drup.check clauses events = Sat.Drup.Valid)
          | Sat_session.Equal, _ -> Alcotest.fail "Equal without a record"
          | (Sat_session.Counterexample _ | Sat_session.Unknown), _ -> ())
      | _ -> ())
    (Simgen_sim.Eq_classes.classes (Sweeper.classes sw));
  (* Count what the checker trims across a certified sweep: the counter
     must be consistent (trimmed + checked book-keeping never exceeds the
     recorded steps). *)
  let report = Cert.check (Sweeper.certificate (sweep true)) in
  trims := report.Cert.steps_trimmed;
  Alcotest.(check bool) "trim accounting" true
    (!trims >= 0 && report.Cert.steps_checked <= report.Cert.steps)

(* JSONL rendering: every line parses, and the header, query, merge and
   report lines carry exactly the certificate's contents, in order. *)
let test_jsonl () =
  let module Json = Simgen_base.Json in
  let cert = cert_of_sweep () in
  let report = Cert.check cert in
  let out = Cert.to_jsonl cert (Some report) in
  let lines =
    List.filter_map
      (fun l ->
        if l = "" then None
        else
          match Json.parse l with
          | Ok v -> Some v
          | Error e -> Alcotest.failf "line does not parse (%s): %s" e l)
      (String.split_on_char '\n' out)
  in
  let nq = Array.length cert.Cert.queries
  and nm = List.length cert.Cert.merges in
  Alcotest.(check int) "line count" (1 + nq + nm + 1) (List.length lines);
  let int name v =
    match Json.int_member name v with
    | Some i -> i
    | None -> Alcotest.failf "missing int %S in %s" name (Json.to_string v)
  and str name v =
    Option.value ~default:"<missing>" (Json.string_member name v)
  in
  let lines = Array.of_list lines in
  let header = lines.(0) in
  Alcotest.(check string) "header type" "certificate" (str "type" header);
  Alcotest.(check int) "header nodes" cert.Cert.num_nodes (int "nodes" header);
  Alcotest.(check int) "header queries" nq (int "queries" header);
  Alcotest.(check int) "header merges" nm (int "merges" header);
  Array.iteri
    (fun i q ->
      let v = lines.(1 + i) in
      Alcotest.(check string) "query type" "query" (str "type" v);
      Alcotest.(check int) "query index" i (int "index" v);
      Alcotest.(check string) "query kind"
        (match q with
         | Cert.Rebuild -> "rebuild"
         | Cert.Session _ -> "session"
         | Cert.Fresh _ -> "fresh")
        (str "kind" v))
    cert.Cert.queries;
  List.iteri
    (fun i (m : Cert.merge) ->
      let v = lines.(1 + nq + i) in
      Alcotest.(check string) "merge type" "merge" (str "type" v);
      Alcotest.(check int) "merge repr" m.Cert.repr (int "repr" v);
      Alcotest.(check int) "merge node" m.Cert.node (int "node" v);
      Alcotest.(check int) "merge proof" m.Cert.proof (int "proof" v))
    cert.Cert.merges;
  let last = lines.(1 + nq + nm) in
  Alcotest.(check string) "report type" "report" (str "type" last);
  Alcotest.(check bool) "valid in report" true
    (report.Cert.valid && Json.member "valid" last = Some (Json.Bool true))

(* A certify batch job emits a certificate telemetry phase and stays
   successful; its event reports a valid replay. *)
let test_runner_certify () =
  let module Job = Simgen_runner.Job in
  let module Events = Simgen_runner.Events in
  let module Exec = Simgen_runner.Exec in
  let net = Suite.lut_network "dec" in
  let spec =
    Job.make ~id:0
      ~options:
        {
          Sweep_options.default with
          Sweep_options.seed = 3;
          guided_iterations = 5;
          certify = true;
        }
      (Job.Sweep (Job.Inline net))
  in
  let sink, drain = Events.memory () in
  let result = Exec.run ~events:sink ~worker:0 spec in
  Alcotest.(check string) "swept" "swept" (Job.status_to_string result.Job.status);
  let cert_events =
    List.filter_map
      (fun e ->
        match e.Events.payload with
        | Events.Certificate { report; _ } ->
            Some (report.Cert.valid, report.Cert.proved)
        | _ -> None)
      (drain ())
  in
  match cert_events with
  | [ (valid, proved) ] ->
      Alcotest.(check bool) "valid" true valid;
      Alcotest.(check bool) "proved some" true (proved > 0)
  | _ -> Alcotest.fail "expected exactly one certificate event"

let () =
  Alcotest.run "simgen-cert"
    [
      ( "certificate",
        [
          Alcotest.test_case "valid sweep certificate" `Slow
            test_valid_certificate;
          Alcotest.test_case "merge parity" `Slow test_merge_parity;
          Alcotest.test_case "uncertified empty" `Quick test_uncertified_empty;
          Alcotest.test_case "fresh certified route" `Slow
            test_fresh_certified_route;
          Alcotest.test_case "rebuild marker" `Slow test_rebuild_marker;
          Alcotest.test_case "trim" `Slow test_trim;
          Alcotest.test_case "jsonl" `Slow test_jsonl;
        ] );
      ( "tamper",
        [
          Alcotest.test_case "obligation (X002)" `Slow test_tamper_obligation;
          Alcotest.test_case "act freshness (X003)" `Slow
            test_tamper_act_freshness;
          Alcotest.test_case "proof ref (X004)" `Slow test_tamper_proof_ref;
          Alcotest.test_case "monotone (X005)" `Slow test_tamper_monotone;
          Alcotest.test_case "double merge (X007)" `Slow
            test_tamper_double_merge;
          Alcotest.test_case "range (X008)" `Slow test_tamper_range;
          Alcotest.test_case "forged self-unit lemmas (X001)" `Quick
            test_forged_self_unit;
          Alcotest.test_case "forged lemma behind a later unit (X001)" `Quick
            test_forged_later_unit;
          Alcotest.test_case "forged lemma deleted after use (X001)" `Quick
            test_forged_deleted_after_use;
        ] );
      ( "runner",
        [ Alcotest.test_case "certify job event" `Slow test_runner_certify ] );
    ]
