(* The serving layer: the JSONL protocol codec, the cut-local check the
   daemon runs before every SAT query (it may answer Equal only for
   equivalent pairs, and every counterexample it serves must distinguish
   the pair), and the daemon's request handler exercised in-process. *)

module N = Simgen_network.Network
module TT = Simgen_network.Truth_table
module Rng = Simgen_base.Rng
module Shared = Simgen_base.Shared
module Fault = Simgen_fault.Fault
module Retry_policy = Simgen_runner.Retry_policy
module Fun_cache = Simgen_sweep.Fun_cache
module Sat_session = Simgen_sweep.Sat_session
module Protocol = Simgen_serve.Protocol
module Server = Simgen_serve.Server
module Client = Simgen_serve.Client

let tt_and2 = TT.and_ (TT.var 0 2) (TT.var 1 2)
let tt_or2 = TT.or_ (TT.var 0 2) (TT.var 1 2)

let identity_subst net = Array.init (N.num_nodes net) Fun.id

(* Direct cone evaluation: the test-side oracle for counterexamples. *)
let eval net vec id =
  let memo = Hashtbl.create 16 in
  let rec ev id =
    match Hashtbl.find_opt memo id with
    | Some v -> v
    | None ->
        let v =
          match N.kind net id with
          | N.Pi k -> vec.(k)
          | N.Gate f -> TT.eval f (Array.map ev (N.fanins net id))
        in
        Hashtbl.replace memo id v;
        v
  in
  ev id

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let json_roundtrip v =
  match Protocol.parse (Protocol.to_string v) with
  | Ok v' -> v'
  | Error msg -> Alcotest.failf "reparse failed: %s" msg

let test_json_roundtrip () =
  let v =
    Protocol.(
      Obj
        [
          ("a", Int 42);
          ("b", String "x \"quoted\"\nline\ttab");
          ("c", List [ Bool true; Bool false; Null ]);
          ("d", Obj [ ("nested", List [ Int (-7); Int 0 ]) ]);
          ("e", String "");
        ])
  in
  Alcotest.(check bool) "roundtrip" true (json_roundtrip v = v)

let test_json_rejects () =
  List.iter
    (fun s ->
      match Protocol.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "{\"a\":}"; "[1,2"; "{\"a\":1} trailing"; "nul"; "\"open" ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      let line = Protocol.request_to_line ~id:9 req in
      match Protocol.request_of_line line with
      | Ok (9, req') ->
          Alcotest.(check bool) ("roundtrip " ^ line) true (req = req')
      | Ok (id, _) -> Alcotest.failf "wrong id %d" id
      | Error msg -> Alcotest.failf "%s: %s" line msg)
    Protocol.
      [
        Ping;
        Stats;
        Shutdown;
        Lint { target = "apex2" };
        Job { cmd = "sweep"; args = "apex2 stacked=true seed=3"; deadline_ms = None };
        Job { cmd = "cec"; args = "a.blif b.blif deadline=2.0"; deadline_ms = None };
        Job { cmd = "certify"; args = "square"; deadline_ms = None };
        Job { cmd = "sweep"; args = "apex2"; deadline_ms = Some 1500 };
      ]

let test_request_rejects () =
  List.iter
    (fun line ->
      match Protocol.request_of_line line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error _ -> ())
    [
      "{\"v\":2,\"id\":1,\"cmd\":\"ping\"}";
      "{\"v\":1,\"id\":1,\"cmd\":\"nope\"}";
      "{\"v\":1,\"cmd\":\"ping\"}";
      "{\"v\":1,\"id\":1,\"cmd\":\"sweep\"}";
      "{\"v\":1,\"id\":1,\"cmd\":\"lint\"}";
      "{\"v\":1,\"id\":1,\"cmd\":\"sweep\",\"args\":\"apex2\",\"deadline_ms\":0}";
      "{\"v\":1,\"id\":1,\"cmd\":\"sweep\",\"args\":\"apex2\",\"deadline_ms\":-5}";
      "not json";
    ]

let test_frame_roundtrip () =
  let check frame =
    let line = Protocol.frame_to_line ~id:3 frame in
    match Protocol.frame_of_line line with
    | Ok (3, frame') ->
        Alcotest.(check bool) ("roundtrip " ^ line) true (frame = frame')
    | Ok (id, _) -> Alcotest.failf "wrong id %d" id
    | Error msg -> Alcotest.failf "%s: %s" line msg
  in
  check (Protocol.Event (Protocol.Obj [ ("phase", Protocol.String "queued") ]));
  check
    (Protocol.Result
       [ ("status", Protocol.String "swept"); ("final_cost", Protocol.Int 7) ]);
  check (Protocol.Failed "boom \"quoted\"");
  check (Protocol.Overloaded { retry_after = 0.25 })

(* ------------------------------------------------------------------ *)
(* Cut-local check                                                     *)
(* ------------------------------------------------------------------ *)

let tt_xor2 = TT.xor (TT.var 0 2) (TT.var 1 2)

(* x1 = and(a,b), x2 = and(b,a) (equal), y1 = or(a,b) (distinct). *)
let pair_net () =
  let net = N.create () in
  let a = N.add_pi net in
  let b = N.add_pi net in
  let x1 = N.add_gate net tt_and2 [| a; b |] in
  let x2 = N.add_gate net tt_and2 [| b; a |] in
  let y1 = N.add_gate net tt_or2 [| a; b |] in
  List.iter (N.add_po net) [ x1; x2; y1 ];
  (net, x1, x2, y1)

let test_local_proof () =
  let fc = Fun_cache.create () in
  let net, x1, x2, _ = pair_net () in
  let rng = Rng.create 1 in
  let subst = identity_subst net in
  (match Fun_cache.consult fc (Fun_cache.scratch net) ~rng ~subst net x1 x2 with
   | Sat_session.Equal -> ()
   | _ -> Alcotest.fail "equal cones must be served locally");
  let s = Fun_cache.stats fc in
  Alcotest.(check int) "hits" 1 s.Fun_cache.hits;
  Alcotest.(check int) "local proofs" 1 s.Fun_cache.local_proofs

let test_exact_cut_cex () =
  let fc = Fun_cache.create () in
  let net, x1, _, y1 = pair_net () in
  let rng = Rng.create 1 in
  let subst = identity_subst net in
  (match Fun_cache.consult fc (Fun_cache.scratch net) ~rng ~subst net x1 y1 with
   | Sat_session.Counterexample vec ->
       Alcotest.(check int) "full PI vector" (N.num_pis net) (Array.length vec);
       Alcotest.(check bool) "distinguishes" true
         (eval net vec x1 <> eval net vec y1)
   | _ -> Alcotest.fail "exact-cut difference must yield a counterexample");
  let s = Fun_cache.stats fc in
  Alcotest.(check int) "local cexes" 1 s.Fun_cache.local_cexes

(* Node values of every node under one PI vector; ids are topological. *)
let node_values net vec =
  let v = Array.make (N.num_nodes net) false in
  for id = 0 to N.num_nodes net - 1 do
    v.(id) <-
      (match N.kind net id with
       | N.Pi k -> vec.(k)
       | N.Gate f -> TT.eval f (Array.map (fun i -> v.(i)) (N.fanins net id)))
  done;
  v

(* The oracle: [a] and [b] agree under every PI vector. *)
let equivalent net a b =
  let n = N.num_pis net in
  let rec go m =
    m >= 1 lsl n
    ||
    let v = node_values net (Array.init n (fun i -> (m lsr i) land 1 = 1)) in
    v.(a) = v.(b) && go (m + 1)
  in
  go 0

(* Two gates computing [f] and [g] over the same [n] PIs. *)
let two_gate_net f g n =
  let net = N.create () in
  let pis = Array.init n (fun _ -> N.add_pi net) in
  let a = N.add_gate net f pis in
  let b = N.add_gate net g pis in
  N.add_po net a;
  N.add_po net b;
  (net, a, b)

(* [f] with its inputs permuted and negated and, at random, its output
   negated: the variants an NPN-keyed store could not tell apart. *)
let npn_variant rng f n =
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  let neg = Rng.int rng (1 lsl n) and out = Rng.bool rng in
  let image m =
    let y = ref 0 in
    for i = 0 to n - 1 do
      if ((m lxor neg) lsr i) land 1 = 1 then y := !y lor (1 lsl perm.(i))
    done;
    !y
  in
  TT.of_minterms n
    (List.filter (fun m -> TT.get_bit f (image m) <> out) (List.init (1 lsl n) Fun.id))

let parity n =
  List.fold_left
    (fun acc i -> TT.xor acc (TT.var i n))
    (TT.create_const n false) (List.init n Fun.id)

(* Ten PIs. [h1] is the parity of p0..p8 as one 9-input gate, [h2] the
   same parity (negated if [negate]) as xor(x1, x2) over a 5-input and a
   4-input gate; a = h1 & p9 and b = h2 & p9. The cut grown from {a, b}
   stops at {h1, x1, p5..p9}: expanding h1 or x1 would need more than 8
   cut nodes. h1 and x1 stay free, so the tables of [a] and [b] over the
   cut differ whether or not the pair is equivalent. *)
let inexact_net ~negate =
  let net = N.create () in
  let p = Array.init 10 (fun _ -> N.add_pi net) in
  let h1 = N.add_gate net (parity 9) (Array.sub p 0 9) in
  let x1 = N.add_gate net (parity 5) (Array.sub p 0 5) in
  let x2 = N.add_gate net (parity 4) (Array.sub p 5 4) in
  let h2 =
    N.add_gate net (if negate then TT.not_ tt_xor2 else tt_xor2) [| x1; x2 |]
  in
  let a = N.add_gate net tt_and2 [| h1; p.(9) |] in
  let b = N.add_gate net tt_and2 [| h2; p.(9) |] in
  N.add_po net a;
  N.add_po net b;
  (net, a, b)

(* Pairs the check must not get wrong, each with its group and the answer
   it must give: "counterexample" for inequivalent pairs over an exact
   cut, "unknown" over an inexact one. Whatever the answer, Equal is only
   ever allowed for an equivalent pair and every counterexample must
   distinguish the pair. Each group is one test case. *)
let collision_cases () =
  let rng = Rng.create 77 in
  let x = TT.var 0 1 in
  let xor2 = tt_xor2 in
  let variants ~group ~count ~width =
    List.filter_map
      (fun _ ->
        let n = width () in
        let f = TT.random rng n in
        let g = npn_variant rng f n in
        if TT.equal f g then None
        else Some (group, group, two_gate_net f g n, "counterexample"))
      (List.init count Fun.id)
  in
  [
    ("buf vs not", "buf vs buf", two_gate_net x x 1, "equal");
    ("buf vs not", "buf vs not", two_gate_net x (TT.not_ x) 1, "counterexample");
    ("xor vs xnor", "xor vs xnor", two_gate_net xor2 (TT.not_ xor2) 2,
     "counterexample");
    ("xor vs xnor", "xnor vs xor", two_gate_net (TT.not_ xor2) xor2 2,
     "counterexample");
    ("inexact cut", "equivalent", inexact_net ~negate:false, "unknown");
    ("inexact cut", "inequivalent", inexact_net ~negate:true, "unknown");
  ]
  @ variants ~group:"negated/permuted" ~count:80
      ~width:(fun () -> 1 + Rng.int rng 4)
  @ variants ~group:"wide cones" ~count:120 ~width:(fun () -> 6)

let test_collisions group ~min_cases () =
  let fc = Fun_cache.create () in
  let cases = List.filter (fun (g, _, _, _) -> g = group) (collision_cases ()) in
  Alcotest.(check bool) "enough pairs" true (List.length cases >= min_cases);
  List.iter
    (fun (_, what, (net, a, b), expect) ->
      let outcome =
        Fun_cache.consult fc (Fun_cache.scratch net) ~rng:(Rng.create 3)
          ~subst:(identity_subst net) net a b
      in
      let got =
        match outcome with
        | Sat_session.Equal ->
            if not (equivalent net a b) then
              Alcotest.failf "%s: Equal served for an inequivalent pair" what;
            "equal"
        | Sat_session.Counterexample vec ->
            Alcotest.(check bool) (what ^ ": counterexample distinguishes") true
              (eval net vec a <> eval net vec b);
            "counterexample"
        | Sat_session.Unknown -> "unknown"
      in
      Alcotest.(check string) (what ^ ": answer") expect got)
    cases

let test_collision_inexact_cut () =
  Alcotest.(check bool) "the inexact equivalent pair is equivalent" true
    (let net, a, b = inexact_net ~negate:false in
     equivalent net a b);
  test_collisions "inexact cut" ~min_cases:2 ()

let random_net rng npis ngates =
  let net = N.create () in
  let ids = ref [] in
  for _ = 1 to npis do
    ids := N.add_pi net :: !ids
  done;
  for _ = 1 to ngates do
    let pool = Array.of_list !ids in
    let arity = 1 + Rng.int rng (min 4 (Array.length pool)) in
    let fanins = Array.init arity (fun _ -> Rng.choose rng pool) in
    ids := N.add_gate net (TT.random rng arity) fanins :: !ids
  done;
  net

(* Random LUT networks of at most 8 PIs, one gate given a structural twin
   so equivalent pairs occur: every Equal must be a true equivalence and
   every counterexample must distinguish, by exhaustive evaluation. *)
let prop_cut_check_sound =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"cut check agrees with exhaustive evaluation"
       ~count:200 ~print:string_of_int
       QCheck2.Gen.(int_range 0 1_000_000)
       (fun seed ->
         let rng = Rng.create seed in
         let npis = 1 + Rng.int rng 8 in
         let net = random_net rng npis (2 + Rng.int rng 30) in
         let g = N.num_pis net + Rng.int rng (N.num_nodes net - N.num_pis net) in
         let twin = N.add_gate net (N.func net g) (N.fanins net g) in
         let n = N.num_nodes net in
         let pairs =
           (g, twin) :: List.init 10 (fun _ -> (Rng.int rng n, Rng.int rng n))
         in
         let fc = Fun_cache.create () in
         let subst = identity_subst net in
         List.for_all
           (fun (a, b) ->
             match Fun_cache.consult fc (Fun_cache.scratch net) ~rng ~subst net a b with
             | Sat_session.Equal -> equivalent net a b
             | Sat_session.Counterexample vec ->
                 Array.length vec = npis && eval net vec a <> eval net vec b
             | Sat_session.Unknown -> true)
           pairs))

(* ------------------------------------------------------------------ *)
(* Server.handle: in-process daemon semantics                          *)
(* ------------------------------------------------------------------ *)

let write_blif path lines =
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

let with_two_circuits f =
  let a = Filename.temp_file "simgen-a" ".blif" in
  let b = Filename.temp_file "simgen-b" ".blif" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove a;
      Sys.remove b)
    (fun () ->
      write_blif a
        [ ".model a"; ".inputs x y"; ".outputs f"; ".names x y f"; "11 1";
          ".end" ];
      write_blif b
        [ ".model b"; ".inputs x y"; ".outputs f"; ".names x y f"; "1- 1";
          "-1 1"; ".end" ];
      f a b)

let result_status = function
  | Protocol.Result fields ->
      (match Protocol.string_member "status" (Protocol.Obj fields) with
       | Some s -> s
       | None -> Alcotest.fail "result without status")
  | Protocol.Failed msg -> Alcotest.failf "error frame: %s" msg
  | Protocol.Event _ -> Alcotest.fail "event is not a final frame"
  | Protocol.Overloaded _ -> Alcotest.fail "unexpected overload answer"

let test_handle_ping_stats () =
  let server = Server.create ~workers:1 () in
  Alcotest.(check string) "ping" "ok"
    (result_status (Server.handle server Protocol.Ping));
  match Server.handle server Protocol.Stats with
  | Protocol.Result fields ->
      let has k = List.mem_assoc k fields in
      List.iter
        (fun k -> Alcotest.(check bool) ("stats has " ^ k) true (has k))
        [ "uptime"; "requests"; "jobs_ok"; "fun_cache" ]
  | _ -> Alcotest.fail "stats must answer with a result"

(* The stats frame's [fun_cache] object sums the [fun-cache] events of
   the jobs the daemon ran. *)
let test_stats_sum_job_counts () =
  with_two_circuits (fun a b ->
      let server = Server.create ~workers:1 () in
      let events = ref 0 in
      let on_event j =
        match Protocol.string_member "phase" j with
        | Some "fun-cache" ->
            events :=
              !events + Option.get (Protocol.int_member "consults" j)
        | _ -> ()
      in
      List.iter
        (fun args ->
          ignore
            (Server.handle server ~on_event
               (Protocol.Job { cmd = "cec"; args; deadline_ms = None })))
        [ a ^ " " ^ a; a ^ " " ^ b ];
      Alcotest.(check bool) "the jobs consulted the check" true (!events > 0);
      match Server.handle server Protocol.Stats with
      | Protocol.Result fields ->
          let fc = Option.get (List.assoc_opt "fun_cache" fields) in
          Alcotest.(check (option int)) "consults summed" (Some !events)
            (Protocol.int_member "consults" fc)
      | _ -> Alcotest.fail "stats must answer with a result")

let test_handle_jobs_and_parity () =
  with_two_circuits (fun a b ->
      let server = Server.create ~workers:1 () in
      let fresh = Server.create ~workers:1 () in
      let spec c1 c2 = Printf.sprintf "%s %s seed=5" c1 c2 in
      let run server args =
        result_status
          (Server.handle server
             (Protocol.Job { cmd = "cec"; args; deadline_ms = None }))
      in
      (* same circuit twice: equivalent, and the warm re-run agrees *)
      let eq = run server (spec a a) in
      Alcotest.(check string) "equivalent" "equivalent" eq;
      Alcotest.(check string) "warm parity" eq (run server (spec a a));
      Alcotest.(check string) "fresh daemon parity" eq (run fresh (spec a a));
      (* distinct circuits: not equivalent, warm or fresh *)
      let ne = run server (spec a b) in
      Alcotest.(check string) "not equivalent" "not-equivalent@po0" ne;
      Alcotest.(check string) "warm parity" ne (run server (spec a b));
      Alcotest.(check string) "fresh daemon parity" ne (run fresh (spec a b)))

let test_handle_streams_events () =
  with_two_circuits (fun a _ ->
      let server = Server.create ~workers:1 () in
      let phases = ref [] in
      let on_event j =
        match Protocol.string_member "phase" j with
        | Some p -> phases := p :: !phases
        | None -> ()
      in
      let frame =
        Server.handle server ~on_event
          (Protocol.Job { cmd = "sweep"; args = a; deadline_ms = None })
      in
      Alcotest.(check string) "swept" "swept" (result_status frame);
      Alcotest.(check bool) "streamed events" true (!phases <> []);
      Alcotest.(check bool) "finished event present" true
        (List.mem "finished" !phases))

let test_handle_certify_forced () =
  with_two_circuits (fun a _ ->
      let server = Server.create ~workers:1 () in
      let phases = ref [] in
      let on_event j =
        match Protocol.string_member "phase" j with
        | Some p -> phases := p :: !phases
        | None -> ()
      in
      let frame =
        Server.handle server ~on_event
          (Protocol.Job
             { cmd = "certify"; args = a ^ " certify=false"; deadline_ms = None })
      in
      Alcotest.(check string) "swept" "swept" (result_status frame);
      (* certify=true was forced despite the client's certify=false: the
         independent checker ran and emitted its telemetry *)
      Alcotest.(check bool) "certificate checked" true
        (List.mem "certificate" !phases))

let test_handle_errors () =
  let server = Server.create ~workers:1 () in
  (match
     Server.handle server
       (Protocol.Job { cmd = "cec"; args = "nope"; deadline_ms = None })
   with
   | Protocol.Failed _ -> ()
   | _ -> Alcotest.fail "bad manifest args must fail");
  match Server.handle server (Protocol.Lint { target = "no-such-bench" }) with
  | Protocol.Failed _ -> ()
  | _ -> Alcotest.fail "unknown lint target must fail"

let test_handle_lint () =
  with_two_circuits (fun a _ ->
      let server = Server.create ~workers:1 () in
      match Server.handle server (Protocol.Lint { target = a }) with
      | Protocol.Result fields ->
          Alcotest.(check bool) "has errors field" true
            (List.mem_assoc "errors" fields)
      | _ -> Alcotest.fail "lint must answer with a result")

let test_shutdown_drains () =
  let server = Server.create ~workers:1 () in
  Alcotest.(check bool) "running" false (Server.shutting_down server);
  Alcotest.(check string) "shutdown ack" "shutting-down"
    (result_status (Server.handle server Protocol.Shutdown));
  Alcotest.(check bool) "draining" true (Server.shutting_down server);
  (* jobs are refused during the drain *)
  match
    Server.handle server
      (Protocol.Job { cmd = "sweep"; args = "x"; deadline_ms = None })
  with
  | Protocol.Failed _ -> ()
  | _ -> Alcotest.fail "jobs must be refused while shutting down"

(* ------------------------------------------------------------------ *)
(* Client hardening and the socket daemon under load                   *)
(* ------------------------------------------------------------------ *)

let rm_f path = if Sys.file_exists path then Sys.remove path

let temp_socket () =
  let path = Filename.temp_file "simgen-serve" ".sock" in
  Sys.remove path;
  path

let test_client_timeout () =
  let sock = temp_socket () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      rm_f sock)
    (fun () ->
      Unix.bind fd (Unix.ADDR_UNIX sock);
      Unix.listen fd 1;
      (* the listener never accepts or answers: the read must time out,
         distinctly from a refused or dropped connection *)
      (match
         Client.call ~socket:sock ~connect_timeout:1.0 ~read_timeout:0.2
           ~retry:Retry_policy.none Protocol.Ping
       with
       | Error (Client.Timeout _) -> ()
       | Ok _ -> Alcotest.fail "a silent daemon answered?"
       | Error e ->
           Alcotest.failf "expected a timeout: %s" (Client.error_to_string e));
      (* a missing socket fails fast and differently *)
      match
        Client.call ~socket:(sock ^ ".gone") ~connect_timeout:0.5
          ~read_timeout:0.2 ~retry:Retry_policy.none Protocol.Ping
      with
      | Error (Client.Dropped _) -> ()
      | Ok _ -> Alcotest.fail "a missing socket answered?"
      | Error e ->
          Alcotest.failf "expected a drop: %s" (Client.error_to_string e))

(* The client retries a shed request by itself: a hand-rolled daemon
   answers the first connection [Overloaded] and the second one [Result]. *)
let test_client_overload_retry () =
  let sock = temp_socket () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      rm_f sock)
    (fun () ->
      Unix.bind fd (Unix.ADDR_UNIX sock);
      Unix.listen fd 2;
      let daemon =
        Shared.spawn (fun () ->
            let answer frame =
              let conn, _ = Unix.accept fd in
              let ic = Unix.in_channel_of_descr conn in
              let (_ : string) = input_line ic in
              let line = Protocol.frame_to_line ~id:1 frame ^ "\n" in
              ignore (Unix.write_substring conn line 0 (String.length line));
              Unix.close conn
            in
            answer (Protocol.Overloaded { retry_after = 0.01 });
            answer (Protocol.Result [ ("status", Protocol.String "ok") ]))
      in
      let res =
        Client.call ~socket:sock ~connect_timeout:2.0 ~read_timeout:5.0
          ~retry:{ Retry_policy.max_attempts = 3; backoff = 0.01; jitter = 0.0 }
          Protocol.Ping
      in
      Shared.join daemon;
      match res with
      | Ok fields -> (
          match Protocol.string_member "status" (Protocol.Obj fields) with
          | Some s -> Alcotest.(check string) "answered on retry" "ok" s
          | None -> Alcotest.fail "result without status")
      | Error e ->
          Alcotest.failf "retry did not recover: %s" (Client.error_to_string e))

(* The drain contract, end to end over a real socket: pin the single
   worker with a slow job, fill the queue past [max_queue], then request
   shutdown. Every admitted job must be answered (the overflow one with
   [Overloaded], the expired one as shed), and telemetry must survive. *)
let test_drain_under_load () =
  with_two_circuits (fun a _ ->
      let sock = temp_socket () in
      Fun.protect
        ~finally:(fun () -> rm_f sock)
        (fun () ->
          let server =
            Server.create ~workers:1 ~max_queue:4 ()
          in
          let d = Shared.spawn (fun () -> Server.serve server ~socket:sock) in
          let rec await n =
            if n = 0 then Alcotest.fail "daemon did not come up";
            match
              Client.call ~socket:sock ~connect_timeout:1.0 ~read_timeout:5.0
                ~retry:Retry_policy.none Protocol.Ping
            with
            | Ok _ -> ()
            | Error (Client.Timeout _ | Client.Overloaded _ | Client.Dropped _
                    | Client.Remote _) ->
                Unix.sleepf 0.05;
                await (n - 1)
          in
          await 100;
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX sock);
          let send id req =
            let line = Protocol.request_to_line ~id req ^ "\n" in
            ignore (Unix.write_substring fd line 0 (String.length line))
          in
          (* id 1 pins the worker; id 2's 1 ms deadline will have expired
             by dispatch; ids 3-5 fill the remaining queue slots; id 6
             overflows *)
          send 1
            (Protocol.Job
               { cmd = "sweep"; args = "apex2 stacked=true"; deadline_ms = None });
          send 2
            (Protocol.Job { cmd = "sweep"; args = a; deadline_ms = Some 1 });
          for id = 3 to 6 do
            send id (Protocol.Job { cmd = "sweep"; args = a; deadline_ms = None })
          done;
          let ic = Unix.in_channel_of_descr fd in
          let finals = Hashtbl.create 8 in
          let overloads = ref 0 in
          let parse line =
            match Protocol.frame_of_line line with
            | Error msg -> Alcotest.failf "bad frame %S: %s" line msg
            | Ok (_, Protocol.Event _) -> ()
            | Ok (id, ((Protocol.Result _ | Protocol.Failed _) as frame)) ->
                Hashtbl.replace finals id frame
            | Ok (id, (Protocol.Overloaded _ as frame)) ->
                incr overloads;
                Hashtbl.replace finals id frame
          in
          (* the overload answer for id 6 is written synchronously by the
             accept loop: seeing it proves all six requests were admitted
             and the queue is genuinely full when the drain starts *)
          let rec until_shed () =
            if !overloads = 0 then begin
              parse (input_line ic);
              until_shed ()
            end
          in
          until_shed ();
          Server.request_shutdown server;
          (try
             while true do
               parse (input_line ic)
             done
           with End_of_file -> ());
          Unix.close fd;
          Shared.join d;
          for id = 1 to 6 do
            Alcotest.(check bool)
              (Printf.sprintf "job %d answered" id)
              true (Hashtbl.mem finals id)
          done;
          (match Hashtbl.find finals 2 with
           | Protocol.Result fields -> (
               (match List.assoc_opt "status" fields with
                | Some (Protocol.String s) ->
                    Alcotest.(check string) "expired before dispatch"
                      "budget-exhausted:deadline" s
                | Some _ | None -> Alcotest.fail "job 2: no status");
               match List.assoc_opt "shed" fields with
               | Some (Protocol.Bool true) -> ()
               | Some _ | None -> Alcotest.fail "job 2: not marked shed")
           | Protocol.Failed _ | Protocol.Event _ | Protocol.Overloaded _ ->
               Alcotest.fail "job 2 must be answered with a shed result");
          (* telemetry survived the drain *)
          (match Server.handle server Protocol.Stats with
           | Protocol.Result fields ->
               let counter k =
                 match List.assoc_opt k fields with
                 | Some (Protocol.Int n) -> n
                 | Some _ | None -> Alcotest.failf "stats: no %s" k
               in
               Alcotest.(check bool) "shed counted" true (counter "shed" >= 1);
               Alcotest.(check bool) "deadline expiry counted" true
                 (counter "deadline_expired" >= 1);
               Alcotest.(check int) "queue drained" 0 (counter "queue_depth")
           | Protocol.Failed _ | Protocol.Event _ | Protocol.Overloaded _ ->
               Alcotest.fail "stats must answer")))

let () =
  Alcotest.run "simgen-serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "json rejects" `Quick test_json_rejects;
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "request rejects" `Quick test_request_rejects;
          Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
        ] );
      ( "fun-cache",
        [
          Alcotest.test_case "local proof" `Quick test_local_proof;
          Alcotest.test_case "exact-cut cex" `Quick test_exact_cut_cex;
          prop_cut_check_sound;
        ] );
      ( "collisions",
        [
          Alcotest.test_case "buf vs not" `Quick
            (test_collisions "buf vs not" ~min_cases:2);
          Alcotest.test_case "xor vs xnor" `Quick
            (test_collisions "xor vs xnor" ~min_cases:2);
          Alcotest.test_case "negated/permuted" `Quick
            (test_collisions "negated/permuted" ~min_cases:40);
          Alcotest.test_case "wide cones" `Quick
            (test_collisions "wide cones" ~min_cases:100);
          Alcotest.test_case "inexact cut" `Quick test_collision_inexact_cut;
        ] );
      ( "server",
        [
          Alcotest.test_case "ping and stats" `Quick test_handle_ping_stats;
          Alcotest.test_case "stats sum the jobs' cut-check counts" `Quick
            test_stats_sum_job_counts;
          Alcotest.test_case "jobs and verdict parity" `Quick
            test_handle_jobs_and_parity;
          Alcotest.test_case "event streaming" `Quick
            test_handle_streams_events;
          Alcotest.test_case "certify forced" `Quick test_handle_certify_forced;
          Alcotest.test_case "request errors" `Quick test_handle_errors;
          Alcotest.test_case "lint" `Quick test_handle_lint;
          Alcotest.test_case "shutdown drains" `Quick test_shutdown_drains;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "client timeout" `Quick test_client_timeout;
          Alcotest.test_case "client retries overload" `Quick
            test_client_overload_retry;
          Alcotest.test_case "drain under load" `Slow test_drain_under_load;
        ] );
    ]
