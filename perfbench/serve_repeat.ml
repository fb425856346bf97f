(* serve-repeat: a daemon on a real Unix socket, driven closed-loop by
   two clients. The daemon is [Server.create ~workers:1] with the
   function and pattern caches. Each client submits [sweep C] and
   [cec C C_k4.blif] for five circuits, in two passes; client 1 goes in
   reverse order. That is 40 requests per round, each on its own
   connection through [Client.call], so at most two connections are open.

   This is the only workload through [Protocol], [Client], the server
   queue and [Fun_cache]; its repeats are what the cache is for, and the
   other three workloads bypass it. Every round starts a fresh daemon, so
   rounds repeat the same cold-then-warm sequence. The circuits are fixed
   so that runs at different seeds do the same amount of work, and so is
   their order: the median latency of two clients racing for one worker
   depends on which jobs queue behind which. The seed sets the job
   seeds. *)

module Suite = Simgen_benchgen.Suite
module Server = Simgen_serve.Server
module Client = Simgen_serve.Client
module Protocol = Simgen_serve.Protocol
module Fun_cache = Simgen_sweep.Fun_cache
module Cec = Simgen_sweep.Cec
module Pattern_cache = Simgen_runner.Pattern_cache
module Retry_policy = Simgen_runner.Retry_policy
module Blif = Simgen_network.Blif
module N = Simgen_network.Network
module Rng = Simgen_base.Rng
module H = Harness

let circuits ~smoke =
  if smoke then [ "apex5" ] else [ "apex5"; "dec"; "e64"; "k2"; "misex3c" ]

let passes ~smoke = if smoke then 1 else 2

(* Sockets and K = 4 BLIF files live in a directory of this process's own
   under [_build/], which git already ignores, so that a run writes
   nothing outside the tree it runs in. The relative socket paths stay
   well inside the 108-byte limit of Unix socket names however deep that
   tree is. [run] removes the directory, and [_build/] if it made it,
   when it ends. *)
let scratch =
  lazy
    (let d = Filename.concat "_build" (Printf.sprintf "perfbench-serve-%d" (Unix.getpid ())) in
     let made = List.filter (fun p -> not (Sys.file_exists p)) [ "_build"; d ] in
     List.iter (fun p -> Sys.mkdir p 0o755) made;
     (d, made))

let dir () = fst (Lazy.force scratch)

let remove_scratch () =
  if Lazy.is_val scratch then begin
    let d, made = Lazy.force scratch in
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    List.iter Sys.rmdir (List.rev made)
  end

(* The daemon runs in a process of its own, started from this executable
   ([main.exe serve-daemon SOCKET]), so that its peak memory is its own
   and its worker's collections do not interleave with the clients' (a
   minor collection stops every domain of a process). A fresh process
   per round also means fresh caches, so rounds repeat exactly. It
   samples the machine's speed on its worker, where the work runs, and
   leaves the samples next to its socket when it stops. *)
let samples_file socket = socket ^ ".samples"

let daemon socket =
  let server =
    Server.create ~workers:1 ~fun_cache:(Fun_cache.create ())
      ~pattern_cache:(Pattern_cache.create ()) ()
  in
  Machine.arm ();
  Server.serve server ~socket;
  Machine.disarm ();
  Machine.save (samples_file socket)

type daemon = { pid : int; socket : string }

let stop_daemon d =
  let peak = H.peak_rss_mb ~pid:d.pid () in
  (match Client.call ~socket:d.socket Protocol.Shutdown with
   | Ok _ -> ()
   | Error _ -> Unix.kill d.pid Sys.sigkill);
  ignore (Unix.waitpid [] d.pid);
  Machine.load (samples_file d.socket);
  peak

let start_daemon socket =
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "serve-daemon"; socket |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; socket } in
  let rec await n =
    match
      Client.call ~socket ~connect_timeout:1.0 ~read_timeout:5.0
        ~retry:Retry_policy.none Protocol.Ping
    with
    | Ok _ -> d
    | Error e when n = 0 ->
        ignore (stop_daemon d);
        failwith ("daemon did not come up: " ^ Client.error_to_string e)
    | Error _ ->
        Unix.sleepf 0.01;
        await (n - 1)
  in
  (* Up to 30 s, for a machine busy with other tests. *)
  await 3000

type setup = {
  blifs : (string * string) list;  (** circuit, its K = 4 BLIF *)
  nets : N.t list;  (** what the daemon sweeps: K6 nets and K6|K4 joins *)
  luts : int;
  map_s : float;
  problems : string list;
}

let setup (p : H.params) () =
  let d = dir () in
  let rng = Rng.create p.seed in
  let mapped, map_s =
    H.timed (fun () ->
        List.map
          (fun c -> (c, Suite.lut_network c, Suite.lut_network ~k:4 c))
          (circuits ~smoke:p.smoke))
  in
  let problems =
    List.filter_map
      (fun (c, n6, n4) ->
        if Oracle.agree rng n6 n4 then None
        else Some (c ^ ": K6 and K4 mappings disagree"))
      mapped
  in
  let blifs =
    List.map
      (fun (c, _, n4) ->
        let path = Filename.concat d (c ^ "_k4.blif") in
        Blif.write_file path n4;
        (c, path))
      mapped
  in
  ignore (stop_daemon (start_daemon (Filename.concat d "setup.sock")));
  {
    blifs;
    nets =
      List.concat_map
        (fun (_, n6, n4) -> [ n6; (let j, _, _ = Cec.join n6 n4 in j) ])
        mapped;
    luts = List.fold_left (fun a (_, n6, n4) -> a + N.num_gates n6 + N.num_gates n4) 0 mapped;
    map_s;
    problems;
  }

type req = {
  client : int;
  pass : int;
  cmd : string;
  request : Protocol.request;
  expect : string;
}

let requests (p : H.params) s ~client order =
  let extra = if p.smoke then " iterations=2" else "" in
  List.concat_map
    (fun pass ->
      List.concat_map
        (fun c ->
          let job cmd args expect =
            {
              client;
              pass;
              cmd;
              request =
                Protocol.Job
                  { cmd; args = Printf.sprintf "%s seed=%d%s" args p.seed extra; deadline_ms = None };
              expect;
            }
          in
          [
            job "sweep" c "swept";
            job "cec" (c ^ " " ^ List.assoc c s.blifs) "equivalent";
          ])
        order)
    (List.init (passes ~smoke:p.smoke) Fun.id)

type sample = {
  req : req;
  t_send : float;
  t_end : float;
  events : (float * Protocol.json) list;  (** arrival time, frame; traced only *)
  status : string;
}

let status_of = function
  | Ok fields -> (
      match Protocol.string_member "status" (Protocol.Obj fields) with
      | Some s -> s
      | None -> "missing-status")
  | Error e -> "client-error: " ^ Client.error_to_string e

(* One client: its requests in order, each waiting for the previous. *)
let client ~trace socket reqs =
  List.map
    (fun req ->
      let events = ref [] in
      let on_event =
        if trace then Some (fun j -> events := (Unix.gettimeofday (), j) :: !events)
        else None
      in
      let t_send = Unix.gettimeofday () in
      let reply = Client.call ~socket ?on_event req.request in
      let t_end = Unix.gettimeofday () in
      { req; t_send; t_end; events = List.rev !events; status = status_of reply })
    reqs

type round = {
  samples : sample list;
  wall : H.clock;
  stats : Protocol.json;
  peak_mb : float;  (** the daemon's peak resident memory *)
}

let round ~trace (p : H.params) s index =
  let order = circuits ~smoke:p.smoke in
  let d = start_daemon (Filename.concat (dir ()) (Printf.sprintf "r%d.sock" index)) in
  (* Warm the new daemon with a lint of each circuit: generation, mapping
     and lint, but no cache traffic. A fresh process runs its first jobs
     slower while its heap grows (rounds took 6-9.5 s cold and 5-6 s
     warmed on a 2-vCPU virtual machine), which a long-lived daemon pays
     once, not per request. *)
  List.iter
    (fun c -> ignore (Client.call ~socket:d.socket (Protocol.Lint { target = c })))
    order;
  let peak_mb = ref 0.0 in
  let samples, wall, stats =
    Fun.protect
      ~finally:(fun () -> peak_mb := stop_daemon d)
      (fun () ->
        let start = Unix.gettimeofday () in
        let other =
          Domain.spawn (fun () ->
              client ~trace d.socket (requests p s ~client:1 (List.rev order)))
        in
        let mine = client ~trace d.socket (requests p s ~client:0 order) in
        let samples = mine @ Domain.join other in
        let wall = { H.start; stop = Unix.gettimeofday () } in
        match Client.call ~socket:d.socket Protocol.Stats with
        | Ok fields -> (samples, wall, Protocol.Obj fields)
        | Error _ -> (samples, wall, Protocol.Null))
  in
  { samples; wall; stats; peak_mb = !peak_mb }

(* ------------------------------------------------------------------ *)
(* Per-layer numbers from the telemetry frames                         *)
(* ------------------------------------------------------------------ *)

let num = Metrics.json_num

let phase j = Option.value ~default:"" (Protocol.string_member "phase" j)

(* A request's job phases, rebuilt as spans under its [serve.request]
   root. Frame timestamps ([at]) are job-relative. They are placed on the
   client's clock by the frame that arrived soonest after its timestamp,
   so that no frame arrives before the moment it describes. The
   [serve.wait] span (queue, request wire and parse) ends where the job
   starts, and [serve.tail] runs from the arrival of the [finished]
   frame to the result. The delivery lag of that last frame is what the
   phases leave unattributed. *)
let request_spans c sm =
  let trace = Span.new_trace () in
  let root =
    Span.add ~trace ~parent:(-1) ~name:"serve.request" ~start:sm.t_send ~stop:sm.t_end
  in
  let add name start stop = ignore (Span.add ~trace ~parent:root ~name ~start ~stop) in
  match List.find_opt (fun (_, j) -> phase j = "started") sm.events with
  | None -> ()
  | Some (_, j0) ->
      let offset =
        List.fold_left (fun m (t, j) -> Float.min m (t -. num "at" j)) infinity sm.events
      in
      let clock at = offset +. at in
      add "serve.wait" sm.t_send (clock (num "at" j0));
      let sweep_calls = ref 0.0 in
      ignore
        (List.fold_left
           (fun prev (t_arrival, j) ->
             let at = num "at" j in
             let span name =
               add name (clock prev) (clock at);
               at
             in
             match phase j with
             | "lint" | "cache-replay" -> span "serve.prepare"
             | "random-round" -> span "sim.random"
             | "guided-round" ->
                 H.bump c "core.vectors" (num "vectors" j);
                 H.bump c "core.gen_conflicts" (num "conflicts" j);
                 H.bump c "core.skipped" (num "skipped" j);
                 span "core.guided"
             | "sat-sweep" ->
                 sweep_calls := num "calls" j;
                 H.bump c "sweep.calls" !sweep_calls;
                 H.bump c "sweep.proved" (num "proved" j);
                 H.bump c "sweep.disproved" (num "disproved" j);
                 span "sweep.sat_sweep"
             | "finished" ->
                 H.bump c "sat.conflicts" (num "sat_conflicts" j);
                 H.bump c "sat.propagations" (num "sat_propagations" j);
                 H.bump c "cec.po_calls" (num "sat_calls" j -. !sweep_calls);
                 add "serve.tail" t_arrival sm.t_end;
                 if sm.req.cmd = "cec" then span "cec.po" else at
             | _ -> prev)
           (num "at" j0) sm.events)

let job_time sm =
  match List.find_opt (fun (_, j) -> phase j = "finished") sm.events with
  | Some (_, j) -> num "time" j
  | None -> 0.0

let round_layers c r =
  List.iter (request_spans c) r.samples;
  let jobs = List.map job_time r.samples in
  let waits = List.map (fun sm -> sm.t_end -. sm.t_send -. job_time sm) r.samples in
  Hashtbl.replace c "serve.job_s.p50" (Stats.median jobs);
  Hashtbl.replace c "serve.wait_s.p50" (Stats.median waits);
  Hashtbl.replace c "serve.wait_s.p75" (Stats.percentile 75 waits);
  let cache obj key =
    match Protocol.member obj r.stats with Some o -> num key o | None -> 0.0
  in
  let consults = cache "fun_cache" "consults" and hits = cache "fun_cache" "hits" in
  Hashtbl.replace c "fun_cache.consults" consults;
  Hashtbl.replace c "fun_cache.hits" hits;
  Hashtbl.replace c "fun_cache.hit_rate" (Stats.ratio hits consults);
  Hashtbl.replace c "fun_cache.local_proofs" (cache "fun_cache" "local_proofs");
  Hashtbl.replace c "fun_cache.collisions" (cache "fun_cache" "collisions");
  Hashtbl.replace c "pattern_cache.hits" (cache "pattern_cache" "hits")

let run (p : H.params) =
  let index = ref 0 in
  let next () =
    incr index;
    !index
  in
  let setups, plain, traced =
    Fun.protect ~finally:remove_scratch (fun () ->
        H.measure ~remote:true p ~setup:(setup p)
          ~untraced:(fun s -> round ~trace:false p s (next ()))
          ~traced:(fun s c ->
            let r = round ~trace:true p s (next ()) in
            round_layers c r;
            r))
  in
  let s = snd (H.last setups) in
  let rounds = plain @ List.map fst traced in
  let samples = List.concat_map (fun r -> r.samples) rounds in
  let failed = List.length (List.filter (fun sm -> sm.status <> sm.req.expect) samples) in
  let latency sm = Machine.seconds ~start:sm.t_send ~stop:sm.t_end in
  (* A request's latency includes waiting for the other client's job or
     not, so the repeats are taken at round level. The wall is the median
     round. An instance is one client's pass, ten requests in a closed
     loop (single latencies are bimodal, so their median jumps between the
     modes from run to run), and keeps its median over the rounds.
     Request percentiles and the warm speedup pool every round. *)
  let pass_ids = List.init (passes ~smoke:p.smoke) Fun.id in
  let sessions r =
    List.concat_map
      (fun client ->
        List.map
          (fun pass ->
            let mine =
              List.filter (fun sm -> sm.req.client = client && sm.req.pass = pass) r.samples
            in
            Machine.seconds ~start:(List.hd mine).t_send ~stop:(H.last mine).t_end)
          pass_ids)
      [ 0; 1 ]
  in
  let pooled = List.concat_map (fun r -> r.samples) plain in
  let req_s = List.map latency pooled in
  let pass_total k =
    Stats.sum (List.filter_map (fun sm -> if sm.req.pass = k then Some (latency sm) else None) pooled)
  in
  let walls rs = List.map (fun r -> [ H.seconds r.wall ]) rs in
  let values =
    H.common
      ~wall:(Stats.median (List.map (fun r -> H.seconds r.wall) plain))
      ~peak:(Stats.median (List.map (fun r -> r.peak_mb) plain))
      ~setup_times:(List.map fst setups)
      ~map_times:(List.map (fun (_, s) -> s.map_s) setups)
      ~luts:s.luts ~passes:(List.length plain)
      (H.typical (List.map sessions plain))
    @ [
        Metrics.v "error_rate"
          (Stats.ratio (float_of_int failed) (float_of_int (List.length samples)));
        Metrics.v ~n:(List.length req_s) "req_s.p50" (Stats.median req_s);
        Metrics.v ~n:(List.length req_s) "req_s.p75" (Stats.percentile 75 req_s);
      ]
    @ (if passes ~smoke:p.smoke < 2 then []
       else
         [
           Metrics.v ~n:(List.length req_s) "warm_speedup"
             (Stats.ratio (pass_total 0) (pass_total 1));
         ])
    @ H.traced_values p ~times:(walls plain)
        ~traced_times:(walls (List.map fst traced))
        ~layers:(List.map snd traced) ~nets:s.nets
  in
  {
    H.attempted = List.length samples;
    failed;
    problems = s.problems;
    values;
  }
