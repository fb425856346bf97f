module Timer = Simgen_base.Timer
module Shared = Simgen_base.Shared
module Events = Simgen_runner.Events
module Exec = Simgen_runner.Exec
module Job = Simgen_runner.Job
module Budget = Simgen_runner.Budget
module Manifest = Simgen_runner.Manifest
module Pattern_cache = Simgen_runner.Pattern_cache
module Fun_cache = Simgen_sweep.Fun_cache
module Sweeper = Simgen_sweep.Sweeper
module Cec = Simgen_sweep.Cec
module Lint = Simgen_check.Lint
module Diagnostic = Simgen_check.Diagnostic
module Fault = Simgen_fault.Fault

type t = {
  workers : int;
  max_queue : int;  (* admission bound on queued (not in-flight) jobs *)
  fun_cache : Fun_cache.t;  (* the sum of every job's cut-check counts *)
  pattern_cache : Pattern_cache.t option;
  telemetry : Events.sink;
  started : float;
  stop : bool Shared.Atomic.t;  (* drain flag: refuse new work *)
  cancel : bool Shared.Atomic.t;  (* cooperative cancellation for in-flight jobs *)
  requests : int Shared.Atomic.t;
  jobs_ok : int Shared.Atomic.t;
  jobs_err : int Shared.Atomic.t;
  queue_depth : int Shared.Atomic.t;  (* mirror of Queue.length for stats *)
  shed : int Shared.Atomic.t;  (* jobs refused at admission (Overloaded) *)
  deadline_expired : int Shared.Atomic.t;
      (* jobs whose deadline passed: shed before dispatch or cut short *)
}

(* [fun_cache] receives the sum of the jobs' cut-check counts, which the
   [stats] frame reports. The argument remains only because the serving
   benchmark (perfbench/serve_repeat.ml) passes it; it goes once that
   benchmark stops pinning it. *)
let create ?workers ?(max_queue = 64) ?(fun_cache = Fun_cache.create ())
    ?pattern_cache ?(telemetry = Events.null) () =
  let workers =
    match workers with
    | Some w -> max 1 w
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  {
    workers;
    max_queue = max 1 max_queue;
    fun_cache;
    pattern_cache;
    telemetry;
    started = Timer.now ();
    stop = Shared.Atomic.make ~loc:(Shared.here __POS__) "serve.stop" false;
    cancel = Shared.Atomic.make ~loc:(Shared.here __POS__) "serve.cancel" false;
    requests =
      Shared.Atomic.make ~loc:(Shared.here __POS__) "serve.stats.requests" 0;
    jobs_ok =
      Shared.Atomic.make ~loc:(Shared.here __POS__) "serve.stats.jobs-ok" 0;
    jobs_err =
      Shared.Atomic.make ~loc:(Shared.here __POS__) "serve.stats.jobs-err" 0;
    queue_depth =
      Shared.Atomic.make ~loc:(Shared.here __POS__) "serve.stats.queue-depth" 0;
    shed = Shared.Atomic.make ~loc:(Shared.here __POS__) "serve.stats.shed" 0;
    deadline_expired =
      Shared.Atomic.make ~loc:(Shared.here __POS__)
        "serve.stats.deadline-expired" 0;
  }

let shutting_down t = Shared.Atomic.get t.stop

(* Runs inside the SIGTERM handler: the silent accessors skip trace
   recording, which is not reentrant from a signal context. *)
let request_shutdown t =
  Shared.Atomic.silent_set t.stop true;
  Shared.Atomic.silent_set t.cancel true

(* Fold a wire deadline into a job spec: the job's effective budget
   deadline is the smaller of what the manifest args asked for and what
   remains of the client's end-to-end deadline at dispatch time. *)
let clamp_deadline spec remaining =
  let limits = spec.Job.limits in
  let deadline =
    match limits.Budget.deadline with
    | Some d -> Some (Float.min d remaining)
    | None -> Some remaining
  in
  { spec with Job.limits = { limits with Budget.deadline } }

(* The answer for a job cancelled by its own deadline, queued or running:
   the same status string the budget ladder produces, so clients see one
   vocabulary for deadline exhaustion. *)
let deadline_expired_fields ~shed =
  let open Protocol in
  [
    ("status", String (Job.status_to_string (Job.Budget_exhausted Budget.Deadline)));
    ("shed", Bool shed);
  ]

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

(* Job args reuse the manifest grammar; [certify] is sweep with
   certify=true forced (a trailing repeat of an option wins in the
   manifest parser, so a client-supplied certify=false cannot undo it). *)
let spec_of_job ~id cmd args =
  let line =
    match cmd with
    | "certify" -> "sweep " ^ args ^ " certify=true"
    | cmd -> cmd ^ " " ^ args
  in
  match Manifest.parse_lines [ line ] with
  | [ spec ] -> Ok { spec with Job.id }
  | specs ->
      Error (Printf.sprintf "expected one job, got %d" (List.length specs))
  | exception Failure msg -> Error msg

let vector_string vec =
  String.init (Array.length vec) (fun i -> if vec.(i) then '1' else '0')

let result_fields (r : Job.result) =
  let open Protocol in
  let verdict =
    match r.Job.status with
    | Job.Not_equivalent { po; vector } ->
        [ ("po", Int po); ("vector", String (vector_string vector)) ]
    | Job.Inconclusive { pos } ->
        [ ("quarantined_pos", List (List.map (fun p -> Int p) pos)) ]
    | Job.Equivalent | Job.Swept | Job.Budget_exhausted _ | Job.Failed _ -> []
  in
  let final_cost, sat_calls =
    match r.Job.flow with
    | Some f -> (f.Cec.final_cost, f.Cec.sat.Sweeper.calls + f.Cec.po_calls)
    | None -> (0, 0)
  in
  [
    ("status", String (Job.status_to_string r.Job.status));
    ("final_cost", Int final_cost);
    ("sat_calls", Int sat_calls);
    ("cache_hits", Int r.Job.cache_hits);
    ("cache_added", Int r.Job.cache_added);
    ("attempts", Int r.Job.attempts);
    ("worker", Int r.Job.worker);
    ("time", Float r.Job.time);
  ]
  @ verdict

let job_succeeded (r : Job.result) =
  match r.Job.status with
  | Job.Equivalent | Job.Not_equivalent _ | Job.Swept -> true
  | Job.Inconclusive _ | Job.Budget_exhausted _ | Job.Failed _ -> false

(* Run one job spec, mirroring its telemetry to the daemon sink and to
   the requesting client, and adding its cut-check counts to the
   daemon's. *)
let run_job t ?on_event ~worker spec =
  let sink =
    Events.callback (fun e ->
        (match e.Events.payload with
         | Events.Fun_cache_stats s -> Fun_cache.add t.fun_cache s
         | Queued | Started _ | Lint _ | Cache_replay _ | Random_round _
         | Guided_round _ | Sat_sweep _ | Fault _ | Retry _ | Degrade _
         | Quarantine _ | Certificate _ | Finished _ ->
             ());
        Events.emit t.telemetry ~job:e.Events.job ~label:e.Events.label
          e.Events.payload;
        match on_event with
        | None -> ()
        | Some f -> f (Events.json e))
  in
  let r =
    Exec.run ?cache:t.pattern_cache ~cancel:t.cancel ~events:sink ~worker spec
  in
  if job_succeeded r then Shared.Atomic.incr t.jobs_ok
  else Shared.Atomic.incr t.jobs_err;
  r

let circuit_extensions = [ ".blif"; ".bench"; ".aag"; ".cnf"; ".dimacs" ]

let lint_fields target =
  let from_file =
    Sys.file_exists target
    || String.contains target '/'
    || List.exists (Filename.check_suffix target) circuit_extensions
  in
  let diags =
    if from_file then Lint.file target
    else Simgen_check.Net_lint.run (Job.load (Job.Suite target))
  in
  let errors, warnings, infos = Diagnostic.counts diags in
  let open Protocol in
  [
    ("target", String target);
    ("errors", Int errors);
    ("warnings", Int warnings);
    ("infos", Int infos);
    ("diagnostics", List (List.map Diagnostic.json (Diagnostic.sort diags)));
  ]

let stats_fields t =
  let open Protocol in
  let base =
    [
      ("uptime", Float (Timer.now () -. t.started));
      ("workers", Int t.workers);
      ("requests", Int (Shared.Atomic.get t.requests));
      ("jobs_ok", Int (Shared.Atomic.get t.jobs_ok));
      ("jobs_err", Int (Shared.Atomic.get t.jobs_err));
      ("queue_depth", Int (Shared.Atomic.get t.queue_depth));
      ("max_queue", Int t.max_queue);
      ("shed", Int (Shared.Atomic.get t.shed));
      ("deadline_expired", Int (Shared.Atomic.get t.deadline_expired));
    ]
  in
  let patterns =
    match t.pattern_cache with
    | None -> []
    | Some pc ->
        [
          ( "pattern_cache",
            Obj
              [
                ("hits", Int (Pattern_cache.hits pc));
                ("misses", Int (Pattern_cache.misses pc));
                ("size", Int (Pattern_cache.size pc));
                ("dropped", Int (Pattern_cache.dropped pc));
              ] );
        ]
  in
  let fc = Fun_cache.stats t.fun_cache in
  let fun_cache =
    ( "fun_cache",
      Obj
        [
          ("consults", Int fc.Fun_cache.consults);
          ("hits", Int fc.Fun_cache.hits);
          ("misses", Int fc.Fun_cache.misses);
          ("local_proofs", Int fc.Fun_cache.local_proofs);
          ("local_cexes", Int fc.Fun_cache.local_cexes);
        ] )
  in
  base @ patterns @ [ fun_cache ]

let handle t ?on_event req =
  Shared.Atomic.incr t.requests;
  let open Protocol in
  try
    match req with
    | Ping ->
        Result
          [
            ("status", String "ok");
            ("pid", Int (Unix.getpid ()));
            ("protocol", Int Protocol.version);
          ]
    | Stats -> Result (stats_fields t)
    | Shutdown ->
        request_shutdown t;
        Result [ ("status", String "shutting-down") ]
    | Lint { target } -> Result (lint_fields target)
    | Job { cmd; args; deadline_ms } ->
        if Shared.Atomic.get t.stop then Failed "server is shutting down"
        else (
          match spec_of_job ~id:0 cmd args with
          | Error msg -> Failed msg
          | Ok spec ->
              (* Synchronous path: nothing queues, so the whole wire
                 deadline is available to the job. *)
              let spec =
                match deadline_ms with
                | Some ms -> clamp_deadline spec (float_of_int ms /. 1000.)
                | None -> spec
              in
              Result (result_fields (run_job t ?on_event ~worker:0 spec)))
  with
  | Failure msg -> Failed msg
  | exn -> Failed (Printexc.to_string exn)

(* ------------------------------------------------------------------ *)
(* The socket daemon                                                   *)
(* ------------------------------------------------------------------ *)

(* One connected client. [wmutex] serialises frame writes (worker
   domains stream events concurrently) and guards [alive]/[inflight]
   (cells, so the detector can check that); the main loop owns [rbuf]
   and [eof]. *)
type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;
  wmutex : Shared.Mutex.t;
  alive : bool Shared.Cell.t;
  inflight : int Shared.Cell.t;
  mutable eof : bool;
}

let with_lock m f = Shared.Mutex.with_lock m f

let write_all fd s =
  let data = Bytes.of_string s in
  let n = Bytes.length data in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd data !off (n - !off)
  done

let write_line conn line =
  with_lock conn.wmutex (fun () ->
      (* Service-level fault sites, probed with the write lock held so an
         injected drop/stall interleaves with concurrent event writers
         exactly like a real one. [slow-client] models a reader that has
         stopped draining its socket; [conn-drop] a peer that vanished
         mid-stream. *)
      if Fault.enabled () && Fault.fire "slow-client" then Unix.sleepf 0.05;
      if Fault.enabled () && Fault.fire "conn-drop" then begin
        Shared.Cell.set ~at:(Shared.here __POS__) conn.alive false;
        try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ()
      end;
      if Shared.Cell.get ~at:(Shared.here __POS__) conn.alive then
        try write_all conn.fd (line ^ "\n")
        with Unix.Unix_error _ | Sys_error _ ->
          Shared.Cell.set ~at:(Shared.here __POS__) conn.alive false)

let write_frame conn ~id frame =
  write_line conn (Protocol.frame_to_line ~id frame)

(* [deadline] is absolute ([Timer.now]-based), set at admission: the
   client's budget covers queueing, so a task can expire on the queue. *)
type task = { conn : conn; id : int; spec : Job.spec; deadline : float option }

type queue = {
  tasks : task Queue.t;
  tasks_shadow : unit Shared.Cell.t;  (* written on push/pop, read on empty-check *)
  qmutex : Shared.Mutex.t;
  qcond : Shared.Condition.t;
}

(* Admission control: refuse (rather than buffer without bound) once
   [max_queue] jobs are waiting. Returns [false] on refusal; the caller
   answers [Overloaded]. In-flight jobs don't count — the bound is on
   latency the queue adds, not on concurrency. *)
let enqueue t q task =
  with_lock q.qmutex (fun () ->
      if Queue.length q.tasks >= t.max_queue then false
      else begin
        Shared.Cell.set ~at:(Shared.here __POS__) q.tasks_shadow ();
        Queue.push task q.tasks;
        Shared.Atomic.set t.queue_depth (Queue.length q.tasks);
        Shared.Condition.signal q.qcond;
        true
      end)

(* Blocks until a task is available; [None] once the drain flag is set
   and the queue is empty (queued tasks are still answered during a
   drain — the shared cancellation token makes them return quickly). *)
let dequeue t q =
  with_lock q.qmutex (fun () ->
      let rec wait () =
        ignore (Shared.Cell.get ~at:(Shared.here __POS__) q.tasks_shadow);
        if not (Queue.is_empty q.tasks) then begin
          Shared.Cell.set ~at:(Shared.here __POS__) q.tasks_shadow ();
          let task = Queue.pop q.tasks in
          Shared.Atomic.set t.queue_depth (Queue.length q.tasks);
          Some task
        end
        else if Shared.Atomic.get t.stop then None
        else begin
          Shared.Condition.wait q.qcond q.qmutex;
          wait ()
        end
      in
      wait ())

let task_done conn =
  with_lock conn.wmutex (fun () ->
      Shared.Cell.add ~at:(Shared.here __POS__) conn.inflight (-1))

let worker_loop t q i =
  let rec loop () =
    match dequeue t q with
    | None -> ()
    | Some { conn; id; spec; deadline } ->
        let frame =
          (* Shed rather than dispatch a job whose deadline passed while
             it queued: running it would answer late AND hold a worker
             other (still-meetable) deadlines are waiting on. *)
          match deadline with
          | Some d when Timer.now () >= d ->
              Shared.Atomic.incr t.deadline_expired;
              Protocol.Result (deadline_expired_fields ~shed:true)
          | _ ->
              let spec =
                match deadline with
                | Some d -> clamp_deadline spec (d -. Timer.now ())
                | None -> spec
              in
              (try
                 let on_event j = write_frame conn ~id (Protocol.Event j) in
                 let r = run_job t ~on_event ~worker:i spec in
                 (match r.Job.status with
                  | Job.Budget_exhausted Budget.Deadline ->
                      if deadline <> None then
                        Shared.Atomic.incr t.deadline_expired
                  | Job.Budget_exhausted
                      (Budget.Watchdog | Budget.Sat_calls | Budget.Cancelled)
                  | Job.Equivalent | Job.Not_equivalent _ | Job.Inconclusive _
                  | Job.Swept | Job.Failed _ -> ());
                 Protocol.Result (result_fields r)
               with
               | Failure msg -> Protocol.Failed msg
               | exn -> Protocol.Failed (Printexc.to_string exn))
        in
        write_frame conn ~id frame;
        task_done conn;
        loop ()
  in
  loop ()

(* Split complete lines off the connection's read buffer. *)
let drain_lines conn =
  let data = Buffer.contents conn.rbuf in
  let lines = ref [] in
  let start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        lines := String.sub data !start (i - !start) :: !lines;
        start := i + 1
      end)
    data;
  Buffer.clear conn.rbuf;
  Buffer.add_substring conn.rbuf data !start (String.length data - !start);
  List.rev !lines

(* The retry-after hint when shedding: a full queue clears in roughly
   (depth / workers) × typical-job-time; with job times unknown, a small
   multiple of the per-worker backlog bounded away from zero is an
   honest, cheap estimate. *)
let retry_after_hint t =
  let backlog = float_of_int t.max_queue /. float_of_int t.workers in
  Float.min 2.0 (Float.max 0.05 (0.05 *. backlog))

let handle_line t q conn line =
  let line = String.trim line in
  if line <> "" then
    match Protocol.request_of_line line with
    | Error msg -> write_frame conn ~id:0 (Protocol.Failed msg)
    | Ok (id, Protocol.Job { cmd; args; deadline_ms }) ->
        Shared.Atomic.incr t.requests;
        if Shared.Atomic.get t.stop then
          write_frame conn ~id (Protocol.Failed "server is shutting down")
        else (
          match spec_of_job ~id cmd args with
          | Error msg -> write_frame conn ~id (Protocol.Failed msg)
          | Ok spec ->
              let deadline =
                match deadline_ms with
                | Some ms -> Some (Timer.now () +. (float_of_int ms /. 1000.))
                | None -> None
              in
              with_lock conn.wmutex (fun () ->
                  Shared.Cell.incr ~at:(Shared.here __POS__) conn.inflight);
              if not (enqueue t q { conn; id; spec; deadline }) then begin
                Shared.Atomic.incr t.shed;
                write_frame conn ~id
                  (Protocol.Overloaded { retry_after = retry_after_hint t });
                task_done conn
              end)
    | Ok
        ( id,
          ((Protocol.Ping | Protocol.Stats | Protocol.Shutdown | Protocol.Lint _)
           as req) ) -> write_frame conn ~id (handle t req)

let read_chunk t q conn =
  let buf = Bytes.create 4096 in
  match Unix.read conn.fd buf 0 (Bytes.length buf) with
  | 0 -> conn.eof <- true
  | n ->
      Buffer.add_subbytes conn.rbuf buf 0 n;
      List.iter (handle_line t q conn) (drain_lines conn)
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      conn.eof <- true

let close_conn conn =
  with_lock conn.wmutex (fun () ->
      Shared.Cell.set ~at:(Shared.here __POS__) conn.alive false);
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let serve t ~socket =
  (try Unix.unlink socket with Unix.Unix_error _ | Sys_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 16;
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  ignore
    (Sys.signal Sys.sigterm
       (Sys.Signal_handle (fun _ -> request_shutdown t)));
  let qloc = Shared.here __POS__ in
  let q =
    {
      tasks = Queue.create ();
      tasks_shadow = Shared.Cell.make ~loc:qloc "serve.queue.tasks" ();
      qmutex = Shared.Mutex.create ~loc:qloc "serve.queue.lock";
      qcond = Shared.Condition.create ();
    }
  in
  let domains =
    List.init t.workers (fun i ->
        Shared.spawn ~loc:(Shared.here __POS__) (fun () -> worker_loop t q i))
  in
  let conns = ref [] in
  while not (Shared.Atomic.get t.stop) do
    let live = List.filter (fun c -> not c.eof) !conns in
    let fds = listen_fd :: List.map (fun c -> c.fd) live in
    (match Unix.select fds [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = listen_fd then begin
              match Unix.accept listen_fd with
              | client, _ ->
                  conns :=
                    (let cloc = Shared.here __POS__ in
                     {
                       fd = client;
                       rbuf = Buffer.create 256;
                       wmutex = Shared.Mutex.create ~loc:cloc "serve.conn.wmutex";
                       alive = Shared.Cell.make ~loc:cloc "serve.conn.alive" true;
                       inflight =
                         Shared.Cell.make ~loc:cloc "serve.conn.inflight" 0;
                       eof = false;
                     })
                    :: !conns
              | exception Unix.Unix_error _ -> ()
            end
            else
              match List.find_opt (fun c -> c.fd = fd) live with
              | Some conn -> read_chunk t q conn
              | None -> ())
          readable);
    (* Reap clients that disconnected and have no jobs in flight. *)
    let gone, keep =
      List.partition
        (fun c ->
          c.eof
          && with_lock c.wmutex (fun () ->
                 Shared.Cell.get ~at:(Shared.here __POS__) c.inflight <= 0))
        !conns
    in
    List.iter close_conn gone;
    conns := keep
  done;
  (* Drain: stop accepting, wake the workers, let queued and in-flight
     jobs finish (the cancellation token trips their budgets), answer
     everything, then tear down — the same shape as the batch runner's
     SIGINT path. *)
  with_lock q.qmutex (fun () -> Shared.Condition.broadcast q.qcond);
  List.iter Shared.join domains;
  List.iter close_conn !conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  try Unix.unlink socket with Unix.Unix_error _ | Sys_error _ -> ()
