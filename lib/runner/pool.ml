module Timer = Simgen_base.Timer
module Shared = Simgen_base.Shared

type report = {
  results : Job.result array;
  wall_time : float;
  workers : int;
}

let run ?(workers = 1) ?(events = Events.null) ?cache ?cancel jobs =
  let jobs = Array.of_list jobs in
  Array.iter
    (fun (j : Job.spec) ->
      Events.emit events ~job:j.Job.id ~label:j.Job.label Events.Queued)
    jobs;
  let n = Array.length jobs in
  let results = Array.make n None in
  let next = Shared.Atomic.make ~loc:(Shared.here __POS__) "runner.pool.next" 0 in
  let t0 = Timer.now () in
  (* Self-scheduling: each worker pulls the next job index off a shared
     atomic counter, so long jobs do not serialize behind short ones.
     Each slot of [results] is written by exactly one domain and read only
     after the joins below — which is why [results] stays a plain array
     with no shadow cell: disjoint-slot writes are race-free by
     construction and would only false-positive the detector. *)
  let worker w =
    let rec loop () =
      let i = Shared.Atomic.fetch_and_add next 1 in
      if i < n then begin
        (* [Exec.run] never raises — its supervisor converts every attempt
           failure into a structured status. This catch-all is the last
           line of crash isolation: should that contract ever break, the
           job is recorded as [Failed] and the domain keeps pulling work
           instead of taking the whole pool down with it. *)
        (results.(i) <-
           (try Some (Exec.run ?cache ?cancel ~events ~worker:w jobs.(i))
            with e ->
              Some
                {
                  Job.spec = jobs.(i);
                  status =
                    Job.Failed
                      {
                        message = "escaped executor: " ^ Printexc.to_string e;
                        attempts = 1;
                        faults = [];
                      };
                  flow = None;
                  cache_hits = 0;
                  cache_added = 0;
                  worker = w;
                  attempts = 1;
                  quarantined = [];
                  time = 0.0;
                }));
        loop ()
      end
    in
    loop ()
  in
  let workers = max 1 workers in
  if workers = 1 || n <= 1 then worker 0
  else begin
    let spawned = min (workers - 1) (max 0 (n - 1)) in
    let domains =
      Array.init spawned (fun w ->
          Shared.spawn ~loc:(Shared.here __POS__) (fun () -> worker (w + 1)))
    in
    worker 0;
    Array.iter Shared.join domains
  end;
  {
    results =
      Array.map
        (function Some r -> r | None -> assert false (* all indices ran *))
        results;
    wall_time = Timer.now () -. t0;
    workers;
  }

let summary report =
  let ok, inconclusive, exhausted, failed =
    Array.fold_left
      (fun (ok, inc, ex, failed) (r : Job.result) ->
        match r.Job.status with
        | Job.Equivalent | Job.Not_equivalent _ | Job.Swept ->
            (ok + 1, inc, ex, failed)
        | Job.Inconclusive _ -> (ok, inc + 1, ex, failed)
        | Job.Budget_exhausted _ -> (ok, inc, ex + 1, failed)
        | Job.Failed _ -> (ok, inc, ex, failed + 1))
      (0, 0, 0, 0) report.results
  in
  let quarantined =
    Array.fold_left
      (fun acc (r : Job.result) -> acc + List.length r.Job.quarantined)
      0 report.results
  in
  Printf.sprintf
    "%d jobs on %d workers in %.3fs: %d completed, %d inconclusive, %d \
     budget-exhausted, %d failed, %d pairs quarantined"
    (Array.length report.results)
    report.workers report.wall_time ok inconclusive exhausted failed
    quarantined
