(* How fast the machine runs at the moment, so that times can be reported
   at one reference speed.

   On a shared virtual machine the same code runs up to 60% slower for
   minutes at a time while other tenants are busy, and memory-bound code
   such as a sweep (simulation, hash tables, allocation) slows the most.
   Repeating work within a run cannot remove a slow spell that lasts
   longer than the run. So a run also times, four times per second of
   CPU time, a short reference workload that never calls the library:
   eight million short-lived allocations, which stream through the minor
   heap and nothing else. Its time over its typical time is the machine's
   slowdown at that moment, and an interval's length, less the samples'
   own time within it, divided by the mean slowdown around it is its
   length at the reference speed. A change to the library cannot move the
   reference, so it shows in the scaled time in full.

   Where the reference runs matters: it must interrupt the thread doing
   the work, on that thread's core. A CPU-time timer ([arm]) does that,
   since Linux sends its signal to the thread that is running when it
   expires, and OCaml runs the handler at that thread's next safe point.
   On the 2-vCPU virtual machine this benchmark was built on:

   - in a workload process, the reference tracked sweeps of flat circuits
     with a log-log slope of 0.9-1.1 and a correlation of 0.96, where a
     pointer chase or an ALU loop tracked far less. Over five-minute runs
     cut into 20-second stretches, the spread of the stretches
     (interquartile distance over the median) fell from 25% to 5% on
     table1-guided and from 14% to 3% on cec-stacked;
   - serve-repeat's work runs in its daemon's worker domain, so the
     daemon arms the timer itself and hands its samples over when it
     stops ([save], [load]). Over 24 rounds, the spread of the rounds fell
     from 13% to 6%; a sampler in a process of its own, on the other vCPU,
     brought it to 11%, and a wall-clock timer, whose signal goes to the
     process rather than to the busy thread, to 12%.

   No sample keeps anything it allocates, so peak memory is unchanged. *)

let now = Unix.gettimeofday

let reference () =
  let acc = ref 0 in
  for i = 1 to 8_000_000 do
    acc := !acc + fst (Sys.opaque_identity (i, i + 1))
  done;
  ignore (Sys.opaque_identity !acc)

(* The reference's typical time on that machine, in a workload process
   and in a serve daemon's worker, where it runs faster. They set only the
   scale of the reported times. *)
let in_process = 0.018
let in_daemon = 0.012

type sample = {
  at : float;  (** when it ended *)
  seconds : float;
  slowdown : float;  (** [seconds] over the typical time where it ran *)
}

(* This run's samples, from this process and from the daemons it ran. *)
let samples : sample list ref = ref []

let record typical ~at ~seconds = samples := { at; seconds; slowdown = seconds /. typical } :: !samples

(* A sample each time the process has used another quarter second of
   CPU. The work must make no blocking system call that a signal would
   interrupt on the thread it runs on; the signal only reaches threads
   that are running. *)
let arm () =
  Sys.set_signal Sys.sigprof
    (Sys.Signal_handle
       (fun _ ->
         let t0 = now () in
         reference ();
         let at = now () in
         record in_process ~at ~seconds:(at -. t0)));
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.25; it_value = 0.25 })

let disarm () =
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 });
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

(* A daemon writes its samples to [path] when it stops, one "END SECONDS"
   line each; [load] adds them to this run's. *)
let save path =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun s -> Printf.fprintf oc "%.6f %.9f\n" s.at s.seconds) !samples)

let load path =
  if Sys.file_exists path then
    In_channel.with_open_text path (fun ic ->
        In_channel.input_all ic |> String.split_on_char '\n'
        |> List.iter (fun line ->
               match String.split_on_char ' ' line with
               | [ at; seconds ] ->
                   record in_daemon ~at:(float_of_string at) ~seconds:(float_of_string seconds)
               | _ -> ()))

(* Samples within an interval, widened to [span] seconds about its middle
   when shorter: one sample is noisy, thirty are not, and a slow spell
   lasts minutes. *)
let span = 8.0

(* The length of [start, stop] at the reference speed. Without samples
   (a run too short to take any), its plain length. *)
let seconds ~start ~stop =
  let all = !samples in
  let own =
    List.fold_left
      (fun acc s -> acc +. Float.max 0.0 (Float.min stop s.at -. Float.max start (s.at -. s.seconds)))
      0.0 all
  in
  let mid = (start +. stop) /. 2.0 and half = Float.max (stop -. start) span /. 2.0 in
  let near = List.filter (fun s -> Float.abs (s.at -. mid) <= half) all in
  let slowdown =
    match (near, all) with
    | _ :: _, _ -> Stats.mean (List.map (fun s -> s.slowdown) near)
    | [], _ :: _ ->
        let closest a b = if Float.abs (a.at -. mid) <= Float.abs (b.at -. mid) then a else b in
        (List.fold_left closest (List.hd all) all).slowdown
    | [], [] -> 1.0
  in
  (stop -. start -. own) /. slowdown

(* The mean slowdown over the run, and the number of samples. *)
let run_slowdown () =
  match !samples with
  | [] -> (1.0, 0)
  | l -> (Stats.mean (List.map (fun s -> s.slowdown) l), List.length l)
