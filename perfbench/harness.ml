(* What every workload shares: the set-up and measurement loops, the
   result record, peak memory, and the conversion of a traced pass (spans
   plus counters) into per-layer metrics. *)

module N = Simgen_network.Network
module Rng = Simgen_base.Rng
module Simulator = Simgen_sim.Simulator
module Eq_classes = Simgen_sim.Eq_classes

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* A measured interval of wall-clock time; [seconds] is its length at the
   reference speed (see [Machine]), which is how every end-to-end time is
   reported. *)
type clock = { start : float; stop : float }

let clocked f =
  let start = now () in
  let r = f () in
  (r, { start; stop = now () })

let seconds c = Machine.seconds ~start:c.start ~stop:c.stop

type params = {
  seed : int;
  seconds : float;  (** measurement time; at least one pass always runs *)
  trace : bool;
  smoke : bool;  (** tiny inputs, one set-up, one pass *)
}

type result = {
  attempted : int;  (** instances run, over every pass *)
  failed : int;  (** instances with a wrong, missing or failed verdict *)
  problems : string list;  (** anything else that makes the run incorrect *)
  values : Metrics.value list;
}

(* Run [pass] at least [min_passes] times, and more while another pass,
   as long as the longest so far, still ends within [seconds]. *)
let repeat_for ~min_passes seconds pass =
  let t0 = now () in
  let rec go n longest acc =
    let p0 = now () in
    let acc = pass () :: acc in
    let t = now () in
    let longest = Float.max longest (t -. p0) in
    if n + 1 >= min_passes && t -. t0 +. longest > seconds then List.rev acc
    else go (n + 1) longest acc
  in
  go 0 0.0 []

let last l = List.nth l (List.length l - 1)

(* Each instance's median time over the passes, given each pass's times
   in instance order. How many passes fit in a run depends on the
   machine's speed, and a fastest-of-n would move with n. *)
let typical passes =
  match passes with
  | [] -> []
  | first :: _ ->
      List.mapi (fun i _ -> Stats.median (List.map (fun pass -> List.nth pass i) passes)) first

(* VmHWM: the peak resident set of this process, or of [pid], in MB. *)
let peak_rss_mb ?pid () =
  let ic =
    open_in
      (match pid with
       | Some pid -> Printf.sprintf "/proc/%d/status" pid
       | None -> "/proc/self/status")
  in
  let rec scan () =
    match input_line ic with
    | line -> (
        match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
        | kb -> float_of_int kb /. 1024.0
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> scan ())
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

(* Counters of one traced pass, keyed by metric name and summed. *)
type counters = (string, float) Hashtbl.t

let counters () : counters =
  let c = Hashtbl.create 32 in
  (* Counts listed in BENCHMARK.json exist on every workload, as 0 where
     the layer does not run (there is no SAT in table1-guided, for
     instance). *)
  List.iter
    (fun m ->
      if (not (Metrics.is_e2e m)) && m.Metrics.unit_ = "count" then
        Hashtbl.replace c m.Metrics.name 0.0)
    (Metrics.listed ());
  c

let bump (c : counters) name x =
  Hashtbl.replace c name
    (x +. Option.value ~default:0.0 (Hashtbl.find_opt c name))

let bumpi c name n = bump c name (float_of_int n)

(* Which share a span's self time counts towards. Root spans
   ([*.instance], [serve.request]) are deliberately absent: their self
   time is what no layer span covers. *)
let share_of = function
  | "cec.join" | "sweep.create" | "serve.prepare" -> Some "share.prepare"
  | "sim.random" -> Some "share.random"
  | "core.guided" -> Some "share.guided"
  | "sweep.sat_sweep" -> Some "share.sweep"
  | "cec.po" | "sweep.verify_pair" | "sweep.merge" | "sim.apply_vector" ->
      Some "share.po"
  | "serve.wait" | "serve.tail" -> Some "share.wait"
  | _ -> None

let shares = [ "share.prepare"; "share.random"; "share.guided"; "share.sweep"; "share.po"; "share.wait" ]

(* Span-derived metrics of one traced pass, added to its counters. *)
let add_span_metrics (c : counters) spans =
  let total =
    Stats.sum
      (List.filter_map
         (fun s -> if s.Span.parent < 0 then Some (Span.duration s) else None)
         spans)
  in
  let by_name name =
    List.filter_map
      (fun s -> if s.Span.name = name then Some (Span.duration s) else None)
      spans
  in
  let seconds metric name =
    match by_name name with [] -> () | ds -> bump c metric (Stats.sum ds)
  in
  seconds "sim.random_s" "sim.random";
  seconds "core.guided_s" "core.guided";
  seconds "sweep.create_s" "sweep.create";
  seconds "sweep.sat_sweep_s" "sweep.sat_sweep";
  seconds "cec.join_s" "cec.join";
  seconds "cec.po_s" "cec.po";
  (match by_name "core.guided" with
   | [] -> ()
   | rounds ->
       Hashtbl.replace c "core.round_s.p50" (Stats.median rounds);
       Hashtbl.replace c "core.round_s.max" (List.fold_left Float.max 0.0 rounds));
  List.iter (fun sh -> Hashtbl.replace c sh 0.0) shares;
  Hashtbl.replace c "trace.unattributed_frac" 0.0;
  List.iter
    (fun (s, self) ->
      let key =
        if s.Span.parent < 0 then Some "trace.unattributed_frac"
        else share_of s.Span.name
      in
      Option.iter (fun k -> bump c k (Stats.ratio self total)) key)
    (Span.self_times spans)

(* Ratios derived from a pass's summed counters. *)
let add_derived (c : counters) =
  let get k = Option.value ~default:0.0 (Hashtbl.find_opt c k) in
  let set_ratio k num den =
    if Hashtbl.mem c num && Hashtbl.mem c den then
      Hashtbl.replace c k (Stats.ratio (get num) (get den))
  in
  Hashtbl.replace c "core.useful_frac"
    (Stats.ratio (get "core.vectors") (get "core.vectors" +. get "core.skipped"));
  set_ratio "core.implications_per_s" "core.implications" "core.guided_s";
  if get "sweep.calls" > 0.0 then begin
    set_ratio "sweep.disproved_frac" "sweep.disproved" "sweep.calls";
    set_ratio "sat.props_per_s" "sat.propagations" "sweep.sat_sweep_s"
  end

(* Every span of the run, for [--spans]. *)
let kept_spans : Span.t list ref = ref []

(* One traced pass: [f] runs the instances under spans and bumps the
   counters it is given; the pass's spans then become per-layer
   metrics. *)
let traced_pass f =
  let c = counters () in
  let insts = f c in
  let spans = Span.take () in
  kept_spans := !kept_spans @ spans;
  add_span_metrics c spans;
  add_derived c;
  (insts, c)

(* Set-up, untraced passes, then, under [--trace 1], traced ones; the
   two halves run the same instances, so their results must agree
   exactly. Returns every set-up's [(seconds, result)], the last of which
   the passes run on, the untraced passes and the traced ones.

   Set-up runs at least three times and for about two seconds; set-up
   time is the median over those, at the reference speed, so work moved
   into set-up shows.

   The machine's speed is sampled in this process (see [Machine]), except
   during passes whose work runs in another process ([remote]), which
   samples itself: a sample here would run on a client, delaying its next
   request, rather than beside the work. *)
let measure ?(remote = false) p ~setup ~untraced ~traced =
  Machine.arm ();
  let setups, plain, traced =
    Fun.protect ~finally:Machine.disarm (fun () ->
        let setups =
          repeat_for
            ~min_passes:(if p.smoke then 1 else 3)
            (if p.smoke then 0.0 else 2.0)
            (fun () ->
              let r, c = clocked setup in
              (c, r))
        in
        if remote then Machine.disarm ();
        let s = snd (last setups) in
        (* A traced run splits its time between the two halves. *)
        let budget = if p.trace then p.seconds /. 2.0 else p.seconds in
        let plain = repeat_for ~min_passes:1 budget (fun () -> untraced s) in
        let traced =
          if p.trace then repeat_for ~min_passes:1 budget (fun () -> traced_pass (traced s))
          else []
        in
        (setups, plain, traced))
  in
  (List.map (fun (c, r) -> (seconds c, r)) setups, plain, traced)

(* Medians over the traced passes of every per-layer metric. *)
let layer_values (passes : counters list) =
  let names =
    List.sort_uniq compare
      (List.concat_map (fun c -> List.of_seq (Hashtbl.to_seq_keys c)) passes)
  in
  List.map
    (fun name ->
      let xs = List.filter_map (fun c -> Hashtbl.find_opt c name) passes in
      Metrics.v ~n:(List.length xs) name (Stats.median xs))
    names

(* Word-simulation and class-refinement cost, timed directly on the
   networks a workload sweeps: 256 random words per network. *)
let sim_microbench rng nets =
  let words = 256 in
  let sim = ref 0.0 and refine = ref 0.0 and gate_words = ref 0 in
  List.iter
    (fun net ->
      let eq = Eq_classes.create net in
      for _ = 1 to words do
        let input = Simulator.random_word rng net in
        let nodes, ts = timed (fun () -> Simulator.simulate_word net input) in
        let (), tr = timed (fun () -> Eq_classes.refine_word eq nodes) in
        sim := !sim +. ts;
        refine := !refine +. tr
      done;
      gate_words := !gate_words + (words * N.num_gates net))
    nets;
  let per x = x *. 1e9 /. float_of_int (max 1 !gate_words) in
  [
    Metrics.v "sim.ns_per_gate_word" (per !sim);
    Metrics.v "sim.refine_ns_per_gate" (per !refine);
  ]

(* Metrics every workload reports the same way, from each instance's
   median time over [passes] untraced passes. The wall time is the sum
   of those unless the workload builds it otherwise ([wall], for rounds
   whose requests overlap), and the peak memory is this process's unless
   given ([peak], for a daemon's). *)
let common ?wall ?peak ~passes ~setup_times ~map_times ~luts fast =
  let n = List.length in
  [
    Metrics.v ~n:passes "wall_s" (Option.value wall ~default:(Stats.sum fast));
    Metrics.v ~n:(n fast) "instance_s.p50" (Stats.median fast);
    Metrics.v ~n:(n setup_times) "setup_s" (Stats.median setup_times);
    Metrics.v "peak_rss_mb" (match peak with Some p -> p | None -> peak_rss_mb ());
    (let slowdown, samples = Machine.run_slowdown () in
     Metrics.v ~n:samples "machine.slowdown" slowdown);
    Metrics.v ~n:(n map_times) "mapping.map_s" (Stats.median map_times);
    Metrics.v "mapping.luts" (float_of_int luts);
  ]

(* The traced half of a run: per-layer medians over the traced passes,
   the simulation micro-benchmark on [nets], and the tracing overhead:
   the traced instances' median times over the untraced ones'. Empty
   for an untraced run. *)
let traced_values p ~times ~traced_times ~layers ~nets =
  match traced_times with
  | [] -> []
  | _ ->
      layer_values layers
      @ sim_microbench (Rng.create p.seed) nets
      @ [
          Metrics.v ~n:(List.length traced_times) "trace.overhead"
            (Stats.ratio (Stats.sum (typical traced_times)) (Stats.sum (typical times)));
        ]

(* Each pass's value of [f] for every instance. *)
let per_pass f passes = List.map (List.map f) passes

let add_guided c (d : Simgen_sweep.Sweeper.guided_stats) =
  bumpi c "core.implications" d.implications;
  bumpi c "core.decisions" d.decisions;
  bumpi c "core.gen_conflicts" d.gen_conflicts;
  bumpi c "core.vectors" d.vectors;
  bumpi c "core.skipped" d.skipped
