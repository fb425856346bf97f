(* The metric table: every number the benchmark reports, with its unit,
   its direction and, for an end-to-end metric, its regression bound.

   BENCHMARK.json at the repository root lists the metrics that every
   workload reports, end to end and per layer; a run's last line holds
   exactly those, and they are read from that file, nowhere else. [extra]
   holds the rest: end-to-end metrics that only some workloads have, and
   per-layer metrics that are printed and recorded but not listed. Which
   end-to-end metric each per-layer one should move is in README.md. *)

module Protocol = Simgen_serve.Protocol

type better = Lower | Higher

type t = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;
      (** [Some b] for an end-to-end metric: the allowed worsening as a
          share of the baseline median, 0 meaning it must not change at
          all (deterministic per seed); [None] for a per-layer metric *)
}

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ better = { name; unit_; better; bound = None }

let extra =
  [
    (* End to end but not listed: error_rate is 0 when all is well,
       which no listed metric may be; instance_s.p50 equals or tracks
       wall_s where a workload has one or two instances; the rest are
       workload-specific. *)
    e2e "error_rate" "fraction" Lower 0.0;
    e2e "instance_s.p50" "s" Lower 0.25;
    e2e "cost" "count" Lower 0.0;
    e2e "cost_ratio" "ratio" Lower 0.0;
    (* A ratio within one run cancels the machine's slow spells. *)
    e2e "time_ratio" "ratio" Lower 0.1;
    e2e "sat_calls" "count" Lower 0.0;
    e2e "eq_s.p50" "s" Lower 0.25;
    e2e "neq_s.p50" "s" Lower 0.25;
    e2e "req_s.p50" "s" Lower 0.25;
    e2e "req_s.p75" "s" Lower 0.25;
    e2e "warm_speedup" "ratio" Higher 0.25;
    (* Per layer, and the machine's slowdown (see [Machine]). *)
    layer "machine.slowdown" "ratio" Lower;
    layer "setup.mutate_s" "s" Lower;
    layer "core.implications" "count" Lower;
    layer "core.decisions" "count" Lower;
    layer "core.implications_per_s" "1/s" Higher;
    layer "sweep.create_s" "s" Lower;
    layer "sweep.sat_sweep_s" "s" Lower;
    layer "sweep.disproved_frac" "fraction" Lower;
    layer "session.encoded" "count" Lower;
    layer "session.reencoded" "count" Lower;
    layer "session.rebuilds" "count" Lower;
    layer "ladder.unknowns" "count" Lower;
    layer "ladder.fallbacks" "count" Lower;
    layer "sat.props_per_s" "1/s" Higher;
    layer "cec.join_s" "s" Lower;
    layer "cec.po_s" "s" Lower;
    layer "cec.pre_po_s" "s" Lower;
    layer "serve.job_s.p50" "s" Lower;
    layer "serve.wait_s.p50" "s" Lower;
    layer "serve.wait_s.p75" "s" Lower;
    layer "fun_cache.hit_rate" "fraction" Higher;
    layer "fun_cache.local_proofs" "count" Higher;
    layer "fun_cache.collisions" "count" Lower;
    layer "pattern_cache.hits" "count" Higher;
  ]

(* A numeric field of a JSON object (0 when absent). *)
let json_num key j =
  match Protocol.member key j with
  | Some (Protocol.Int i) -> float_of_int i
  | Some (Protocol.Float f) -> f
  | Some (Protocol.Null | Protocol.Bool _ | Protocol.String _ | Protocol.List _ | Protocol.Obj _)
  | None ->
      0.0

let benchmark_json = "BENCHMARK.json"

(* The parsed file and its [end_to_end] then [per_layer] entries, in file
   order. *)
let load path =
  let parse text =
    let ( let* ) = Result.bind in
    let* j = Protocol.parse text in
    let list key =
      match Protocol.member key j with
      | Some (Protocol.List l) -> Ok l
      | Some (Protocol.Null | Protocol.Bool _ | Protocol.Int _ | Protocol.Float _
             | Protocol.String _ | Protocol.Obj _)
      | None ->
          Error ("no list " ^ key)
    in
    let entry ~e2e o =
      let field k = Protocol.string_member k o in
      match (field "name", field "unit", field "better") with
      | Some name, Some unit_, Some b when b = "lower" || b = "higher" ->
          let better = if b = "lower" then Lower else Higher in
          Ok
            {
              name;
              unit_;
              better;
              bound = (if e2e then Some (json_num "bound" o) else None);
            }
      | (None | Some _), (None | Some _), (None | Some _) ->
          Error ("bad metric entry " ^ Protocol.to_string o)
    in
    let entries key ~e2e =
      let* l = list key in
      List.fold_right
        (fun o acc ->
          let* m = entry ~e2e o in
          let* ms = acc in
          Ok (m :: ms))
        l (Ok [])
    in
    let* ends = entries "end_to_end" ~e2e:true in
    let* layers = entries "per_layer" ~e2e:false in
    Ok (j, ends @ layers)
  in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> Result.map_error (fun msg -> path ^ ": " ^ msg) (parse text)

let loaded =
  lazy
    (match load benchmark_json with
     | Ok (_, ms) -> ms
     | Error msg ->
         prerr_endline msg;
         exit 2)

(* The metrics BENCHMARK.json lists. *)
let listed () = Lazy.force loaded

let all () = listed () @ extra

let find name = List.find_opt (fun m -> m.name = name) (all ())

let is_e2e m = Option.is_some m.bound

(* One reported number; [n] is the sample count behind a median or
   percentile (1 for a single measurement). *)
type value = { metric : string; value : float; n : int }

let v ?(n = 1) metric value = { metric; value; n }

let unit_of name =
  match find name with Some m -> m.unit_ | None -> invalid_arg ("unknown metric " ^ name)

(* Full precision, and never a non-number: JSON has no NaN. *)
let number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_line workload { metric; value; n } =
  Printf.printf "%-14s %-26s %-14.6g %-9s%s\n" workload metric value
    (unit_of metric)
    (if n > 1 then Printf.sprintf " n=%d" n else "")
