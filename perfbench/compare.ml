(* [compare A.jsonl B.jsonl]: runs recorded with [--json], parent (A)
   against change (B). One row per workload and end-to-end metric, with
   each side's median and quartiles and a label:

   - worse / better: the medians differ by more than the metric's bound;
   - same: they do not;
   - unresolved: either side's quartile spread is wider than the bound,
     so the runs cannot tell, unless every B run reads better than every
     A run;
   - exact-count metrics (bound 0) must read identically.

   Per-layer medians from traced runs follow as plain deltas. Exits 1 on
   any "worse". *)

module Protocol = Simgen_serve.Protocol

type record = { workload : string; trace : bool; values : (string * float) list }

let read path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line when String.trim line = "" -> go acc
    | line -> (
        match Protocol.parse line with
        | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
        | Ok j ->
            let values =
              match Protocol.member "metrics" j with
              | Some (Protocol.Obj fields) ->
                  List.map (fun (name, v) -> (name, Metrics.json_num "value" v)) fields
              | Some (Protocol.Null | Protocol.Bool _ | Protocol.Int _ | Protocol.Float _
                     | Protocol.String _ | Protocol.List _)
              | None ->
                  []
            in
            go
              ({
                 workload = Option.value ~default:"?" (Protocol.string_member "workload" j);
                 trace = Protocol.int_member "trace" j = Some 1;
                 values;
               }
              :: acc))
  in
  go []

let samples records ~trace workload name =
  List.filter_map
    (fun r -> if r.workload = workload && r.trace = trace then List.assoc_opt name r.values else None)
    records

(* Worsening of [b] relative to [a] as a share of [a], by direction. *)
let worsening (m : Metrics.t) a b =
  let d = if a = 0.0 then if b = a then 0.0 else Float.copy_sign infinity (b -. a) else (b -. a) /. Float.abs a in
  match m.Metrics.better with Metrics.Lower -> d | Metrics.Higher -> -.d

let label (m : Metrics.t) bound xa xb =
  let ma = Stats.median xa and mb = Stats.median xb in
  let w = worsening m ma mb in
  let every_better =
    List.for_all (fun b -> List.for_all (fun a -> worsening m a b < 0.0) xa) xb
  in
  if bound = 0.0 then
    if List.sort_uniq compare (xa @ xb) = [ ma ] then "same"
    else if Stats.spread xa > 0.0 || Stats.spread xb > 0.0 then "unresolved"
    else if w > 0.0 then "worse"
    else "better"
  else if Float.max (Stats.spread xa) (Stats.spread xb) > bound then
    if every_better then "better" else "unresolved"
  else if w > bound then "worse"
  else if w < -.bound then "better"
  else "same"

let quart xs =
  let q1, med, q3 = Stats.quartiles xs in
  Printf.sprintf "%.4g [%.4g, %.4g] n=%d" med q1 q3 (List.length xs)

let run path_a path_b =
  let a = read path_a and b = read path_b in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (a @ b))
  in
  let worse = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (m : Metrics.t) ->
          match m.Metrics.bound with
          | Some bound -> (
              (* End-to-end numbers come from untraced runs when there are
                 any: a traced run's process also holds the traced passes. *)
              let pick records =
                match samples records ~trace:false w m.Metrics.name with
                | [] -> samples records ~trace:true w m.Metrics.name
                | xs -> xs
              in
              match (pick a, pick b) with
              | [], _ | _, [] -> ()
              | xa, xb ->
                  let l = label m bound xa xb in
                  if l = "worse" then incr worse;
                  Printf.printf "%-14s %-16s A %-30s B %-30s %+7.2f%%  %s\n" w m.Metrics.name
                    (quart xa) (quart xb)
                    (100.0 *. worsening m (Stats.median xa) (Stats.median xb))
                    l)
          | None -> ())
        (Metrics.all ());
      List.iter
        (fun (m : Metrics.t) ->
          match
            ( m.Metrics.bound,
              samples a ~trace:true w m.Metrics.name,
              samples b ~trace:true w m.Metrics.name )
          with
          | None, (_ :: _ as xa), (_ :: _ as xb) ->
              let ma = Stats.median xa and mb = Stats.median xb in
              Printf.printf "%-14s   %-30s A %-12.6g B %-12.6g %s\n" w m.Metrics.name ma mb
                (if ma = 0.0 then "" else Printf.sprintf "%+.2f%%" (100.0 *. (mb -. ma) /. Float.abs ma))
          | (None | Some _), _, _ -> ())
        (Metrics.all ()))
    workloads;
  if !worse > 0 then begin
    Printf.printf "%d metric(s) worse\n" !worse;
    1
  end
  else 0
