(* In-memory span recorder for the traced runs.

   A span is one timed call into a layer, named after the layer's module
   ([core.guided], [sweep.sat_sweep], ...). Spans of one instance share a
   [trace] id; [parent] is the enclosing span (-1 for an instance's root).
   Untraced runs never call into this module: they call the library
   directly, so end-to-end numbers carry no tracing cost at all. The
   recorder is single-domain; the serve workload's client domains keep
   their own timestamps and the main domain turns them into spans. *)

type t = {
  trace : int;
  id : int;
  parent : int;
  name : string;
  start : float;
  stop : float;
}

let now = Unix.gettimeofday
let recorded : t list ref = ref []
let next_id = ref 0
let next_trace = ref 0
let current_trace = ref 0
let stack : int list ref = ref []

let new_trace () =
  incr next_trace;
  !next_trace

(* Record a span whose times were measured elsewhere; returns its id. *)
let add ~trace ~parent ~name ~start ~stop =
  let id = !next_id in
  incr next_id;
  recorded := { trace; id; parent; name; start; stop } :: !recorded;
  id

(* Time [f] as a span named [name], nested under the innermost open span.
   The span is recorded when [f] returns or raises. *)
let with_ name f =
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let id = !next_id in
  incr next_id;
  stack := id :: !stack;
  let start = now () in
  let finish () =
    stack := List.tl !stack;
    recorded :=
      { trace = !current_trace; id; parent; name; start; stop = now () }
      :: !recorded
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

(* The root span of one instance, under a fresh trace id. *)
let instance name f =
  current_trace := new_trace ();
  with_ name f

let take () =
  let spans = List.rev !recorded in
  recorded := [];
  spans

let duration s = s.stop -. s.start

(* Each span paired with its self time: its duration minus the durations
   of its direct children (children never outlive their parent). *)
let self_times spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      ( s,
        duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
      ))
    spans

let to_json s =
  Printf.sprintf
    "{\"trace\":%d,\"id\":%d,\"parent\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f}"
    s.trace s.id s.parent s.name s.start s.stop

let write_jsonl path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (to_json s);
      output_char oc '\n')
    spans;
  close_out oc
