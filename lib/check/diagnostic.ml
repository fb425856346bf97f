module Srcloc = Simgen_base.Srcloc
module Json = Simgen_base.Json

type severity = Error | Warning | Info

type location =
  | Node of int
  | Clause of int
  | Named of string
  | Src of Srcloc.t
  | Nowhere

type t = {
  code : string;
  severity : severity;
  loc : location;
  message : string;
}

let make severity ?(loc = Nowhere) code fmt =
  Format.kasprintf (fun message -> { code; severity; loc; message }) fmt

let error ?loc code fmt = make Error ?loc code fmt
let warn ?loc code fmt = make Warning ?loc code fmt
let info ?loc code fmt = make Info ?loc code fmt

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let max_severity = function
  | [] -> None
  | ds ->
      Some
        (List.fold_left
           (fun acc d ->
             if severity_rank d.severity > severity_rank acc then d.severity
             else acc)
           Info ds)

let counts ds =
  List.fold_left
    (fun (e, w, i) d ->
      match d.severity with
      | Error -> (e + 1, w, i)
      | Warning -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) ds

let exit_code ds =
  match max_severity ds with
  | Some Error -> 2
  | Some Warning -> 1
  | Some Info | None -> 0

let sort ds =
  List.stable_sort
    (fun a b ->
      let c = compare (severity_rank b.severity) (severity_rank a.severity) in
      if c <> 0 then c else compare a.code b.code)
    ds

let loc_to_string = function
  | Node id -> Printf.sprintf "node %d" id
  | Clause i -> Printf.sprintf "clause %d" i
  | Named n -> n
  | Src l -> Option.value ~default:"" (Srcloc.to_string l)
  | Nowhere -> ""

let to_string d =
  let loc = loc_to_string d.loc in
  if loc = "" then
    Printf.sprintf "%s %s: %s" d.code (severity_name d.severity) d.message
  else
    Printf.sprintf "%s %s %s: %s" d.code (severity_name d.severity) loc
      d.message

let pp fmt d = Format.pp_print_string fmt (to_string d)

let loc_json : location -> Json.t = function
  | Node id -> Obj [ ("node", Int id) ]
  | Clause i -> Obj [ ("clause", Int i) ]
  | Named n -> Obj [ ("name", String n) ]
  | Src l ->
      Obj
        (List.filter_map Fun.id
           [
             Option.map (fun f -> ("file", Json.String f)) l.Srcloc.file;
             Option.map (fun n -> ("line", Json.Int n)) l.Srcloc.line;
           ])
  | Nowhere -> Obj []

(* Bumped whenever the JSONL shape changes; downstream telemetry
   consumers key on it. Guarded by the golden-file test in
   test/test_check.ml — update both together. *)
let schema_version = 1

let json d =
  Json.Obj
    [
      ("schema_version", Int schema_version);
      ("code", String d.code);
      ("severity", String (severity_name d.severity));
      ("loc", loc_json d.loc);
      ("message", String d.message);
    ]

let to_json d = Json.to_string (json d)

let render ?(json = false) fmt ds =
  List.iter
    (fun d ->
      if json then Format.fprintf fmt "%s@." (to_json d)
      else Format.fprintf fmt "%a@." pp d)
    (sort ds)
