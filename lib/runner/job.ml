module N = Simgen_network.Network
module Blif = Simgen_network.Blif
module Bench_format = Simgen_network.Bench_format
module Convert = Simgen_aig.Convert
module Aiger = Simgen_aig.Aiger
module Suite = Simgen_benchgen.Suite
module Cec = Simgen_sweep.Cec
module Sweep_options = Simgen_sweep.Sweep_options
module Fault = Simgen_fault.Fault
module Srcloc = Simgen_base.Srcloc

type circuit =
  | File of string
  | Suite of string
  | Suite_stacked of string
  | Inline of N.t

type kind = Cec of circuit * circuit | Sweep of circuit

type spec = {
  id : int;
  label : string;
  kind : kind;
  options : Sweep_options.t;
  limits : Budget.limits;
  retry : Retry_policy.t;
}

type status =
  | Equivalent
  | Not_equivalent of { po : int; vector : bool array }
  | Inconclusive of { pos : int list }
  | Swept
  | Budget_exhausted of Budget.reason
  | Failed of { message : string; attempts : int; faults : (string * int) list }

type result = {
  spec : spec;
  status : status;
  flow : Cec.report option;
  cache_hits : int;
  cache_added : int;
  worker : int;
  attempts : int;
  quarantined : (int * int) list;
  time : float;
}

let circuit_to_string = function
  | File path -> path
  | Suite name -> name
  | Suite_stacked name -> name ^ "(stacked)"
  | Inline net -> Printf.sprintf "<inline:%s>" (N.name net)

let default_label kind =
  match kind with
  | Cec (a, b) ->
      Printf.sprintf "cec %s %s" (circuit_to_string a) (circuit_to_string b)
  | Sweep c -> Printf.sprintf "sweep %s" (circuit_to_string c)

let make ?label ?(options = Sweep_options.default) ?(limits = Budget.unlimited)
    ?(retry = Retry_policy.none) ~id kind =
  let label = match label with Some l -> l | None -> default_label kind in
  { id; label; kind; options; limits; retry }

let status_to_string = function
  | Equivalent -> "equivalent"
  | Not_equivalent { po; _ } -> Printf.sprintf "not-equivalent@po%d" po
  | Inconclusive { pos } ->
      Printf.sprintf "inconclusive@po%s"
        (String.concat "," (List.map string_of_int pos))
  | Swept -> "swept"
  | Budget_exhausted reason ->
      Printf.sprintf "budget-exhausted:%s" (Budget.reason_to_string reason)
  | Failed { message; attempts; faults } ->
      let faults =
        match faults with
        | [] -> ""
        | fs ->
            Printf.sprintf " faults=%s"
              (String.concat ","
                 (List.map (fun (site, n) -> Printf.sprintf "%s*%d" site n) fs))
      in
      Printf.sprintf "failed:%s (attempt %d%s)" message attempts faults

let read_network path =
  if Filename.check_suffix path ".blif" then Blif.parse_file path
  else if Filename.check_suffix path ".bench" then Bench_format.parse_file path
  else if Filename.check_suffix path ".aag" then
    Convert.network_of_aig (Aiger.parse_file path)
  else failwith (path ^ ": unknown extension (expected .blif/.bench/.aag)")

let load circuit =
  (* The parse fault raises the same located Parse_error a truncated or
     garbled input would: the supervisor treats it like any other load
     failure and retries (one-shot in the fault matrix, so the retry
     loads cleanly). *)
  if Fault.enabled () && Fault.fire "parse" then
    raise
      (Blif.Parse_error
         ( Srcloc.in_file (circuit_to_string circuit),
           "F-parse: injected parse failure" ));
  match circuit with
  | File path -> read_network path
  | Suite name -> (
      match Suite.find name with
      | Some _ -> Suite.lut_network name
      | None -> failwith (name ^ ": unknown suite benchmark"))
  | Suite_stacked name -> (
      match Suite.find name with
      | Some _ -> Suite.stacked_lut_network name
      | None -> failwith (name ^ ": unknown suite benchmark"))
  | Inline net -> net
