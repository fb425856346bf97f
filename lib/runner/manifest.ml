module Strategy = Simgen_core.Strategy
module Sweep_options = Simgen_sweep.Sweep_options

(* One job per line:

     cec   <circuit> <circuit> [key=value ...]
     sweep <circuit>           [key=value ...]

   '#' starts a comment; blank lines are skipped. A circuit token naming
   an existing file (or carrying a known circuit extension) is loaded
   from disk; anything else must be a built-in suite benchmark name.
   The keys are those of [setters] below. *)

let is_file_token tok =
  Sys.file_exists tok
  || Filename.check_suffix tok ".blif"
  || Filename.check_suffix tok ".bench"
  || Filename.check_suffix tok ".aag"
  || String.contains tok '/'

let circuit ~line ~stacked tok =
  if is_file_token tok then Job.File tok
  else if Simgen_benchgen.Suite.find tok = None then
    failwith
      (Printf.sprintf
         "line %d: unknown circuit %S (neither a file nor a suite benchmark)"
         line tok)
  else if stacked then Job.Suite_stacked tok
  else Job.Suite tok

type options = {
  sweep : Sweep_options.t;
  stacked : bool;
  label : string option;
  limits : Budget.limits;
  retry : Retry_policy.t;
}

let default_options =
  {
    sweep = Sweep_options.default;
    stacked = false;
    label = None;
    limits = Budget.unlimited;
    (* The default backoff schedule with a single attempt: [retries=N]
       only has to raise the attempt cap, and [backoff]/[retries] compose
       in either order. *)
    retry = Retry_policy.(with_attempts 1 default);
  }

let parse_bool ~line what v =
  match String.lowercase_ascii v with
  | "true" | "yes" | "1" -> true
  | "false" | "no" | "0" -> false
  | _ -> failwith (Printf.sprintf "line %d: %s: bad boolean %S" line what v)

let parse_int ~line what v =
  match int_of_string_opt v with
  | Some n -> n
  | None -> failwith (Printf.sprintf "line %d: %s: bad integer %S" line what v)

let parse_float ~line what v =
  match float_of_string_opt v with
  | Some f -> f
  | None -> failwith (Printf.sprintf "line %d: %s: bad number %S" line what v)

(* Every key with how its value updates the options. A setter gets the
   (line, key, value) triple its error messages cite. *)
let setters =
  let int (line, key, v) = parse_int ~line key v
  and float (line, key, v) = parse_float ~line key v
  and bool (line, key, v) = parse_bool ~line key v in
  let sweep f a o = { o with sweep = f o.sweep a }
  and limits f a o = { o with limits = f o.limits a } in
  [
    ("seed", sweep (fun s a -> { s with Sweep_options.seed = int a }));
    ( "strategy",
      sweep (fun s (line, _, v) ->
          match Strategy.of_string v with
          | Some strategy -> { s with Sweep_options.strategy }
          | None ->
              failwith (Printf.sprintf "line %d: unknown strategy %S" line v)) );
    ( "iterations",
      sweep (fun s a -> { s with Sweep_options.guided_iterations = int a }) );
    ("random", sweep (fun s a -> { s with Sweep_options.random_rounds = int a }));
    ("deadline", limits (fun l a -> { l with Budget.deadline = Some (float a) }));
    ("watchdog", limits (fun l a -> { l with Budget.watchdog = Some (float a) }));
    ( "max-sat",
      sweep (fun s a -> { s with Sweep_options.max_sat_calls = Some (int a) }) );
    ( "max-conflicts",
      sweep (fun s a -> { s with Sweep_options.max_conflicts = Some (int a) }) );
    ( "retries",
      fun ((line, _, _) as a) o ->
        let n = int a in
        if n < 1 then
          failwith
            (Printf.sprintf "line %d: retries must be >= 1, got %d" line n);
        { o with retry = Retry_policy.with_attempts n o.retry } );
    ( "backoff",
      fun a o -> { o with retry = { o.retry with Retry_policy.backoff = float a } }
    );
    ("stacked", fun a o -> { o with stacked = bool a });
    ("certify", sweep (fun s a -> { s with Sweep_options.certify = bool a }));
    ( "solver-audit",
      sweep (fun s a -> { s with Sweep_options.solver_audit = bool a }) );
    ("label", fun (_, _, v) o -> { o with label = Some v });
  ]

let keys = List.map fst setters

let apply_option ~line opts key value =
  match List.assoc_opt key setters with
  | Some set -> set (line, key, value) opts
  | None -> failwith (Printf.sprintf "line %d: unknown option %S" line key)

let parse_options ~line ~defaults tokens =
  List.fold_left
    (fun opts tok ->
      match String.index_opt tok '=' with
      | Some i ->
          apply_option ~line opts
            (String.sub tok 0 i)
            (String.sub tok (i + 1) (String.length tok - i - 1))
      | None ->
          failwith
            (Printf.sprintf "line %d: expected key=value, got %S" line tok))
    defaults tokens

let job ~id opts kind =
  Job.make ?label:opts.label ~options:opts.sweep ~limits:opts.limits
    ~retry:opts.retry ~id kind

let spec_of_line ~line ~id ~defaults text =
  let text =
    match String.index_opt text '#' with
    | Some i -> String.sub text 0 i
    | None -> text
  in
  match
    String.split_on_char ' ' text
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")
  with
  | [] -> None
  | "cec" :: c1 :: c2 :: rest ->
      let opts = parse_options ~line ~defaults rest in
      let circuit = circuit ~line ~stacked:opts.stacked in
      Some (job ~id opts (Job.Cec (circuit c1, circuit c2)))
  | "sweep" :: c :: rest ->
      let opts = parse_options ~line ~defaults rest in
      Some (job ~id opts (Job.Sweep (circuit ~line ~stacked:opts.stacked c)))
  | directive :: _ ->
      failwith
        (Printf.sprintf
           "line %d: unknown directive %S (expected \"cec\" or \"sweep\")"
           line directive)

let parse_lines ?(defaults = default_options) lines =
  let specs = ref [] in
  let id = ref 0 in
  List.iteri
    (fun i text ->
      match spec_of_line ~line:(i + 1) ~id:!id ~defaults text with
      | Some spec ->
          incr id;
          specs := spec :: !specs
      | None -> ())
    lines;
  List.rev !specs

let parse_string ?defaults s =
  parse_lines ?defaults (String.split_on_char '\n' s)

let parse_file ?defaults path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      parse_lines ?defaults (List.rev !lines))
