module Srcloc = Simgen_base.Srcloc

exception Parse_error of Srcloc.t * string

let () =
  Printexc.register_printer (function
    | Parse_error (loc, msg) ->
        Some
          (match Srcloc.to_string loc with
           | Some at -> Printf.sprintf "DIMACS parse error: %s: %s" at msg
           | None -> Printf.sprintf "DIMACS parse error: %s" msg)
    | _ -> None)

let fail_at loc fmt = Printf.ksprintf (fun s -> raise (Parse_error (loc, s))) fmt

let parse_string ?file text =
  let floc = Srcloc.make ?file () in
  let loc line = Srcloc.with_line floc line in
  let nvars = ref 0 in
  let clauses = ref [] in
  let current = ref [] in
  let seen_header = ref false in
  String.split_on_char '\n' text
  |> List.iteri (fun i line ->
         let at = loc (i + 1) in
         let line = String.trim line in
         if line = "" || line.[0] = 'c' then ()
         else if line.[0] = 'p' then begin
           match
             String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
           with
           | [ "p"; "cnf"; nv; _nc ] ->
               seen_header := true;
               (match int_of_string_opt nv with
                | Some n -> nvars := n
                | None -> fail_at at "bad header")
           | _ -> fail_at at "bad header line %S" line
         end
         else
           String.split_on_char ' ' line
           |> List.filter (fun s -> s <> "")
           |> List.iter (fun tok ->
                  match int_of_string_opt tok with
                  | None -> fail_at at "bad token %S" tok
                  | Some 0 ->
                      clauses := List.rev !current :: !clauses;
                      current := []
                  | Some d ->
                      nvars := max !nvars (abs d);
                      current := Literal.of_dimacs d :: !current));
  if !current <> [] then clauses := List.rev !current :: !clauses;
  if not !seen_header then fail_at floc "missing p cnf header";
  (!nvars, List.rev !clauses)

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse_string ~file:path s

let to_string nvars clauses =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" nvars (List.length clauses));
  List.iter
    (fun clause ->
      List.iter
        (fun l -> Buffer.add_string buf (Printf.sprintf "%d " (Literal.to_dimacs l)))
        clause;
      Buffer.add_string buf "0\n")
    clauses;
  Buffer.contents buf
