type t = { file : string option; line : int option }

let none = { file = None; line = None }

let in_file file = { file = Some file; line = None }

let make ?file ?line () = { file; line }

let with_line t line = { t with line = Some line }

let is_none t = t.file = None && t.line = None

let to_string t =
  match (t.file, t.line) with
  | None, None -> None
  | Some f, None -> Some f
  | Some f, Some l -> Some (Printf.sprintf "%s:%d" f l)
  | None, Some l -> Some (Printf.sprintf "line %d" l)
