(* Versioned JSONL protocol: the request/frame vocabulary over
   [Simgen_base.Json], whose values and printer it re-exports. *)

module Json = Simgen_base.Json

type json = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let parse = Json.parse
let to_string = Json.to_string
let member = Json.member
let int_member = Json.int_member
let string_member = Json.string_member

(* ---------------- requests and frames ---------------- *)

let version = 1

type request =
  | Ping
  | Stats
  | Shutdown
  | Lint of { target : string }
  | Job of { cmd : string; args : string; deadline_ms : int option }

let job_cmds = [ "sweep"; "cec"; "certify" ]

let request_to_line ~id req =
  let base = [ ("v", Int version); ("id", Int id) ] in
  let fields =
    match req with
    | Ping -> base @ [ ("cmd", String "ping") ]
    | Stats -> base @ [ ("cmd", String "stats") ]
    | Shutdown -> base @ [ ("cmd", String "shutdown") ]
    | Lint { target } ->
        base @ [ ("cmd", String "lint"); ("target", String target) ]
    | Job { cmd; args; deadline_ms } ->
        base
        @ [ ("cmd", String cmd); ("args", String args) ]
        @ (match deadline_ms with
           | Some ms -> [ ("deadline_ms", Int ms) ]
           | None -> [])
  in
  to_string (Obj fields)

let request_of_line line =
  match parse line with
  | Error msg -> Error ("bad json: " ^ msg)
  | Ok j -> (
      match (int_member "v" j, int_member "id" j, string_member "cmd" j) with
      | Some v, _, _ when v <> version ->
          Error (Printf.sprintf "unsupported protocol version %d" v)
      | Some _, Some id, Some cmd -> (
          match cmd with
          | "ping" -> Ok (id, Ping)
          | "stats" -> Ok (id, Stats)
          | "shutdown" -> Ok (id, Shutdown)
          | "lint" -> (
              match string_member "target" j with
              | Some target -> Ok (id, Lint { target })
              | None -> Error "lint: missing target")
          | cmd when List.mem cmd job_cmds -> (
              match string_member "args" j with
              | Some args ->
                  let deadline_ms = int_member "deadline_ms" j in
                  (match deadline_ms with
                   | Some ms when ms <= 0 ->
                       Error (cmd ^ ": deadline_ms must be positive")
                   | _ -> Ok (id, Job { cmd; args; deadline_ms }))
              | None -> Error (cmd ^ ": missing args"))
          | cmd -> Error ("unknown cmd " ^ cmd))
      | _ -> Error "request needs v, id and cmd fields")

type frame =
  | Event of json
  | Result of (string * json) list
  | Failed of string
  | Overloaded of { retry_after : float }

let frame_to_line ~id frame =
  let fields =
    match frame with
    | Event e -> [ ("id", Int id); ("type", String "event"); ("event", e) ]
    | Result fs -> ("id", Int id) :: ("type", String "result") :: fs
    | Failed msg ->
        [ ("id", Int id); ("type", String "error"); ("message", String msg) ]
    | Overloaded { retry_after } ->
        [
          ("id", Int id);
          ("type", String "overloaded");
          ("retry_after", Float retry_after);
        ]
  in
  to_string (Obj fields)

let frame_of_line line =
  match parse line with
  | Error msg -> Error ("bad json: " ^ msg)
  | Ok j -> (
      match (int_member "id" j, string_member "type" j) with
      | Some id, Some "event" -> (
          match member "event" j with
          | Some e -> Ok (id, Event e)
          | None -> Error "event frame without event")
      | Some id, Some "result" -> (
          match j with
          | Obj fields ->
              Ok
                ( id,
                  Result
                    (List.filter
                       (fun (name, _) -> name <> "id" && name <> "type")
                       fields) )
          | Null | Bool _ | Int _ | Float _ | String _ | List _ ->
              Error "malformed result frame")
      | Some id, Some "error" -> (
          match string_member "message" j with
          | Some msg -> Ok (id, Failed msg)
          | None -> Error "error frame without message")
      | Some id, Some "overloaded" ->
          let retry_after =
            match member "retry_after" j with
            | Some (Float f) -> f
            | Some (Int i) -> float_of_int i
            | Some (Null | Bool _ | String _ | List _ | Obj _) | None -> 0.1
          in
          Ok (id, Overloaded { retry_after })
      | _ -> Error "frame needs id and type fields")
