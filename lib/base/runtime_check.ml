exception Violation of string

let env_enabled () =
  match Sys.getenv_opt "SIMGEN_CHECK" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ | None -> false

(* Read by worker domains on every audited phase; was a plain [bool ref],
   which made the cross-domain read itself a (benign-looking) race. *)
let flag =
  Shared.Atomic.make ~loc:(Shared.here __POS__) "base.runtime-check.flag"
    (env_enabled ())

let enabled () = Shared.Atomic.get flag
let set_enabled b = Shared.Atomic.set flag b

let with_enabled b f =
  let saved = Shared.Atomic.get flag in
  Shared.Atomic.set flag b;
  Fun.protect ~finally:(fun () -> Shared.Atomic.set flag saved) f

let failf fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

let () =
  Printexc.register_printer (function
    | Violation msg -> Some (Printf.sprintf "Runtime_check.Violation(%S)" msg)
    | _ -> None)
