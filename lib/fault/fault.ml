(* Fault-site registry.

   One mutex guards every site record; [active] is the lock-free fast
   path. The per-site RNG is seeded from [seed lxor hash name] so that
   arming two sites with the same seed still gives them independent
   streams, and the same (site, seed) pair always fires on the same
   sequence of probe evaluations. *)

module Rng = Simgen_base.Rng
module Shared = Simgen_base.Shared

exception Injected of string

type site = {
  name : string;
  mutable armed : bool;
  mutable prob : float;
  mutable rng : Rng.t;
  mutable remaining : int; (* firings left; max_int = unlimited *)
  mutable fired : int;
}

let sites =
  [
    "sat-budget";
    "session-corrupt";
    "parse";
    "cache-poison";
    "gen-giveup";
    "worker-crash";
    "worker-stall";
    "conn-drop";
    "slow-client";
  ]

let mutex = Shared.Mutex.create ~loc:(Shared.here __POS__) "fault.registry.lock"
let active = Shared.Atomic.make ~loc:(Shared.here __POS__) "fault.active" false
let enabled () = Shared.Atomic.get active

let registry : (string, site) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun name ->
      Hashtbl.replace tbl name
        {
          name;
          armed = false;
          prob = 0.0;
          rng = Rng.create 0;
          remaining = 0;
          fired = 0;
        })
    sites;
  tbl

let find name =
  match Hashtbl.find_opt registry name with
  | Some s -> s
  | None -> invalid_arg ("Fault: unknown site " ^ name)

let locked f = Shared.Mutex.with_lock mutex f

let refresh_active () =
  Shared.Atomic.set active
    (Hashtbl.fold (fun _ s acc -> acc || s.armed) registry false)

let arm ?(times = max_int) ?(prob = 1.0) ?(seed = 0) name =
  let s = find name in
  locked (fun () ->
      s.armed <- true;
      s.prob <- prob;
      s.rng <- Rng.create (seed lxor Hashtbl.hash name);
      s.remaining <- times;
      refresh_active ())

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ s ->
          s.armed <- false;
          s.fired <- 0)
        registry;
      refresh_active ())

let fire name =
  let s = find name in
  locked (fun () ->
      if (not s.armed) || s.remaining <= 0 then false
      else if Rng.float s.rng 1.0 < s.prob then begin
        s.remaining <- (if s.remaining = max_int then max_int else s.remaining - 1);
        s.fired <- s.fired + 1;
        true
      end
      else false)

let crash name = if enabled () && fire name then raise (Injected name)
let fired name = locked (fun () -> (find name).fired)

let log () =
  locked (fun () ->
      List.filter_map
        (fun name ->
          let s = find name in
          if s.fired > 0 then Some (name, s.fired) else None)
        sites)

(* [SIMGEN_FAULT=site[:prob[:seed]],...] with [all] fanning out. *)
let configure spec =
  let entry e =
    match String.split_on_char ':' (String.trim e) with
    | [] | [ "" ] -> Error "empty fault entry"
    | name :: rest -> (
        let parse () =
          match rest with
          | [] -> Ok (1.0, 0)
          | [ p ] -> (
              match float_of_string_opt p with
              | Some p when p >= 0.0 && p <= 1.0 -> Ok (p, 0)
              | _ -> Error (Printf.sprintf "bad probability %S in %S" p e))
          | [ p; s ] -> (
              match (float_of_string_opt p, int_of_string_opt s) with
              | Some p, Some s when p >= 0.0 && p <= 1.0 -> Ok (p, s)
              | _ -> Error (Printf.sprintf "bad prob/seed in %S" e))
          | _ -> Error (Printf.sprintf "too many fields in %S" e)
        in
        match parse () with
        | Error _ as err -> err
        | Ok (prob, seed) ->
            if name = "all" then begin
              List.iter (arm ~prob ~seed) sites;
              Ok ()
            end
            else if List.mem name sites then begin
              arm ~prob ~seed name;
              Ok ()
            end
            else Error (Printf.sprintf "unknown fault site %S" name))
  in
  let rec apply = function
    | [] -> Ok ()
    | e :: rest -> ( match entry e with Ok () -> apply rest | Error _ as err -> err)
  in
  apply (String.split_on_char ',' spec)

let () =
  match Sys.getenv_opt "SIMGEN_FAULT" with
  | None | Some "" -> ()
  | Some spec -> (
      match configure spec with
      | Ok () -> ()
      | Error msg -> Printf.eprintf "SIMGEN_FAULT ignored entry: %s\n%!" msg)
