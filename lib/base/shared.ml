(* Instrumented shared-state primitives.

   The recording fast path is the whole design: disarmed, every wrapper
   is the raw primitive plus one atomic load of [armed]. Armed, an event
   append touches only the current domain's buffer (registered once via
   DLS) plus one fetch-and-add on the global sequence counter. Sequence
   numbers are drawn *inside* the synchronization window they describe —
   after a lock is acquired, before it is released — so that on any one
   sync object, sequence order agrees with real-time order and the
   offline analyzer can replay the trace in seq order. Atomic operations
   draw their number adjacent to (not atomically with) the operation;
   the tiny reordering window this leaves is documented in DESIGN.md
   §14 as an accepted soundness limit. *)

let armed = Stdlib.Atomic.make false
let arm () = Stdlib.Atomic.set armed true
let disarm () = Stdlib.Atomic.set armed false
let is_armed () = Stdlib.Atomic.get armed
let on () = Stdlib.Atomic.get armed

let here (file, line, _, _) = Srcloc.make ~file ~line ()

type kind = Kmutex | Katomic | Kcell | Ktoken

type obj_info = { oid : int; okind : kind; oname : string; oloc : Srcloc.t }

type op =
  | Acquire
  | Release
  | Atomic_read
  | Atomic_write
  | Atomic_update
  | Read
  | Write
  | Spawn
  | Begin
  | End_
  | Join

type event = { seq : int; domain : int; op : op; obj : int; at : Srcloc.t }
type trace = { objects : obj_info list; events : event list }

(* ------------------------------------------------------------------ *)
(* Registry and per-domain buffers                                     *)
(* ------------------------------------------------------------------ *)

(* Raw primitives only in here: the recorder must not record itself. *)
let reg_mutex = Stdlib.Mutex.create ()
let next_oid = Stdlib.Atomic.make 0
let objects : obj_info list ref = ref [] (* newest first *)
let seq_ctr = Stdlib.Atomic.make 0

let register okind oname oloc =
  let oid = Stdlib.Atomic.fetch_and_add next_oid 1 in
  let info = { oid; okind; oname; oloc } in
  Stdlib.Mutex.lock reg_mutex;
  objects := info :: !objects;
  Stdlib.Mutex.unlock reg_mutex;
  oid

let dummy_event = { seq = 0; domain = 0; op = Read; obj = 0; at = Srcloc.none }

type buf = { dom : int; mutable evs : event array; mutable n : int }

let bufs : buf list ref = ref []

let buf_key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          dom = (Domain.self () :> int);
          evs = Array.make 1024 dummy_event;
          n = 0;
        }
      in
      Stdlib.Mutex.lock reg_mutex;
      bufs := b :: !bufs;
      Stdlib.Mutex.unlock reg_mutex;
      b)

let record op obj at =
  let b = Domain.DLS.get buf_key in
  if b.n = Array.length b.evs then begin
    let bigger = Array.make (2 * Array.length b.evs) dummy_event in
    Array.blit b.evs 0 bigger 0 b.n;
    b.evs <- bigger
  end;
  let seq = Stdlib.Atomic.fetch_and_add seq_ctr 1 in
  b.evs.(b.n) <- { seq; domain = b.dom; op; obj; at };
  b.n <- b.n + 1

let reset_trace () =
  Stdlib.Mutex.lock reg_mutex;
  List.iter (fun b -> b.n <- 0) !bufs;
  Stdlib.Atomic.set seq_ctr 0;
  Stdlib.Mutex.unlock reg_mutex

let snapshot () =
  Stdlib.Mutex.lock reg_mutex;
  let objs = List.rev !objects in
  let evs =
    List.concat_map (fun b -> Array.to_list (Array.sub b.evs 0 b.n)) !bufs
  in
  Stdlib.Mutex.unlock reg_mutex;
  {
    objects = objs;
    events = List.sort (fun a b -> compare a.seq b.seq) evs;
  }

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)
(* ------------------------------------------------------------------ *)

module Mutex = struct
  type t = { m : Stdlib.Mutex.t; id : int }

  let create ?(loc = Srcloc.none) name =
    { m = Stdlib.Mutex.create (); id = register Kmutex name loc }

  let lock t =
    Stdlib.Mutex.lock t.m;
    (* Seq drawn while holding: orders after the previous holder's
       release on this mutex. *)
    if on () then record Acquire t.id Srcloc.none

  let unlock t =
    if on () then record Release t.id Srcloc.none;
    Stdlib.Mutex.unlock t.m

  let with_lock t f =
    lock t;
    Fun.protect ~finally:(fun () -> unlock t) f
end

module Condition = struct
  type t = Stdlib.Condition.t

  let create () = Stdlib.Condition.create ()

  let wait c (m : Mutex.t) =
    if on () then record Release m.Mutex.id Srcloc.none;
    Stdlib.Condition.wait c m.Mutex.m;
    if on () then record Acquire m.Mutex.id Srcloc.none

  let signal = Stdlib.Condition.signal
  let broadcast = Stdlib.Condition.broadcast
end

module Atomic = struct
  type 'a t = { a : 'a Stdlib.Atomic.t; id : int }

  let make ?(loc = Srcloc.none) name v =
    { a = Stdlib.Atomic.make v; id = register Katomic name loc }

  let get t =
    let v = Stdlib.Atomic.get t.a in
    if on () then record Atomic_read t.id Srcloc.none;
    v

  let set t v =
    Stdlib.Atomic.set t.a v;
    if on () then record Atomic_write t.id Srcloc.none

  let fetch_and_add t n =
    let r = Stdlib.Atomic.fetch_and_add t.a n in
    if on () then record Atomic_update t.id Srcloc.none;
    r

  let incr t = ignore (fetch_and_add t 1)
  let silent_get t = Stdlib.Atomic.get t.a
  let silent_set t v = Stdlib.Atomic.set t.a v
end

module Cell = struct
  type 'a t = { mutable v : 'a; id : int }

  let make ?(loc = Srcloc.none) name v =
    { v; id = register Kcell name loc }

  let get ?(at = Srcloc.none) t =
    if on () then record Read t.id at;
    t.v

  let set ?(at = Srcloc.none) t v =
    if on () then record Write t.id at;
    t.v <- v

  let update ?(at = Srcloc.none) t f =
    if on () then begin
      record Read t.id at;
      record Write t.id at
    end;
    t.v <- f t.v

  let incr ?at t = update ?at t (fun x -> x + 1)
  let add ?at t n = update ?at t (fun x -> x + n)
end

type 'a domain = { d : 'a Domain.t; tok : int }

let spawn ?(loc = Srcloc.none) f =
  if not (on ()) then { d = Domain.spawn f; tok = -1 }
  else begin
    let tok = register Ktoken "domain" loc in
    (* Spawn is recorded before [Domain.spawn] runs, so the child's
       Begin necessarily draws a later seq. *)
    record Spawn tok loc;
    let d =
      Domain.spawn (fun () ->
          if on () then record Begin tok loc;
          Fun.protect
            ~finally:(fun () -> if on () then record End_ tok loc)
            f)
    in
    { d; tok }
  end

let join h =
  let r = Domain.join h.d in
  if h.tok >= 0 && on () then record Join h.tok Srcloc.none;
  r

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let magic = "simgen-tsan 1"

(* Percent-encoding keeps the format line- and space-delimited no matter
   what ends up in an object name or file path. *)
let enc s =
  let buf = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      if c <= ' ' || c = '%' || Char.code c >= 0x7f then
        Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c))
      else Buffer.add_char buf c)
    s;
  Buffer.contents buf

let dec s =
  let n = String.length s in
  let buf = Buffer.create n in
  let rec go i =
    if i >= n then Some (Buffer.contents buf)
    else if s.[i] = '%' then
      if i + 2 >= n then None
      else
        match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
        | Some c -> Buffer.add_char buf (Char.chr (c land 0xff)); go (i + 3)
        | None -> None
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0

let kind_code = function
  | Kmutex -> "m"
  | Katomic -> "a"
  | Kcell -> "c"
  | Ktoken -> "t"

let kind_of_code = function
  | "m" -> Some Kmutex
  | "a" -> Some Katomic
  | "c" -> Some Kcell
  | "t" -> Some Ktoken
  | _ -> None

let op_code = function
  | Acquire -> "acq"
  | Release -> "rel"
  | Atomic_read -> "ard"
  | Atomic_write -> "awr"
  | Atomic_update -> "aup"
  | Read -> "rd"
  | Write -> "wr"
  | Spawn -> "sp"
  | Begin -> "bg"
  | End_ -> "en"
  | Join -> "jn"

let op_of_code = function
  | "acq" -> Some Acquire
  | "rel" -> Some Release
  | "ard" -> Some Atomic_read
  | "awr" -> Some Atomic_write
  | "aup" -> Some Atomic_update
  | "rd" -> Some Read
  | "wr" -> Some Write
  | "sp" -> Some Spawn
  | "bg" -> Some Begin
  | "en" -> Some End_
  | "jn" -> Some Join
  | _ -> None

let loc_fields (l : Srcloc.t) =
  let file = match l.Srcloc.file with Some f -> enc f | None -> "-" in
  let line = match l.Srcloc.line with Some n -> n | None -> 0 in
  Printf.sprintf "%s %d" file line

let loc_of_fields file line =
  match (file, int_of_string_opt line) with
  | _, None -> None
  | "-", Some 0 -> Some Srcloc.none
  | "-", Some n -> Some (Srcloc.make ~line:n ())
  | f, Some n -> (
      match dec f with
      | None -> None
      | Some f ->
          Some
            (if n = 0 then Srcloc.make ~file:f ()
             else Srcloc.make ~file:f ~line:n ()))

let write_trace trace path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc magic;
  output_char oc '\n';
  List.iter
    (fun o ->
      Printf.fprintf oc "o %d %s %s %s\n" o.oid (kind_code o.okind)
        (enc o.oname) (loc_fields o.oloc))
    trace.objects;
  List.iter
    (fun e ->
      Printf.fprintf oc "e %d %d %s %d %s\n" e.seq e.domain (op_code e.op)
        e.obj (loc_fields e.at))
    trace.events

let parse_trace path =
  let read_lines () =
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    go []
  in
  match read_lines () with
  | exception Sys_error msg -> Error msg
  | [] -> Error (path ^ ": empty trace file")
  | header :: rest when String.trim header = magic ->
      let objs = ref [] and evs = ref [] and corrupt = ref [] in
      let bad lineno msg = corrupt := (lineno, msg) :: !corrupt in
      List.iteri
        (fun i line ->
          let lineno = i + 2 in
          let line = String.trim line in
          if line <> "" then
            match
              List.filter (fun s -> s <> "") (String.split_on_char ' ' line)
            with
            | [ "o"; oid; k; name; file; lnum ] -> (
                match
                  ( int_of_string_opt oid,
                    kind_of_code k,
                    dec name,
                    loc_of_fields file lnum )
                with
                | Some oid, Some okind, Some oname, Some oloc ->
                    objs := { oid; okind; oname; oloc } :: !objs
                | _ -> bad lineno "malformed object record")
            | [ "e"; seq; domain; opc; obj; file; lnum ] -> (
                match
                  ( int_of_string_opt seq,
                    int_of_string_opt domain,
                    op_of_code opc,
                    int_of_string_opt obj,
                    loc_of_fields file lnum )
                with
                | Some seq, Some domain, Some op, Some obj, Some at ->
                    evs := { seq; domain; op; obj; at } :: !evs
                | _ -> bad lineno "malformed event record")
            | _ -> bad lineno "unrecognized record")
        rest;
      Ok
        ( {
            objects = List.rev !objs;
            events =
              List.sort (fun a b -> compare a.seq b.seq) (List.rev !evs);
          },
          List.rev !corrupt )
  | _ :: _ -> Error (path ^ ": not a simgen-tsan trace (bad header)")

(* [SIMGEN_TSAN=1] arms recording for the whole process, the same
   environment contract as SIMGEN_CHECK / SIMGEN_FAULT. *)
let () =
  match Sys.getenv_opt "SIMGEN_TSAN" with
  | Some ("1" | "true" | "yes" | "on") -> arm ()
  | Some _ | None -> ()
