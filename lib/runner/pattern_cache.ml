module Fault = Simgen_fault.Fault
module Shared = Simgen_base.Shared

(* Entries carry an FNV-1a checksum computed at insertion; [borrow]
   re-checks it so a corrupted entry (torn write, injected poisoning) is
   dropped at the boundary instead of feeding garbage vectors into a
   sweep. Vectors are copied on both add and borrow — the cache never
   shares an array with a worker, so no worker can corrupt it (or be
   corrupted by it) after the checksum is taken. *)
type entry = { vec : bool array; sum : int }

(* The Hashtbl and every counter are guarded by [mutex]; the counters
   are [Shared.Cell]s (plus a shadow cell for the table itself) so the
   race detector can check that convention instead of us asserting it. *)
type t = {
  mutex : Shared.Mutex.t;
  table : (int, entry list) Hashtbl.t;  (* PI count -> newest first *)
  table_shadow : unit Shared.Cell.t;  (* written on mutation, read on lookup *)
  hits : int Shared.Cell.t;
  misses : int Shared.Cell.t;
  stored : int Shared.Cell.t;
  dropped : int Shared.Cell.t;
}

let checksum vec =
  (* FNV-1a offset basis truncated to OCaml's 63-bit int range. *)
  let h = ref 0x3bf29ce484222325 in
  Array.iter
    (fun b ->
      h := !h lxor (if b then 1 else 0);
      h := !h * 0x100000001b3)
    vec;
  (* Fold in the length so a truncation cannot preserve the sum. *)
  !h lxor Array.length vec

(* Vectors kept per PI count: one simulation word. *)
let capacity = 64

let create () =
  let loc = Shared.here __POS__ in
  {
    mutex = Shared.Mutex.create ~loc "runner.pattern-cache.lock";
    table = Hashtbl.create 16;
    table_shadow = Shared.Cell.make ~loc "runner.pattern-cache.table" ();
    hits = Shared.Cell.make ~loc "runner.pattern-cache.hits" 0;
    misses = Shared.Cell.make ~loc "runner.pattern-cache.misses" 0;
    stored = Shared.Cell.make ~loc "runner.pattern-cache.stored" 0;
    dropped = Shared.Cell.make ~loc "runner.pattern-cache.dropped" 0;
  }

let protect t f = Shared.Mutex.with_lock t.mutex f

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let add t vec =
  let key = Array.length vec in
  let vec = Array.copy vec in
  let entry = { vec; sum = checksum vec } in
  (* The cache-poison fault flips a stored bit *after* the checksum, the
     shape a torn or corrupted write would take. *)
  if Fault.enabled () && Array.length vec > 0 && Fault.fire "cache-poison" then
    vec.(0) <- not vec.(0);
  protect t (fun () ->
      let existing = Option.value ~default:[] (Hashtbl.find_opt t.table key) in
      if List.exists (fun e -> e.vec = vec) existing then false
      else begin
        let trimmed = take (capacity - 1) existing in
        let dropped = List.length existing - List.length trimmed in
        Shared.Cell.set ~at:(Shared.here __POS__) t.table_shadow ();
        Hashtbl.replace t.table key (entry :: trimmed);
        Shared.Cell.add ~at:(Shared.here __POS__) t.stored (1 - dropped);
        true
      end)

let borrow t ~npis =
  protect t (fun () ->
      ignore (Shared.Cell.get ~at:(Shared.here __POS__) t.table_shadow);
      match Hashtbl.find_opt t.table npis with
      | Some (_ :: _ as entries) ->
          let sound, corrupt =
            List.partition (fun e -> checksum e.vec = e.sum) entries
          in
          if corrupt <> [] then begin
            Shared.Cell.add ~at:(Shared.here __POS__) t.dropped
              (List.length corrupt);
            Shared.Cell.add ~at:(Shared.here __POS__) t.stored
              (-List.length corrupt);
            Shared.Cell.set ~at:(Shared.here __POS__) t.table_shadow ();
            Hashtbl.replace t.table npis sound
          end;
          if sound = [] then begin
            Shared.Cell.incr ~at:(Shared.here __POS__) t.misses;
            []
          end
          else begin
            Shared.Cell.incr ~at:(Shared.here __POS__) t.hits;
            List.map (fun e -> Array.copy e.vec) sound
          end
      | Some [] | None ->
          Shared.Cell.incr ~at:(Shared.here __POS__) t.misses;
          [])

let hits t = protect t (fun () -> Shared.Cell.get t.hits)
let misses t = protect t (fun () -> Shared.Cell.get t.misses)
let size t = protect t (fun () -> Shared.Cell.get t.stored)
let dropped t = protect t (fun () -> Shared.Cell.get t.dropped)
