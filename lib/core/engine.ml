module N = Simgen_network.Network
module Cone = Simgen_network.Cone
module Vec = Simgen_base.Vec

type outcome = Fixpoint | Conflict_at of N.node_id

(* FIFO worklist of gate ids with an in-queue flag to avoid duplicates. *)
module Worklist = struct
  type t = { q : int Queue.t; flags : bool array }

  let create n = { q = Queue.create (); flags = Array.make n false }

  let push t id =
    if not t.flags.(id) then begin
      t.flags.(id) <- true;
      Queue.push id t.q
    end

  let pop t =
    match Queue.pop t.q with
    | id ->
        t.flags.(id) <- false;
        Some id
    | exception Queue.Empty -> None

  let clear t =
    Queue.iter (fun id -> t.flags.(id) <- false) t.q;
    Queue.clear t.q
end

let no_scope = -1

type t = {
  net : N.t;
  cfg : Config.t;
  rows : Rows.t;
  node_rows : Rows.table option array;  (* per-node view of [rows] *)
  assignment : Assignment.t;
  queue : Worklist.t;
  mutable matching : int array;  (* row-set scratch of [examine] *)
  (* Cone scopes: a node is in the class scope when [scope.(id)] holds
     [scope_epoch] ([no_scope]: everything is), and in the target cone when
     [cone.(id)] holds [cone_epoch]. Each marking takes a fresh epoch, so
     neither array is ever cleared. *)
  scope : int array;
  cone : int array;
  mutable epoch : int;
  mutable scope_epoch : int;
  mutable cone_epoch : int;
  stack : int Vec.t;
  mutable pending_conflict : N.node_id option;
  mutable implications : int;
  mutable examinations : int;
}

let create ?(config = Config.default) net =
  let n = N.num_nodes net in
  {
    net;
    cfg = config;
    rows = Rows.create ();
    node_rows = Array.make n None;
    assignment = Assignment.create n;
    queue = Worklist.create n;
    matching = Array.make 1 0;
    scope = Array.make n 0;
    cone = Array.make n 0;
    epoch = 0;
    scope_epoch = no_scope;
    cone_epoch = no_scope;
    stack = Vec.create ~dummy:0 ();
    pending_conflict = None;
    implications = 0;
    examinations = 0;
  }

let network t = t.net
let assignment t = t.assignment
let config t = t.cfg

let table_of t id =
  match t.node_rows.(id) with
  | Some table -> table
  | None ->
      let table = Rows.find t.rows (N.func t.net id) in
      t.node_rows.(id) <- Some table;
      table

let rows_of t id = (table_of t id).Rows.cubes

let value t id = Assignment.value t.assignment id

(* Row-set words [m.(0 .. w-1)] combined with set [s] of [sets]. *)
let inter m sets s w =
  for k = 0 to w - 1 do
    m.(k) <- m.(k) land sets.((s * w) + k)
  done

let diff m sets s w =
  for k = 0 to w - 1 do
    m.(k) <- m.(k) land lnot sets.((s * w) + k)
  done

let is_single m w =
  let bits = ref 0 and k = ref 0 in
  while !bits < 2 && !k < w do
    let x = m.(!k) in
    if x <> 0 then bits := !bits + (if x land (x - 1) = 0 then 1 else 2);
    incr k
  done;
  !bits = 1

let subset m sets s w =
  let k = ref 0 in
  while !k < w && m.(!k) land lnot sets.((s * w) + !k) = 0 do
    incr k
  done;
  !k = w

let disjoint m sets s w =
  let k = ref 0 in
  while !k < w && m.(!k) land sets.((s * w) + !k) = 0 do
    incr k
  done;
  !k = w

(* The rows compatible with the current values of the gate's fanins and
   output, as the first [table.words] words of [t.matching]: every row,
   minus the rows a value contradicts. *)
let match_rows t g (table : Rows.table) =
  let w = table.Rows.words and sets = table.Rows.sets in
  if Array.length t.matching < w then t.matching <- Array.make w 0;
  let m = t.matching in
  Array.blit sets (Rows.all_rows * w) m 0 w;
  (match value t g with
   | Value.One -> inter m sets Rows.on_rows w
   | Value.Zero -> diff m sets Rows.on_rows w
   | Value.Unknown -> ());
  let fanins = N.fanins t.net g in
  for i = 0 to Array.length fanins - 1 do
    match value t fanins.(i) with
    | Value.One -> diff m sets (Rows.f_rows i) w
    | Value.Zero -> diff m sets (Rows.t_rows i) w
    | Value.Unknown -> ()
  done;
  m

let matching_rows t id =
  let table = table_of t id in
  let m = match_rows t id table in
  let rows = ref [] in
  for r = Array.length table.Rows.cubes - 1 downto 0 do
    if m.(r / Rows.bits_per_word) land (1 lsl (r mod Rows.bits_per_word)) <> 0
    then rows := table.Rows.cubes.(r) :: !rows
  done;
  !rows

let in_scope t id = t.scope_epoch = no_scope || t.scope.(id) = t.scope_epoch

let next_epoch t =
  t.epoch <- t.epoch + 1;
  t.epoch

let set_scope_cones t roots =
  let epoch = next_epoch t in
  Cone.mark_fanin_cones t.net ~stamp:t.scope ~epoch ~stack:t.stack roots;
  t.scope_epoch <- epoch

let clear_scope t = t.scope_epoch <- no_scope

let mark_cone t root =
  let epoch = next_epoch t in
  Cone.mark_fanin_cones t.net ~stamp:t.cone ~epoch ~stack:t.stack [ root ];
  t.cone_epoch <- epoch

let in_cone t id = t.cone.(id) = t.cone_epoch

let rec push_fanouts t = function
  | [] -> ()
  | fo :: rest ->
      if in_scope t fo then Worklist.push t.queue fo;
      push_fanouts t rest

(* Schedule the gates affected by a new value at [id]. Gates outside the
   current scope (the class's fanin-cone union during Algorithm 1) are not
   examined: the paper's propagation is cone-local, and values outside the
   scope can never need justification.

   Fanouts are scheduled in both directions. In [Backward_only] mode the
   examination of a fanout whose own output is still unassigned is a no-op
   (see [examine]), so this adds no forward implication power to reverse
   simulation -- it only re-checks gates whose output was already required,
   exactly the "conflicting assignment at any internal node" detection of
   the reverse-simulation procedure (paper section 1, step 5). *)
let touch t id =
  if (not (N.is_pi t.net id)) && in_scope t id then Worklist.push t.queue id;
  push_fanouts t (N.fanouts t.net id)

let set t id b =
  match Value.to_bool (value t id) with
  | Some existing ->
      if existing <> b && t.pending_conflict = None then
        t.pending_conflict <- Some id
  | None ->
      Assignment.assign t.assignment id b;
      touch t id

let set_implied t id b =
  t.implications <- t.implications + 1;
  set t id b

(* Examine one gate: match its rows against current values and apply the
   configured implication strategy. Returns [Some g] on conflict (no row
   matches).

   A position is implied when every matching row agrees on a concrete
   value there: the output when the matching rows lie inside or outside
   the on-set, input [i] when they all carry [T] (or all [F]) at [i].
   With exactly one matching row this assigns the row's concrete values
   (Def. 2.2, both strategies); with several it is advanced implication
   (Def. 4.1), which simple implication skips. *)
let examine t g =
  t.examinations <- t.examinations + 1;
  (* In backward-only mode implication is triggered by the output value
     alone (reverse simulation never reasons from partial inputs). *)
  let out_value = value t g in
  if t.cfg.Config.direction = Config.Backward_only && out_value = Value.Unknown
  then None
  else begin
    let table = table_of t g in
    let w = table.Rows.words and sets = table.Rows.sets in
    let m = match_rows t g table in
    if disjoint m sets Rows.all_rows w then Some g
    else begin
      if t.cfg.Config.implication = Config.Advanced || is_single m w then begin
        if not (Value.is_assigned out_value) then begin
          if subset m sets Rows.on_rows w then set_implied t g true
          else if disjoint m sets Rows.on_rows w then set_implied t g false
        end;
        let fanins = N.fanins t.net g in
        for i = 0 to Array.length fanins - 1 do
          if not (Assignment.is_assigned t.assignment fanins.(i)) then begin
            if subset m sets (Rows.t_rows i) w then set_implied t fanins.(i) true
            else if subset m sets (Rows.f_rows i) w then
              set_implied t fanins.(i) false
          end
        done
      end;
      None
    end
  end

let propagate t =
  match t.pending_conflict with
  | Some g ->
      t.pending_conflict <- None;
      Worklist.clear t.queue;
      Conflict_at g
  | None ->
      let rec drain () =
        match Worklist.pop t.queue with
        | None -> Fixpoint
        | Some g -> (
            match examine t g with
            | Some conflict_gate ->
                Worklist.clear t.queue;
                Conflict_at conflict_gate
            | None -> drain ())
      in
      drain ()

let checkpoint t = Assignment.checkpoint t.assignment

let rollback t mark =
  Assignment.rollback t.assignment mark;
  Worklist.clear t.queue;
  t.pending_conflict <- None

let num_implications t = t.implications
let num_examinations t = t.examinations
