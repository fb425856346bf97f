module N = Simgen_network.Network

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

  (* The oldest gate, or [-1] when empty. *)
  let pop t =
    if Queue.is_empty t.q then -1
    else begin
      let id = Queue.pop t.q in
      t.flags.(id) <- false;
      id
    end

  let clear t =
    Queue.iter (fun id -> t.flags.(id) <- false) t.q;
    Queue.clear t.q
end

(* Fanout chains: one singly linked list per node in flat arrays. The
   chain of node [id] starts at cell [head.(id)] ([-1]: empty); cell [c]
   holds the fanout [fanout.(c)] and continues at cell [next.(c)]. There
   is a cell per fanin edge of the network, allocated once. *)
type chains = {
  head : int array;
  next : int array;
  fanout : int array;
  mutable cells : int;  (* cells in use *)
}

let chains_create nodes edges =
  {
    head = Array.make nodes (-1);
    next = Array.make edges 0;
    fanout = Array.make edges 0;
    cells = 0;
  }

(* Put gate [g] first on the chain of [f]. Prepending in descending order
   of [g] leaves a chain in ascending order, as [N.fanouts]. *)
let prepend ch f g =
  let c = ch.cells in
  ch.fanout.(c) <- g;
  ch.next.(c) <- ch.head.(f);
  ch.head.(f) <- c;
  ch.cells <- c + 1

(* The epoch of no marking: an engine starts with an empty scope, an
   empty cone and an empty exhausted set. *)
let unmarked = -1

type t = {
  net : N.t;
  cfg : Config.t;
  rows : Rows.t;
  node_rows : Rows.table option array;  (* per-node view of [rows] *)
  (* [N.fanins] of every node, read once: the network is fixed for the
     engine's lifetime. *)
  fanins : N.node_id array array;
  (* The fanouts that [touch] schedules: the in-scope fanouts of each
     node in the scope of the last [set_scope_cones]. *)
  chains : chains;
  assignment : Assignment.t;
  vals : Value.t array;  (* [Assignment.values assignment] *)
  queue : Worklist.t;
  mutable matching : int array;  (* row-set scratch of [examine] *)
  (* Epoch stamps: a node is in the class scope when [scope.(id)] holds
     [scope_epoch], in the target cone when [cone.(id)] holds
     [cone_epoch], and exhausted when [exhausted.(id)] holds
     [exhausted_epoch]. Each marking takes a fresh epoch, so no array is
     ever cleared. *)
  scope : int array;
  cone : int array;
  exhausted : int array;
  mutable epoch : int;
  mutable scope_epoch : int;
  mutable cone_epoch : int;
  mutable exhausted_epoch : int;
  stack : int array;  (* DFS scratch of the cone walks: a node per slot *)
  mutable pending_conflict : N.node_id option;
  mutable implications : int;
}

let create ?(config = Config.default) net =
  let n = N.num_nodes net in
  let assignment = Assignment.create n in
  let fanins = Array.init n (N.fanins net) in
  let edges = Array.fold_left (fun e f -> e + Array.length f) 0 fanins in
  {
    net;
    cfg = config;
    rows = Rows.create ();
    node_rows = Array.make n None;
    fanins;
    chains = chains_create n edges;
    assignment;
    vals = Assignment.values assignment;
    queue = Worklist.create n;
    matching = Array.make 1 0;
    scope = Array.make n 0;
    cone = Array.make n 0;
    exhausted = Array.make n 0;
    epoch = 0;
    scope_epoch = unmarked;
    cone_epoch = unmarked;
    exhausted_epoch = unmarked;
    stack = Array.make n 0;
    pending_conflict = None;
    implications = 0;
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

(* Row-set tests of the matching rows [m] against set [s] of [sets],
   [w] words each. *)
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

(* Input [i]'s [T] and [F] sets are sets [t0 + 2i] and [t0 + 2i + 1]
   (see {!Rows.input_rows}). *)
let t0 = Rows.input_rows

(* The rows of a gate compatible with the current values of its fanins
   and output, as the first [table.words] words of [t.matching]: word [k]
   is every row, minus the rows a value contradicts. Returns how many rows
   match, counted up to 2. *)
let match_rows t (table : Rows.table) out_value fanins =
  let w = table.Rows.words and sets = table.Rows.sets in
  if Array.length t.matching < w then t.matching <- Array.make w 0;
  let m = t.matching and vals = t.vals and on = Rows.on_rows * w in
  let rows = ref 0 in
  for k = 0 to w - 1 do
    let x = ref sets.((Rows.all_rows * w) + k) in
    (match out_value with
     | Value.One -> x := !x land sets.(on + k)
     | Value.Zero -> x := !x land lnot sets.(on + k)
     | Value.Unknown -> ());
    for i = 0 to Array.length fanins - 1 do
      match vals.(fanins.(i)) with
      | Value.One -> x := !x land lnot sets.(((t0 + (2 * i) + 1) * w) + k)
      | Value.Zero -> x := !x land lnot sets.(((t0 + (2 * i)) * w) + k)
      | Value.Unknown -> ()
    done;
    let x = !x in
    m.(k) <- x;
    if x <> 0 then rows := !rows + if x land (x - 1) = 0 then 1 else 2
  done;
  min !rows 2

let matching_rows t id rows =
  let table = table_of t id in
  ignore (match_rows t table t.vals.(id) t.fanins.(id) : int);
  let m = t.matching and n = ref 0 in
  for k = 0 to table.Rows.words - 1 do
    let x = ref m.(k) and r = ref (k * Rows.bits_per_word) in
    while !x <> 0 do
      if !x land 1 <> 0 then begin
        rows.(!n) <- !r;
        incr n
      end;
      x := !x lsr 1;
      incr r
    done
  done;
  !n

let in_scope t id = t.scope.(id) = t.scope_epoch

let next_epoch t =
  t.epoch <- t.epoch + 1;
  t.epoch

(* Scope marking: one scan in descending id order from the highest root.
   A stamped gate stamps its fanins and puts itself on each fanin's chain.
   Fanins precede their gates, so every fanout of a node is scanned before
   the node: a node in the scope is stamped by the time the scan reaches
   it, and its chain holds exactly its in-scope fanouts, in ascending
   order, a duplicated fanin giving a duplicated entry. A node's chain is
   emptied when it is first stamped. *)
let stamp_scope t epoch id =
  if t.scope.(id) <> epoch then begin
    t.scope.(id) <- epoch;
    t.chains.head.(id) <- -1
  end

let set_scope_cones t roots =
  let epoch = next_epoch t and ch = t.chains in
  ch.cells <- 0;
  List.iter (stamp_scope t epoch) roots;
  for g = List.fold_left Int.max (-1) roots downto 0 do
    if t.scope.(g) = epoch then begin
      let fanins = t.fanins.(g) in
      for i = 0 to Array.length fanins - 1 do
        stamp_scope t epoch fanins.(i);
        prepend ch fanins.(i) g
      done
    end
  done;
  t.scope_epoch <- epoch

let scope_chain t id =
  let ch = t.chains in
  let rec from c = if c < 0 then [] else ch.fanout.(c) :: from ch.next.(c) in
  if in_scope t id then from ch.head.(id) else []

(* Cone marking: a depth-first walk over the cached fanin arrays that
   stamps a node with [epoch] when it is pushed, so no node is pushed
   twice and the [n]-slot stack cannot overflow. The walk is iterative:
   stacked networks are too deep for a recursive one. [push] returns the
   new stack height. *)
let push t epoch sp id =
  if t.cone.(id) = epoch then sp
  else begin
    t.cone.(id) <- epoch;
    t.stack.(sp) <- id;
    sp + 1
  end

let rec walk t epoch sp =
  if sp > 0 then begin
    let fanins = t.fanins.(t.stack.(sp - 1)) in
    let sp = ref (sp - 1) in
    for i = 0 to Array.length fanins - 1 do
      sp := push t epoch !sp fanins.(i)
    done;
    walk t epoch !sp
  end

let mark_cone t root =
  let epoch = next_epoch t in
  walk t epoch (push t epoch 0 root);
  t.cone_epoch <- epoch

let in_cone t id = t.cone.(id) = t.cone_epoch

let clear_exhausted t = t.exhausted_epoch <- next_epoch t
let set_exhausted t id = t.exhausted.(id) <- t.exhausted_epoch

let has_open_fanin vals fanins =
  let n = Array.length fanins and i = ref 0 in
  while !i < n && Value.is_assigned vals.(fanins.(!i)) do
    incr i
  done;
  !i < n

(* [latestUpdated] of Algorithm 1: the newest trail entry at or after
   [since] that lies in the target cone, is not exhausted and has an open
   fanin. An empty fanin array rules out PIs and constants. *)
let rec scan t trail since i =
  if i < since then -1
  else
    let id = trail.(i) in
    if
      t.cone.(id) = t.cone_epoch
      && t.exhausted.(id) <> t.exhausted_epoch
      && has_open_fanin t.vals t.fanins.(id)
    then id
    else scan t trail since (i - 1)

let latest_candidate t ~since =
  scan t (Assignment.trail t.assignment) since
    (Assignment.num_assigned t.assignment - 1)

let rec push_chain t (ch : chains) c =
  if c >= 0 then begin
    Worklist.push t.queue ch.fanout.(c);
    push_chain t ch ch.next.(c)
  end

(* Schedule the gates affected by a new value at [id]. Gates outside the
   current scope (the class's fanin-cone union during Algorithm 1) are not
   examined: the paper's propagation is cone-local, and values outside the
   scope can never need justification. A node's chain holds exactly its
   in-scope fanouts; a node outside the scope has none, since the scope
   is closed under fanins. Before the first [set_scope_cones] the scope
   is empty and nothing is scheduled.

   Fanouts are scheduled in both directions. In [Backward_only] mode the
   examination of a fanout whose own output is still unassigned is a no-op
   (see [examine]), so this adds no forward implication power to reverse
   simulation -- it only re-checks gates whose output was already required,
   exactly the "conflicting assignment at any internal node" detection of
   the reverse-simulation procedure (paper section 1, step 5). *)
let touch t id =
  if in_scope t id then begin
    if not (N.is_pi t.net id) then Worklist.push t.queue id;
    push_chain t t.chains t.chains.head.(id)
  end

let set t id b =
  match t.vals.(id) with
  | Value.Unknown ->
      Assignment.assign t.assignment id b;
      touch t id
  | Value.One | Value.Zero as existing ->
      if (existing = Value.One) <> b && t.pending_conflict = None then
        t.pending_conflict <- Some id

let set_implied t id b =
  t.implications <- t.implications + 1;
  set t id b

(* Examining a gate matches its rows against the current values and
   applies the configured implication strategy; it returns [true] on
   conflict (no row matches).

   A position is implied when every matching row agrees on a concrete
   value there: the output when the matching rows lie inside or outside
   the on-set, input [i] when they all carry [T] (or all [F]) at [i].
   With exactly one matching row this assigns the row's concrete values
   (Def. 2.2, both strategies); with several it is advanced implication
   (Def. 4.1), which simple implication skips.

   [examine_words] does this for a table of any width. [examine_word] is
   the same steps for a table of at most 63 rows, nearly every K <= 6
   function, with the matching rows in one register. It is kept beside
   [examine_words] because it shortens the guided phase end to end
   (DESIGN.md section 7, "The examination kernels"). *)
let examine_words t g (table : Rows.table) out_value fanins =
  let rows = match_rows t table out_value fanins in
  if rows = 0 then true
  else begin
    if t.cfg.Config.implication = Config.Advanced || rows = 1 then begin
      let m = t.matching and w = table.Rows.words and sets = table.Rows.sets in
      if out_value = Value.Unknown then begin
        if subset m sets Rows.on_rows w then set_implied t g true
        else if disjoint m sets Rows.on_rows w then set_implied t g false
      end;
      for i = 0 to Array.length fanins - 1 do
        let f = fanins.(i) in
        if t.vals.(f) = Value.Unknown then begin
          if subset m sets (t0 + (2 * i)) w then set_implied t f true
          else if subset m sets (t0 + (2 * i) + 1) w then set_implied t f false
        end
      done
    end;
    false
  end

let examine_word t g (table : Rows.table) out_value fanins =
  let sets = table.Rows.sets and vals = t.vals in
  let on = sets.(Rows.on_rows) in
  let m = ref sets.(Rows.all_rows) in
  (match out_value with
   | Value.One -> m := !m land on
   | Value.Zero -> m := !m land lnot on
   | Value.Unknown -> ());
  for i = 0 to Array.length fanins - 1 do
    match vals.(fanins.(i)) with
    | Value.One -> m := !m land lnot sets.(t0 + (2 * i) + 1)
    | Value.Zero -> m := !m land lnot sets.(t0 + (2 * i))
    | Value.Unknown -> ()
  done;
  let m = !m in
  if m = 0 then true
  else begin
    if t.cfg.Config.implication = Config.Advanced || m land (m - 1) = 0 then
    begin
      if out_value = Value.Unknown then begin
        if m land lnot on = 0 then set_implied t g true
        else if m land on = 0 then set_implied t g false
      end;
      for i = 0 to Array.length fanins - 1 do
        let f = fanins.(i) in
        if vals.(f) = Value.Unknown then begin
          if m land lnot sets.(t0 + (2 * i)) = 0 then set_implied t f true
          else if m land lnot sets.(t0 + (2 * i) + 1) = 0 then
            set_implied t f false
        end
      done
    end;
    false
  end

let examine t g =
  (* In backward-only mode implication is triggered by the output value
     alone (reverse simulation never reasons from partial inputs). *)
  let out_value = t.vals.(g) in
  if t.cfg.Config.direction = Config.Backward_only && out_value = Value.Unknown
  then false
  else begin
    let table = table_of t g and fanins = t.fanins.(g) in
    if table.Rows.words = 1 then examine_word t g table out_value fanins
    else examine_words t g table out_value fanins
  end

let rec drain t =
  let g = Worklist.pop t.queue in
  if g < 0 then Fixpoint
  else if examine t g then begin
    Worklist.clear t.queue;
    Conflict_at g
  end
  else drain t

let propagate t =
  match t.pending_conflict with
  | Some g ->
      t.pending_conflict <- None;
      Worklist.clear t.queue;
      Conflict_at g
  | None -> drain t

let checkpoint t = Assignment.checkpoint t.assignment

let rollback t mark =
  Assignment.rollback t.assignment mark;
  Worklist.clear t.queue;
  t.pending_conflict <- None

let num_implications t = t.implications
