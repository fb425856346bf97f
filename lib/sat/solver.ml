(* A MiniSat-style CDCL solver with Glucose-style clause-database management.

   Conventions: variables are ints from 0; literals follow [Literal]
   (2v / 2v+1). Assignment values are +1 (true), -1 (false), 0 (undefined)
   per variable. Watched literals are the first two literals of each
   clause.

   Clauses live in one flat [int array], the arena (MiniSat's clause
   allocator, Eén and Sörensson 2003): a clause is the offset of its
   header word, followed by its literals and, for a learnt clause, an
   activity slot. Reasons and watchers hold offsets, so an implication
   allocates nothing and no stored clause reference passes through the
   write barrier. Removed clauses stay in place until [compact] slides
   the live ones down.

   Watch lists are per-literal watcher arrays (MiniSat 2.2; Chu, Harwood
   and Stuckey 2009): [watches.(p)] holds the clauses watching [~p], each
   paired with a blocker literal drawn from the clause, which lets
   [propagate] settle a visit without reading the clause when the
   blocker is true.

   Clause lifetime: learned clauses are tagged with their LBD (literal
   block distance — the number of distinct decision levels among the
   literals, Audemard–Simon) at learn time and re-scored downwards when
   used in conflict analysis. [reduce_db] runs on a conflict schedule and
   deletes the worst half of the deletable learnts by (high LBD, low
   activity); glue clauses (LBD <= 2), binary clauses and reason clauses
   are never deleted. Problem clauses can be registered under a client
   group id and physically retracted with [remove_group]; [simplify]
   removes clauses satisfied at level 0 and rebuilds (compacts) every
   watch list. All deletions mark the clause removed and detach its
   watches immediately; the arena and the clause lists drop marked
   clauses at the next compaction, so retracting a group never pays an
   O(database) walk. *)

(* -------------------- clause arena -------------------- *)

(* A clause [c] is an offset into the arena. [arena.(c)] is its header:
   literal count from bit [size_shift] up, LBD (0 for problem clauses)
   in bits 2..31, the removed flag in bit 1 and the learnt flag in bit
   0. The literals follow at [c + 1 .. c + size]; a learnt clause then
   has one activity slot, a non-negative float stored as its IEEE bits
   with the (zero) sign bit dropped, which round-trips exactly. *)
type clause = int

let no_clause = -1 (* "no reason" and "no conflict" *)
let learnt_bit = 1
let removed_bit = 2
let lbd_shift = 2
let lbd_mask = (1 lsl 30) - 1
let size_shift = 32

let[@inline] csize a c = a.(c) lsr size_shift
let[@inline] is_learnt a c = a.(c) land learnt_bit <> 0
let[@inline] is_removed a c = a.(c) land removed_bit <> 0
let[@inline] clbd a c = (a.(c) lsr lbd_shift) land lbd_mask

let set_lbd a c l =
  a.(c) <- a.(c) land lnot (lbd_mask lsl lbd_shift) lor (l lsl lbd_shift)

(* Words the clause at [c] occupies: header, literals, activity slot. *)
let[@inline] footprint a c =
  let h = a.(c) in
  1 + (h lsr size_shift) + (h land learnt_bit)

let[@inline] act_slot a c = c + 1 + csize a c

let[@inline] float_of_slot x =
  Int64.float_of_bits (Int64.logand (Int64.of_int x) Int64.max_int)

let[@inline] slot_of_float f = Int64.to_int (Int64.bits_of_float f)

(* [Array.blit] between [int array]s outside the minor heap goes through
   [caml_modify] word by word; plain stores do not. Safe for overlapping
   ranges when [dst <= src], the only way the arena ever moves. *)
let copy_ints src so dst d n =
  for k = 0 to n - 1 do
    dst.(d + k) <- src.(so + k)
  done

(* A growable [int] list: [items.(0 .. count - 1)], oldest first. *)
type vec = { mutable items : int array; mutable count : int }

let new_vec () = { items = Array.make 16 0; count = 0 }

let push v x =
  if v.count = Array.length v.items then begin
    let items = Array.make (2 * v.count) 0 in
    copy_ints v.items 0 items 0 v.count;
    v.items <- items
  end;
  v.items.(v.count) <- x;
  v.count <- v.count + 1

(* The watchers of one literal: [cls.(i)] with blocker [blk.(i)], a
   literal of [cls.(i)], for [i < len]. *)
type watchers = {
  mutable cls : int array;
  mutable blk : int array;
  mutable len : int;
}

let new_watchers () = { cls = [||]; blk = [||]; len = 0 }

type proof_event = Learn of int array | Delete of int array

module Limits = struct
  type t = { conflicts : int option; propagations : int option }

  let unlimited = { conflicts = None; propagations = None }
  let conflicts n = { unlimited with conflicts = Some n }
end

type t = {
  mutable ok : bool;
  mutable arena : int array;
  mutable arena_top : int;             (* first free word *)
  mutable wasted : int;                (* words of removed clauses *)
  clauses : vec;                       (* problem clauses, oldest first *)
  learnts : vec;
  mutable watches : watchers array;    (* indexed by literal *)
  mutable assigns : int array;         (* per var: +1 / -1 / 0 *)
  mutable levels : int array;          (* per var *)
  mutable reasons : int array;         (* per var: clause or [no_clause] *)
  mutable activity : float array;
  mutable phase : bool array;          (* saved phase: last assigned sign *)
  mutable heap : int array;            (* binary max-heap of vars *)
  mutable heap_pos : int array;        (* var -> heap index, -1 if absent *)
  mutable heap_size : int;
  mutable trail : int array;           (* literals in assignment order *)
  mutable trail_size : int;
  mutable trail_lim : int array;       (* decision-level boundaries *)
  mutable trail_lim_size : int;
  mutable qhead : int;
  mutable nvars : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable seen : bool array;
  mutable proof : proof_event list option;  (* newest first *)
  mutable proof_len : int;  (* length of [proof]: cheap slicing for sessions *)
  mutable failed : int list;  (* failed assumptions of the last Unsat *)
  groups : (int, clause list) Hashtbl.t;  (* retractable problem clauses *)
  (* clause-database state *)
  mutable num_clauses : int;   (* live problem clauses on [clauses] *)
  mutable num_learnts : int;   (* live learnt clauses on [learnts] *)
  mutable garbage : int;       (* problem clauses retracted since [simplify] *)
  mutable next_reduce : int;   (* conflict count scheduling [reduce_db] *)
  mutable lbd_mark : int array; (* per level: stamp scratch for LBD *)
  mutable lbd_stamp : int;
  mutable simp_assigns : int;  (* root trail size at the last [simplify] *)
  mutable simp_next : int;     (* propagation count gating auto-simplify *)
  (* restart state: the Luby sequence continues across [solve] calls so
     that assumption-heavy incremental use (many short queries on one
     instance) still restarts — a per-call budget would reset before the
     first restart fires (the BENCH_SAT_SESSION "restarts: 0" bug). *)
  mutable restart_seq : int;
  mutable restart_budget : int;
  (* decision focus: when [focus_on], branching is restricted to the
     variables flagged in [focus_flag] ([focus_vars] lists them so the
     next focus switch clears the flags in O(|focus|)). Variables popped
     off the order heap while out of focus stay out until a later
     [focus_decisions] brings them into focus and re-inserts them. *)
  mutable focus_on : bool;
  mutable focus_flag : bool array;
  mutable focus_vars : int list;
  (* solver-state sanitizer (R007..R013): [audit_every] > 0 samples the
     cheap audit every that many conflicts inside [solve_limited];
     [audit_counters] shadows the monotone counters between audits;
     [fence_off] is a test-only switch that disables the decision-focus
     propagation fence so the R010 check has something to catch. *)
  mutable audit_every : int;
  mutable audit_counters : int array;
  mutable fence_off : bool;
  (* statistics *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable watch_visits : int;  (* watchers visited by [propagate] *)
  mutable clause_reads : int;  (* of those, visits that opened the clause *)
  mutable restarts : int;
  mutable learned_total : int;
  mutable deleted_total : int;  (* learnt clauses deleted *)
  mutable removed_total : int;  (* problem clauses retracted / simplified away *)
  mutable reductions : int;
  mutable compactions : int;
  (* live learnt-clause counts per LBD tier (core <= 2 < mid <= 6 < local) *)
  mutable lbd_core : int;
  mutable lbd_mid : int;
  mutable lbd_local : int;
}

type result = Sat | Unsat

let restart_base = 100
let reduce_first = 2000
let reduce_step = 300

let create () =
  {
    ok = true;
    arena = Array.make 256 0;
    arena_top = 0;
    wasted = 0;
    clauses = new_vec ();
    learnts = new_vec ();
    watches = Array.init 16 (fun _ -> new_watchers ());
    assigns = Array.make 8 0;
    levels = Array.make 8 0;
    reasons = Array.make 8 no_clause;
    activity = Array.make 8 0.0;
    phase = Array.make 8 false;
    heap = Array.make 8 0;
    heap_pos = Array.make 8 (-1);
    heap_size = 0;
    trail = Array.make 8 0;
    trail_size = 0;
    trail_lim = Array.make 8 0;
    trail_lim_size = 0;
    qhead = 0;
    nvars = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    seen = Array.make 8 false;
    proof = None;
    proof_len = 0;
    failed = [];
    groups = Hashtbl.create 64;
    num_clauses = 0;
    num_learnts = 0;
    garbage = 0;
    next_reduce = reduce_first;
    lbd_mark = Array.make 8 0;
    lbd_stamp = 0;
    simp_assigns = 0;
    simp_next = 0;
    restart_seq = 0;
    restart_budget = restart_base;
    focus_on = false;
    focus_flag = Array.make 8 false;
    focus_vars = [];
    audit_every = 0;
    audit_counters = [||];
    fence_off = false;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    watch_visits = 0;
    clause_reads = 0;
    restarts = 0;
    learned_total = 0;
    deleted_total = 0;
    removed_total = 0;
    reductions = 0;
    compactions = 0;
    lbd_core = 0;
    lbd_mid = 0;
    lbd_local = 0;
  }

let num_vars s = s.nvars

let enable_proof s = if s.proof = None then s.proof <- Some []

let logging s = match s.proof with None -> false | Some _ -> true

(* Callers building an event test [logging] first, so an unlogged run
   never copies or sorts a clause for the proof. *)
let log_proof s event =
  match s.proof with
  | None -> ()
  | Some events ->
      s.proof <- Some (event :: events);
      s.proof_len <- s.proof_len + 1

let sorted lits =
  Array.sort compare lits;
  lits

let log_delete s c =
  log_proof s (Delete (sorted (Array.sub s.arena (c + 1) (csize s.arena c))))

let proof_events s =
  match s.proof with None -> [] | Some events -> List.rev events

let proof_event_count s = s.proof_len

(* Events with (oldest-first) index >= [i]: the per-query slices of an
   incremental session's certificate. The list is newest first, so the
   slice is the first [proof_len - i] elements, reversed. *)
let proof_events_from s i =
  match s.proof with
  | None -> []
  | Some events ->
      let rec take n acc = function
        | e :: rest when n > 0 -> take (n - 1) (e :: acc) rest
        | _ -> acc
      in
      take (s.proof_len - i) [] events

(* -------------------- dynamic array growth -------------------- *)

let grow arr n fill =
  if Array.length arr >= n then arr
  else begin
    let arr' = Array.make (max n (2 * Array.length arr)) fill in
    Array.blit arr 0 arr' 0 (Array.length arr);
    arr'
  end

(* -------------------- variable order heap -------------------- *)

let heap_less s a b = s.activity.(a) > s.activity.(b)

let heap_swap s i j =
  let vi = s.heap.(i) and vj = s.heap.(j) in
  s.heap.(i) <- vj;
  s.heap.(j) <- vi;
  s.heap_pos.(vj) <- i;
  s.heap_pos.(vi) <- j

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_less s s.heap.(i) s.heap.(p) then begin
      heap_swap s i p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && heap_less s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_size && heap_less s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap <- grow s.heap (s.heap_size + 1) 0;
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    heap_up s s.heap_pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_size > 0 then begin
    let last = s.heap.(s.heap_size) in
    s.heap.(0) <- last;
    s.heap_pos.(last) <- 0;
    heap_down s 0
  end;
  v

let heap_decrease s v = if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

(* -------------------- variables -------------------- *)

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  s.assigns <- grow s.assigns s.nvars 0;
  s.levels <- grow s.levels s.nvars 0;
  s.reasons <- grow s.reasons s.nvars no_clause;
  s.activity <- grow s.activity s.nvars 0.0;
  s.phase <- grow s.phase s.nvars false;
  s.heap_pos <- grow s.heap_pos s.nvars (-1);
  s.seen <- grow s.seen s.nvars false;
  s.focus_flag <- grow s.focus_flag s.nvars false;
  s.trail <- grow s.trail s.nvars 0;
  if Array.length s.watches < 2 * s.nvars then begin
    let old = s.watches in
    s.watches <-
      Array.init (2 * Array.length old) (fun l ->
          if l < Array.length old then old.(l) else new_watchers ())
  end;
  s.lbd_mark <- grow s.lbd_mark (s.nvars + 1) 0;
  heap_insert s v;
  v

(* [Literal.var] and [Literal.sign] spelled out, here and in
   [propagate]: the dev profile compiles with -opaque, which keeps
   cross-module calls out of line, and both sit in the innermost loop
   (hence also the [@inline]). *)
let[@inline] lit_value s l =
  let v = s.assigns.(l lsr 1) in
  if l land 1 = 1 then -v else v

(* -------------------- trail -------------------- *)

let decision_level s = s.trail_lim_size

let enqueue s l reason =
  let v = Literal.var l in
  s.assigns.(v) <- (if Literal.sign l then -1 else 1);
  s.levels.(v) <- decision_level s;
  s.reasons.(v) <- reason;
  s.phase.(v) <- Literal.sign l;
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

let new_decision_level s =
  s.trail_lim <- grow s.trail_lim (s.trail_lim_size + 1) 0;
  s.trail_lim.(s.trail_lim_size) <- s.trail_size;
  s.trail_lim_size <- s.trail_lim_size + 1

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_size - 1 downto bound do
      let v = Literal.var s.trail.(i) in
      s.assigns.(v) <- 0;
      s.reasons.(v) <- no_clause;
      if (not s.focus_on) || s.focus_flag.(v) then heap_insert s v
    done;
    s.trail_size <- bound;
    s.qhead <- bound;
    s.trail_lim_size <- lvl
  end

(* -------------------- decision focus -------------------- *)

module Runtime_check = Simgen_base.Runtime_check

(* Decision heap: heap/heap_pos form a bijection and the max-heap
   property holds under the current activities. Part of the solver-state
   sanitizer (see the audit section below); defined here so the focus
   switches can re-check the heap they just rebuilt. *)
let audit_heap s =
  for i = 0 to s.heap_size - 1 do
    let v = s.heap.(i) in
    if v < 0 || v >= s.nvars then
      Runtime_check.failf "R009: heap entry %d out of range" v
    else begin
      if s.heap_pos.(v) <> i then
        Runtime_check.failf
          "R009: heap_pos.(%d) = %d but the variable sits at index %d" v
          s.heap_pos.(v) i;
      if i > 0 && heap_less s v s.heap.((i - 1) / 2) then
        Runtime_check.failf
          "R009: heap property violated at index %d (var %d outranks its \
           parent)"
          i v
    end
  done;
  for v = 0 to s.nvars - 1 do
    let p = s.heap_pos.(v) in
    if p >= 0 && (p >= s.heap_size || s.heap.(p) <> v) then
      Runtime_check.failf "R009: stale heap_pos.(%d) = %d" v p
  done

let focus_decisions s vars =
  List.iter (fun v -> s.focus_flag.(v) <- false) s.focus_vars;
  List.iter
    (fun v ->
      s.focus_flag.(v) <- true;
      if s.assigns.(v) = 0 then heap_insert s v)
    vars;
  s.focus_vars <- vars;
  s.focus_on <- true;
  if s.audit_every > 0 then audit_heap s



(* -------------------- clause attachment -------------------- *)

(* Append watcher [(c, blocker)] to the watchers of literal [l]. *)
let watch s l c blocker =
  let w = s.watches.(l) in
  if w.len = Array.length w.cls then begin
    let cap = max 4 (2 * w.len) in
    let cls = Array.make cap 0 and blk = Array.make cap 0 in
    copy_ints w.cls 0 cls 0 w.len;
    copy_ints w.blk 0 blk 0 w.len;
    w.cls <- cls;
    w.blk <- blk
  end;
  w.cls.(w.len) <- c;
  w.blk.(w.len) <- blocker;
  w.len <- w.len + 1

(* Each watch starts with the other watched literal as its blocker. *)
let attach s c =
  let l0 = s.arena.(c + 1) and l1 = s.arena.(c + 2) in
  watch s (Literal.negate l0) c l1;
  watch s (Literal.negate l1) c l0

(* Remove [c] from the watchers of [l], keeping the order of the rest. *)
let unwatch s l c =
  let w = s.watches.(l) in
  let j = ref 0 in
  for i = 0 to w.len - 1 do
    if w.cls.(i) <> c then begin
      w.cls.(!j) <- w.cls.(i);
      w.blk.(!j) <- w.blk.(i);
      incr j
    end
  done;
  w.len <- !j

let detach s c =
  unwatch s (Literal.negate s.arena.(c + 1)) c;
  unwatch s (Literal.negate s.arena.(c + 2)) c

(* -------------------- arena allocation -------------------- *)

(* Store a clause of the [n] literals of [lits], in list order, and
   return its offset. A full arena grows by half. *)
let alloc s ~learnt ~lbd n lits =
  let words = 1 + n + if learnt then 1 else 0 in
  let top = s.arena_top + words in
  if top > Array.length s.arena then begin
    let arena = Array.make (max top (Array.length s.arena * 3 / 2)) 0 in
    copy_ints s.arena 0 arena 0 s.arena_top;
    s.arena <- arena
  end;
  let a = s.arena and c = s.arena_top in
  a.(c) <-
    (n lsl size_shift) lor (lbd lsl lbd_shift)
    lor if learnt then learnt_bit else 0;
  List.iteri (fun k l -> a.(c + 1 + k) <- l) lits;
  if learnt then a.(c + 1 + n) <- slot_of_float 0.0;
  s.arena_top <- top;
  c

(* Flag [c] removed; its words are reclaimed by the next [compact]. *)
let mark_removed s c =
  s.arena.(c) <- s.arena.(c) lor removed_bit;
  s.wasted <- s.wasted + footprint s.arena c

(* Slide the live clauses down over the removed ones, in address order
   and in place, then rewrite every stored offset — clause lists,
   groups, reasons and watchers — by binary search over the moved
   clauses. Dead entries leave the clause lists and groups here;
   everything else keeps its relative order, so the search is
   unchanged. *)
let compact s =
  let a = s.arena in
  let live = ref 0 and c = ref 0 in
  while !c < s.arena_top do
    if not (is_removed a !c) then incr live;
    c := !c + footprint a !c
  done;
  let n = !live in
  let olds = Array.make n 0 and news = Array.make n 0 in
  let k = ref 0 and src = ref 0 and dst = ref 0 in
  while !src < s.arena_top do
    let words = footprint a !src in
    if not (is_removed a !src) then begin
      olds.(!k) <- !src;
      news.(!k) <- !dst;
      incr k;
      if !dst < !src then copy_ints a !src a !dst words;
      dst := !dst + words
    end;
    src := !src + words
  done;
  s.arena_top <- !dst;
  s.wasted <- 0;
  let remap c =
    let lo = ref 0 and hi = ref (n - 1) and r = ref no_clause in
    while !lo <= !hi do
      let mid = (!lo + !hi) lsr 1 in
      let o = olds.(mid) in
      if o < c then lo := mid + 1
      else if o > c then hi := mid - 1
      else begin
        r := news.(mid);
        lo := !hi + 1
      end
    done;
    !r
  in
  let remap_vec v =
    let j = ref 0 in
    for i = 0 to v.count - 1 do
      let c = remap v.items.(i) in
      if c <> no_clause then begin
        v.items.(!j) <- c;
        incr j
      end
    done;
    v.count <- !j
  in
  remap_vec s.clauses;
  remap_vec s.learnts;
  Hashtbl.filter_map_inplace
    (fun _ cs ->
      match List.map remap cs |> List.filter (fun c -> c <> no_clause) with
      | [] -> None
      | cs -> Some cs)
    s.groups;
  for v = 0 to s.nvars - 1 do
    if s.reasons.(v) <> no_clause then s.reasons.(v) <- remap s.reasons.(v)
  done;
  Array.iter
    (fun w ->
      for i = 0 to w.len - 1 do
        w.cls.(i) <- remap w.cls.(i)
      done)
    s.watches

(* -------------------- LBD -------------------- *)

(* Number of distinct non-root decision levels among assigned literals.
   Every literal of a learnt clause is assigned when this is called
   (conflict analysis computes it before backjumping; re-scoring happens
   on reason/conflict clauses, whose literals are all assigned). *)
let count_level s l n stamp =
  let lvl = s.levels.(Literal.var l) in
  if lvl > 0 && s.lbd_mark.(lvl) <> stamp then begin
    s.lbd_mark.(lvl) <- stamp;
    incr n
  end

let lbd_of_clause s c =
  s.lbd_stamp <- s.lbd_stamp + 1;
  let n = ref 0 and a = s.arena in
  for k = c + 1 to c + csize a c do
    count_level s a.(k) n s.lbd_stamp
  done;
  max 1 !n

let lbd_of_list s lits =
  s.lbd_stamp <- s.lbd_stamp + 1;
  let n = ref 0 in
  List.iter (fun l -> count_level s l n s.lbd_stamp) lits;
  max 1 !n

let tier_incr s lbd =
  if lbd <= 2 then s.lbd_core <- s.lbd_core + 1
  else if lbd <= 6 then s.lbd_mid <- s.lbd_mid + 1
  else s.lbd_local <- s.lbd_local + 1

let tier_decr s lbd =
  if lbd <= 2 then s.lbd_core <- s.lbd_core - 1
  else if lbd <= 6 then s.lbd_mid <- s.lbd_mid - 1
  else s.lbd_local <- s.lbd_local - 1

(* -------------------- activities -------------------- *)

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  heap_decrease s v

let var_decay s = s.var_inc <- s.var_inc /. 0.95

let[@inline] clause_activity a c = float_of_slot a.(act_slot a c)

let set_clause_activity a c x = a.(act_slot a c) <- slot_of_float x

let cla_bump s c =
  let a = s.arena in
  let act = clause_activity a c +. s.cla_inc in
  set_clause_activity a c act;
  if act > 1e20 then begin
    for i = 0 to s.learnts.count - 1 do
      let c = s.learnts.items.(i) in
      set_clause_activity a c (clause_activity a c *. 1e-20)
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let cla_decay s = s.cla_inc <- s.cla_inc /. 0.999

(* -------------------- propagation -------------------- *)

(* Unit propagation to a fixpoint; returns the conflict clause, or
   [no_clause] when there is none.

   The decision-focus fence (see {!focus_decisions}): in a focused call
   above the root, a clause that becomes unit on an out-of-focus literal
   does not propagate it. Skipping it freezes the clause for the rest of
   the call: the variable is never assigned (decisions cannot reach it,
   and every implication on it is skipped the same way), so the clause
   cannot be falsified later and no conflict is missed. Root-level
   implications are always propagated, so nothing permanent is ever
   lost. This is what keeps a focused query from dragging the whole
   accumulated variable space of an incremental session through every
   search pass; exactness is the focus contract: out-of-focus variables
   are the caller's to guarantee extendable.

   A visit whose blocker is true is settled without reading the clause;
   an opened clause whose other watch is true is kept, with that watch
   as its new blocker, before any scan for a replacement watch. The
   arena does not move here (nothing is allocated), so it is read
   through one local. *)
let propagate s =
  let confl = ref no_clause in
  let visits = ref 0 and reads = ref 0 in
  let fenced = s.focus_on && s.trail_lim_size > 0 && not s.fence_off in
  let a = s.arena in
  while s.qhead < s.trail_size do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    (* Watchers of ~p: p became true, so ~p became false. *)
    let false_lit = p lxor 1 in
    let ws = s.watches.(p) in
    let cls = ws.cls and blk = ws.blk and n = ws.len in
    (* Watcher [!i] is visited and kept at [!j <= !i]. *)
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = cls.(!i) and b = blk.(!i) in
      incr visits;
      if lit_value s b = 1 then begin
        cls.(!j) <- c;
        blk.(!j) <- b;
        incr j
      end
      else begin
        incr reads;
        (* Make sure the false literal is the second one. *)
        if a.(c + 1) = false_lit then begin
          a.(c + 1) <- a.(c + 2);
          a.(c + 2) <- false_lit
        end;
        let first = a.(c + 1) in
        let vf = lit_value s first in
        if vf = 1 then begin
          cls.(!j) <- c;
          blk.(!j) <- first;
          incr j
        end
        else begin
          (* Look for a new literal to watch. *)
          let stop = c + 1 + csize a c in
          let k = ref (c + 3) in
          while !k < stop && lit_value s a.(!k) = -1 do
            incr k
          done;
          if !k < stop then begin
            let l = a.(!k) in
            a.(c + 2) <- l;
            a.(!k) <- false_lit;
            watch s (l lxor 1) c first
          end
          else begin
            cls.(!j) <- c;
            blk.(!j) <- first;
            incr j;
            if vf = -1 then begin
              (* Conflict: keep the unvisited watchers and stop. *)
              let rest = n - !i - 1 in
              if !j <= !i then begin
                copy_ints cls (!i + 1) cls !j rest;
                copy_ints blk (!i + 1) blk !j rest
              end;
              j := !j + rest;
              i := n - 1;
              s.qhead <- s.trail_size;
              confl := c
            end
            else if not (fenced && not s.focus_flag.(first lsr 1)) then
              enqueue s first c
          end
        end
      end;
      incr i
    done;
    ws.len <- !j
  done;
  s.watch_visits <- s.watch_visits + !visits;
  s.clause_reads <- s.clause_reads + !reads;
  !confl

(* -------------------- clause addition -------------------- *)

let add_clause ?group s lits =
  if decision_level s <> 0 then
    invalid_arg "Solver.add_clause: only at decision level 0";
  if s.ok then begin
    (* Simplify: drop duplicates and false literals, detect tautologies and
       satisfied clauses. *)
    let lits = List.sort_uniq compare lits in
    let tautology =
      let rec check = function
        | a :: (b :: _ as rest) ->
            (a lxor b) = 1 || check rest
        | _ -> false
      in
      check lits
    in
    if not tautology then begin
      let lits = List.filter (fun l -> lit_value s l <> -1) lits in
      let satisfied = List.exists (fun l -> lit_value s l = 1) lits in
      if not satisfied then
        match lits with
        | [] ->
            log_proof s (Learn [||]);
            s.ok <- false
        | [ l ] ->
            enqueue s l no_clause;
            if propagate s <> no_clause then begin
              log_proof s (Learn [||]);
              s.ok <- false
            end
        | lits ->
            let c = alloc s ~learnt:false ~lbd:0 (List.length lits) lits in
            push s.clauses c;
            s.num_clauses <- s.num_clauses + 1;
            (match group with
             | None -> ()
             | Some g ->
                 let prev =
                   match Hashtbl.find_opt s.groups g with
                   | None -> []
                   | Some cs -> cs
                 in
                 Hashtbl.replace s.groups g (c :: prev));
            attach s c
    end
  end

(* -------------------- conflict analysis -------------------- *)

(* Is [l]'s variable redundant in the learned clause, i.e. implied by other
   seen literals? Depth-bounded recursive check (clause minimisation).
   Variables marked seen during the check are recorded in [to_clear]. *)
let rec lit_redundant s abstract_levels to_clear l depth =
  if depth > 40 then false
  else
    let c = s.reasons.(Literal.var l) in
    if c = no_clause then false
    else begin
      let ok = ref true and a = s.arena in
      for k = c + 1 to c + csize a c do
        let q = a.(k) in
        let v = Literal.var q in
        if !ok && v <> Literal.var l && s.levels.(v) > 0 then
          if s.seen.(v) then ()
          else if
            (abstract_levels lsr (s.levels.(v) land 31)) land 1 = 1
            && lit_redundant s abstract_levels to_clear q (depth + 1)
          then begin
            s.seen.(v) <- true;
            to_clear := v :: !to_clear
          end
          else ok := false
      done;
      !ok
    end

let analyze s confl =
  let learnt = ref [] in
  let path_count = ref 0 in
  let p = ref (-1) in
  let index = ref (s.trail_size - 1) in
  let confl = ref confl in
  let to_clear = ref [] in
  let continue = ref true in
  let a = s.arena in
  while !continue do
    let c = !confl in
    assert (c <> no_clause);
    if is_learnt a c then begin
      cla_bump s c;
      (* Glucose-style re-scoring: a clause seen in conflict analysis
         whose current LBD is better than recorded is promoted. *)
      let lbd = clbd a c in
      if lbd > 2 then begin
        let l = lbd_of_clause s c in
        if l < lbd then begin
          tier_decr s lbd;
          tier_incr s l;
          set_lbd a c l
        end
      end
    end;
    for k = c + 1 to c + csize a c do
      let q = a.(k) in
      let v = Literal.var q in
      if (!p < 0 || q <> !p) && (not s.seen.(v)) && s.levels.(v) > 0
      then begin
        s.seen.(v) <- true;
        to_clear := v :: !to_clear;
        var_bump s v;
        if s.levels.(v) >= decision_level s then incr path_count
        else learnt := q :: !learnt
      end
    done;
    (* Select next literal from the trail. *)
    let rec back i =
      if s.seen.(Literal.var s.trail.(i)) then i else back (i - 1)
    in
    index := back !index;
    let q = s.trail.(!index) in
    p := q;
    s.seen.(Literal.var q) <- false;
    confl := s.reasons.(Literal.var q);
    decr path_count;
    index := !index - 1;
    if !path_count <= 0 then continue := false
  done;
  let uip = Literal.negate !p in
  (* Minimise: drop redundant literals. *)
  let abstract_levels =
    List.fold_left
      (fun acc l -> acc lor (1 lsl (s.levels.(Literal.var l) land 31)))
      0 !learnt
  in
  let minimized =
    List.filter
      (fun l -> not (lit_redundant s abstract_levels to_clear l 0))
      !learnt
  in
  (* Backjump level: highest level among remaining non-UIP literals. *)
  let back_level =
    List.fold_left (fun acc l -> max acc (s.levels.(Literal.var l))) 0 minimized
  in
  List.iter (fun v -> s.seen.(v) <- false) !to_clear;
  (uip :: minimized, back_level)

(* -------------------- clause database -------------------- *)

let locked s c = s.reasons.(Literal.var s.arena.(c + 1)) = c

(* Stop [c] being a reason, before it is removed. The unit it implied
   stays on the trail, so a proof logs it first: a later deletion of [c]
   then leaves the unit derived. *)
let unlock s c =
  if locked s c then begin
    if logging s then log_proof s (Learn [| s.arena.(c + 1) |]);
    s.reasons.(Literal.var s.arena.(c + 1)) <- no_clause
  end

(* LBD-tiered reduction: sort so deletion candidates come first (high
   LBD, then low activity) and delete half the database. Glue clauses
   (LBD <= 2), binary clauses and reasons of current assignments always
   survive. Runs on a conflict schedule that lengthens with every
   reduction, independent of [solve]-call boundaries. A reduction that
   leaves a fifth of the arena dead compacts it; a single long [solve]
   never reaches [simplify], so without this the arena would keep every
   clause ever learnt. *)
let reduce_db s =
  s.reductions <- s.reductions + 1;
  let a = s.arena and l = s.learnts in
  let n = l.count in
  (* Sorted newest first, as the learnt list always was: [Array.sort]
     is not stable, so its input order is part of the outcome. *)
  let arr = Array.init n (fun i -> l.items.(n - 1 - i)) in
  Array.sort
    (fun x y ->
      let lx = clbd a x and ly = clbd a y in
      if lx <> ly then compare ly lx
      else compare (clause_activity a x) (clause_activity a y))
    arr;
  let limit = n / 2 in
  l.count <- 0;
  Array.iteri
    (fun i c ->
      if i < limit && clbd a c > 2 && csize a c > 2 && not (locked s c)
      then begin
        if logging s then log_delete s c;
        detach s c;
        mark_removed s c;
        s.num_learnts <- s.num_learnts - 1;
        s.deleted_total <- s.deleted_total + 1;
        tier_decr s (clbd a c)
      end
      else push l c)
    arr;
  if 5 * s.wasted > s.arena_top then compact s

(* Physically retract every clause of group [g]. Only at level 0. The
   clauses are detached now and leave the arena at the next compaction;
   a clause acting as the reason for a root-level implication loses the
   reason (the implication itself stays on the trail — it remains a
   consequence of the theory the client retracted from). No deletion is
   logged: a proof checker that keeps a retracted clause only gets
   stronger. Returns the number of clauses removed. *)
let remove_group s g =
  if decision_level s <> 0 then
    invalid_arg "Solver.remove_group: only at decision level 0";
  match Hashtbl.find_opt s.groups g with
  | None -> 0
  | Some cs ->
      Hashtbl.remove s.groups g;
      let n = ref 0 in
      List.iter
        (fun c ->
          if not (is_removed s.arena c) then begin
            unlock s c;
            detach s c;
            mark_removed s c;
            s.num_clauses <- s.num_clauses - 1;
            s.removed_total <- s.removed_total + 1;
            s.garbage <- s.garbage + 1;
            incr n
          end)
        cs;
      !n

(* Re-attach with two non-false literals in the watch slots. At a root
   fixpoint every live, unsatisfied clause has at least two non-false
   literals (one non-false would have propagated and satisfied it). *)
let reattach s c =
  let a = s.arena in
  let stop = c + 1 + csize a c in
  let pos = ref (c + 1) and i = ref (c + 1) in
  while !pos < c + 3 && !i < stop do
    if lit_value s a.(!i) <> -1 then begin
      let tmp = a.(!pos) in
      a.(!pos) <- a.(!i);
      a.(!i) <- tmp;
      incr pos
    end;
    incr i
  done;
  attach s c

(* Remove clauses satisfied at level 0 and compact: slide the arena
   down, drop removed clauses from the lists and rebuild every watch
   list from scratch. The watch rebuild is what makes retirement GC pay
   — watch lists stop carrying clauses that level-0 units satisfied long
   ago (and, since every watcher is rebuilt, a clause removed here is
   not detached first). Deletions of learnt clauses are recorded in the
   proof; dropping a *problem* clause from the checker's view is never
   required for soundness (keeping it only strengthens unit
   propagation), so problem-clause removals are not logged here. *)
let simplify s =
  if decision_level s <> 0 then
    invalid_arg "Solver.simplify: only at decision level 0";
  if s.ok then begin
    if propagate s <> no_clause then begin
      log_proof s (Learn [||]);
      s.ok <- false
    end;
    if s.ok then begin
      let live_lits = ref 0 and a = s.arena in
      let satisfied c =
        let stop = c + 1 + csize a c in
        let rec go k = k < stop && (lit_value s a.(k) = 1 || go (k + 1)) in
        go (c + 1)
      in
      (* Newest first, the order the clause lists have always been
         walked in (it orders the learnt deletions in the proof). *)
      let sweep v =
        for i = v.count - 1 downto 0 do
          let c = v.items.(i) in
          if not (is_removed a c) then
            if satisfied c then begin
              unlock s c;
              if is_learnt a c then begin
                if logging s then log_delete s c;
                s.num_learnts <- s.num_learnts - 1;
                s.deleted_total <- s.deleted_total + 1;
                tier_decr s (clbd a c)
              end
              else begin
                s.num_clauses <- s.num_clauses - 1;
                s.removed_total <- s.removed_total + 1
              end;
              mark_removed s c
            end
            else live_lits := !live_lits + csize a c
        done
      in
      sweep s.clauses;
      sweep s.learnts;
      s.garbage <- 0;
      (* Drop the old arrays rather than clear them: reattaching regrows
         each to within 2x of its live size, so no literal keeps the
         capacity of its busiest moment (peak RSS on stacked sessions). *)
      Array.iter
        (fun w ->
          w.cls <- [||];
          w.blk <- [||];
          w.len <- 0)
        s.watches;
      compact s;
      let reattach_all v =
        for i = v.count - 1 downto 0 do
          reattach s v.items.(i)
        done
      in
      reattach_all s.clauses;
      reattach_all s.learnts;
      s.qhead <- s.trail_size;
      s.compactions <- s.compactions + 1;
      s.simp_assigns <- s.trail_size;
      s.simp_next <- s.propagations + !live_lits
    end
  end

(* Auto-GC at solve entry, MiniSat's simplify discipline: only worth the
   O(database) walk when new root facts arrived and enough propagation
   happened to amortise it, or when lazy removals left the clause list
   dominated by garbage. *)
let maybe_simplify s =
  if s.ok && decision_level s = 0 then begin
    let garbage_heavy =
      s.garbage > 100 && s.garbage * 4 > s.num_clauses + s.num_learnts
    in
    if
      garbage_heavy
      || (s.trail_size > s.simp_assigns && s.propagations >= s.simp_next)
    then simplify s
  end

(* -------------------- search -------------------- *)

let luby k =
  (* Luby restart sequence (1,1,2,1,1,2,4,...). *)
  let rec find size seq =
    if size >= k + 1 then (size, seq) else find ((2 * size) + 1) (seq + 1)
  in
  let size, seq = find 1 0 in
  let rec shrink size seq k =
    if size - 1 = k then seq
    else
      let size = (size - 1) / 2 in
      shrink size (seq - 1) (k mod size)
  in
  1 lsl shrink size seq k

(* Under focus, variables popped here that are out of focus are simply
   dropped from the heap; [focus_decisions] puts them back when they
   come into focus. *)
let pick_branch_var s =
  let rec go () =
    if s.heap_size = 0 then -1
    else
      let v = heap_pop s in
      if s.assigns.(v) = 0 && ((not s.focus_on) || s.focus_flag.(v)) then v
      else go ()
  in
  go ()

(* MiniSat's analyzeFinal: the assumption [a] was found false during
   [solve ~assumptions]; collect the subset of the assumptions its
   falsification depends on. Walk the implication graph backwards from
   [a]'s falsifying assignment; every *decision* reached is one of the
   failed assumptions (assumptions are always decided below any branch
   decision, so a decision in the chain cannot be a branching pick). *)
let analyze_final s a =
  let v0 = Literal.var a in
  if decision_level s = 0 || s.levels.(v0) = 0 then [ a ]
  else begin
    let failed = ref [ a ] in
    s.seen.(v0) <- true;
    for i = s.trail_size - 1 downto s.trail_lim.(0) do
      let v = Literal.var s.trail.(i) in
      if s.seen.(v) then begin
        let c = s.reasons.(v) in
        if c = no_clause then begin
          if v <> v0 then failed := s.trail.(i) :: !failed
        end
        else
          for k = c + 1 to c + csize s.arena c do
            let vq = Literal.var s.arena.(k) in
            if s.levels.(vq) > 0 then s.seen.(vq) <- true
          done;
        s.seen.(v) <- false
      end
    done;
    s.seen.(v0) <- false;
    !failed
  end

(* -------------------- solver-state sanitizer -------------------- *)

(* R007..R013 invariant audits reported through {!Runtime_check}.
   [audit_light] is the sampled subset — O(trail + heap + nvars) — run
   from the conflict branch of [solve_limited] while the trail is still
   intact (propagation keeps every watcher before returning a conflict,
   so the watch invariant holds there too); [audit] is the full
   on-demand pass, adding the O(database) watch-list walk. *)

let counter_snapshot s =
  [|
    s.conflicts;
    s.decisions;
    s.propagations;
    s.watch_visits;
    s.clause_reads;
    s.restarts;
    s.learned_total;
    s.deleted_total;
    s.removed_total;
    s.reductions;
    s.compactions;
  |]

let counter_names =
  [|
    "conflicts";
    "decisions";
    "propagations";
    "watch_visits";
    "clause_reads";
    "restarts";
    "learned";
    "deleted";
    "removed";
    "reductions";
    "compactions";
  |]

let audit_stats s =
  let now = counter_snapshot s in
  if Array.length s.audit_counters = Array.length now then
    Array.iteri
      (fun i prev ->
        if now.(i) < prev then
          Runtime_check.failf "R012: monotone counter %s regressed %d -> %d"
            counter_names.(i) prev now.(i))
      s.audit_counters;
  s.audit_counters <- now

(* Every trail literal is true; every implication's reason clause is
   actually unit under its trail prefix: it implies its first literal
   with every other literal false, and it has not been detached. *)
let audit_trail s =
  for i = 0 to s.trail_size - 1 do
    let l = s.trail.(i) in
    let v = Literal.var l in
    if lit_value s l <> 1 then
      Runtime_check.failf "R008: trail literal %d is not assigned true" l;
    let c = s.reasons.(v) and a = s.arena in
    if c <> no_clause then
      if c < 0 || c >= s.arena_top then
        Runtime_check.failf
          "R008: reason of literal %d lies outside the clause arena" l
      else begin
        if is_removed a c then
          Runtime_check.failf
            "R008: detached clause is still the reason of literal %d" l;
        if csize a c = 0 || a.(c + 1) <> l then
          Runtime_check.failf
            "R008: reason clause of literal %d does not have it first" l;
        for k = c + 2 to c + csize a c do
          if lit_value s a.(k) <> -1 then
            Runtime_check.failf
              "R008: reason clause of literal %d is not unit (literal %d \
               unfalsified)"
              l a.(k)
        done
      end
  done

(* Fence soundness (the PR-7 decision-focus argument, machine-checked):
   during a focused call no out-of-focus variable may be *implied* above
   the root — reason-less assignments are decisions/assumptions, which
   the caller controls (the activation literal is legitimately out of
   focus). *)
let audit_fence s =
  if s.focus_on && s.trail_lim_size > 0 then
    for i = s.trail_lim.(0) to s.trail_size - 1 do
      let v = Literal.var s.trail.(i) in
      if s.reasons.(v) <> no_clause && not s.focus_flag.(v) then
        Runtime_check.failf
          "R010: out-of-focus variable %d implied above the root" v
    done

(* Index of [c] among the watchers of literal [l], or -1. *)
let find_watcher s l c =
  let w = s.watches.(l) in
  let rec go i =
    if i >= w.len then -1 else if w.cls.(i) = c then i else go (i + 1)
  in
  go 0

let has_lit a c l =
  let rec go k = k <= c + csize a c && (a.(k) = l || go (k + 1)) in
  go (c + 1)

(* Watch integrity: every live >= 2-literal clause is watched on the
   negations of its first two literals and on nothing else, and every
   watcher's blocker is a literal of its clause (a visit settled on the
   blocker trusts that); no detached clause lingers on any watcher
   array; at a root fixpoint a watched literal false at the root has a
   true blocker (otherwise the clause should have propagated or
   conflicted). *)
let audit_watches s =
  let a = s.arena in
  Array.iteri
    (fun l w ->
      for i = 0 to w.len - 1 do
        let c = w.cls.(i) in
        if c < 0 || c >= s.arena_top then
          Runtime_check.failf
            "R007: watcher of literal %d lies outside the clause arena" l
        else if is_removed a c then
          Runtime_check.failf
            "R011: detached clause still on the watch list of literal %d" l
        else if csize a c < 2 then
          Runtime_check.failf
            "R007: %d-literal clause on the watch list of literal %d"
            (csize a c) l
        else if
          l <> Literal.negate a.(c + 1) && l <> Literal.negate a.(c + 2)
        then
          Runtime_check.failf
            "R007: clause watched on literal %d which negates neither \
             watched slot"
            l
        else if not (has_lit a c w.blk.(i)) then
          Runtime_check.failf
            "R007: blocker %d of a clause watched on literal %d is not a \
             literal of that clause"
            w.blk.(i) l
      done)
    s.watches;
  let at_root_fixpoint =
    s.ok && decision_level s = 0 && s.qhead = s.trail_size
  in
  let check_clause c =
    if not (is_removed a c) then begin
      let slot k =
        let l = a.(c + 1 + k) in
        let i = find_watcher s (Literal.negate l) c in
        if i < 0 then
          Runtime_check.failf "R007: clause not watched on lits.(%d) = %d" k l;
        if
          at_root_fixpoint
          && lit_value s l = -1
          && s.levels.(Literal.var l) = 0
          && lit_value s s.watches.(Literal.negate l).blk.(i) <> 1
        then
          Runtime_check.failf
            "R007: watched literal %d false at root without a true blocker" l
      in
      slot 0;
      slot 1
    end
  in
  for i = 0 to s.clauses.count - 1 do check_clause s.clauses.items.(i) done;
  for i = 0 to s.learnts.count - 1 do check_clause s.learnts.items.(i) done

(* The clause database agrees with itself. The arena parses: its
   headers, walked from offset 0, land exactly on the top, and every
   clause has at least two literals. The live-clause gauges and LBD
   tiers match the live clauses in it, and [wasted] the words of the
   removed ones. Every live clause sits exactly once on the list of its
   kind: problem clauses on [clauses], which may also hold removed ones
   until the next compaction, learnt ones on [learnts], which holds
   nothing else. *)
let audit_gauges s =
  let a = s.arena in
  let kind = Bytes.make (s.arena_top + 1) ' ' in
  let c = ref 0 and lc = ref 0 and ll = ref 0 and dead = ref 0 in
  while !c < s.arena_top do
    if csize a !c < 2 then
      Runtime_check.failf "R013: arena word %d is not a clause header" !c;
    let k =
      if is_removed a !c then begin
        dead := !dead + footprint a !c;
        'r'
      end
      else if is_learnt a !c then (incr ll; 'l')
      else (incr lc; 'p')
    in
    Bytes.set kind !c k;
    c := !c + footprint a !c
  done;
  if !c <> s.arena_top then
    Runtime_check.failf "R013: the last clause overruns the arena top %d"
      s.arena_top;
  if !lc <> s.num_clauses then
    Runtime_check.failf "R013: num_clauses = %d but %d live problem clauses"
      s.num_clauses !lc;
  if !ll <> s.num_learnts then
    Runtime_check.failf "R013: num_learnts = %d but %d live learnt clauses"
      s.num_learnts !ll;
  let tiers = s.lbd_core + s.lbd_mid + s.lbd_local in
  if tiers <> s.num_learnts then
    Runtime_check.failf "R013: LBD tier counts sum to %d, num_learnts = %d"
      tiers s.num_learnts;
  if !dead <> s.wasted then
    Runtime_check.failf "R013: wasted = %d but removed clauses hold %d words"
      s.wasted !dead;
  let listed name v live =
    for i = 0 to v.count - 1 do
      let c = v.items.(i) in
      let k = if c < 0 || c >= s.arena_top then ' ' else Bytes.get kind c in
      if k = live then Bytes.set kind c '*'
      else if not (k = 'r' && live = 'p') then
        Runtime_check.failf "R013: %s entry %d is not a live clause of its kind"
          name c
    done
  in
  listed "clauses" s.clauses 'p';
  listed "learnts" s.learnts 'l';
  Bytes.iteri
    (fun c k ->
      if k = 'p' || k = 'l' then
        Runtime_check.failf "R013: live clause %d is on no clause list" c)
    kind

let audit_light s =
  audit_trail s;
  audit_fence s;
  audit_heap s;
  audit_stats s

let audit s =
  audit_light s;
  audit_watches s;
  audit_gauges s

let set_audit s ~every =
  s.audit_every <- (if every <= 0 then 0 else every);
  if s.audit_every > 0 then s.audit_counters <- counter_snapshot s

let audit_sampling s = s.audit_every > 0

type corruption =
  | Drop_watch
  | Scramble_reason
  | Break_heap
  | Break_fence
  | Leak_detached
  | Regress_stats
  | Skew_gauge
  | Foreign_blocker

(* The newest problem clause satisfying [p], or [no_clause]. *)
let newest_clause s p =
  let rec go i =
    if i < 0 then no_clause
    else
      let c = s.clauses.items.(i) in
      if (not (is_removed s.arena c)) && p c then c else go (i - 1)
  in
  go (s.clauses.count - 1)

let live_clause s =
  let c = newest_clause s (fun _ -> true) in
  if c = no_clause then invalid_arg "Solver.corrupt: no live clause";
  c

let corrupt s = function
  | Drop_watch ->
      let c = live_clause s in
      unwatch s (Literal.negate s.arena.(c + 1)) c
  | Scramble_reason ->
      (* Repoint some trail literal's reason at a clause that does not
         imply it. At rest every root-implied literal's reason has been
         nulled (its clause is root-satisfied, so simplify GCed it and
         unlocked the reason), so decisions and units are fair game too:
         planting a bogus reason on a reason-free literal is the same
         reason/trail inconsistency. *)
      let rec plant i =
        if i >= s.trail_size then
          invalid_arg "Solver.corrupt: no trail literal to scramble"
        else
          let l = s.trail.(i) in
          let c = newest_clause s (fun c -> s.arena.(c + 1) <> l) in
          if c = no_clause then plant (i + 1)
          else s.reasons.(Literal.var l) <- c
      in
      plant 0
  | Break_heap ->
      if s.heap_size < 2 then invalid_arg "Solver.corrupt: heap too small";
      let a = s.heap.(0) in
      s.heap.(0) <- s.heap.(s.heap_size - 1);
      s.heap.(s.heap_size - 1) <- a
  | Break_fence -> s.fence_off <- true
  | Leak_detached ->
      let c = live_clause s in
      s.arena.(c) <- s.arena.(c) lor removed_bit
  | Regress_stats -> s.conflicts <- s.conflicts - 1
  | Skew_gauge -> s.num_clauses <- s.num_clauses + 1
  | Foreign_blocker ->
      (* The negation of a watched literal: never in a (non-tautological)
         clause. *)
      let c = live_clause s in
      let l = Literal.negate s.arena.(c + 1) in
      s.watches.(l).blk.(find_watcher s l c) <- Literal.negate s.arena.(c + 2)

type limited_result = LSat | LUnsat | LUnknown

let solve_limited ?(assumptions = []) ?(limits = Limits.unlimited) s =
  s.failed <- [];
  if not s.ok then LUnsat
  else begin
    maybe_simplify s;
    if not s.ok then LUnsat
    else begin
    (* Budgets as absolute counter values: the hot loop pays two int
       compares, nothing more. A non-positive budget is an immediate
       LUnknown — the degradation ladder relies on that determinism. *)
    let climit =
      match limits.Limits.conflicts with
      | None -> max_int
      | Some m -> if m <= 0 then s.conflicts else s.conflicts + m
    in
    let plimit =
      match limits.Limits.propagations with
      | None -> max_int
      | Some m -> if m <= 0 then s.propagations else s.propagations + m
    in
    let status = ref None in
    (try
       while !status = None do
         if s.conflicts >= climit || s.propagations >= plimit then
           status := Some LUnknown
         else
           let confl = propagate s in
           if confl <> no_clause then begin
             s.conflicts <- s.conflicts + 1;
             (* Sampled sanitizer: the trail, reasons and watches are all
                consistent at a conflict (propagation restores every
                watch before bailing out), making this the one cheap
                point where the invariants can be checked mid-search. *)
             if s.audit_every > 0 && s.conflicts mod s.audit_every = 0 then
               audit_light s;
             s.restart_budget <- s.restart_budget - 1;
             if decision_level s = 0 then begin
               log_proof s (Learn [||]);
               s.ok <- false;
               status := Some LUnsat
             end
             else begin
               let learnt, back_level = analyze s confl in
               let lbd = lbd_of_list s learnt in
               if logging s then
                 log_proof s (Learn (sorted (Array.of_list learnt)));
               cancel_until s back_level;
               (match learnt with
                | [] -> assert false
                | [ l ] -> enqueue s l no_clause
                | l :: _ ->
                    let n = List.length learnt in
                    let c = alloc s ~learnt:true ~lbd n learnt in
                    (* Watch the UIP and a literal from the backjump level. *)
                    let a = s.arena in
                    let best = ref (c + 2) in
                    for k = c + 3 to c + n do
                      if
                        s.levels.(Literal.var a.(k))
                        > s.levels.(Literal.var a.(!best))
                      then best := k
                    done;
                    let tmp = a.(c + 2) in
                    a.(c + 2) <- a.(!best);
                    a.(!best) <- tmp;
                    push s.learnts c;
                    s.num_learnts <- s.num_learnts + 1;
                    s.learned_total <- s.learned_total + 1;
                    tier_incr s lbd;
                    attach s c;
                    cla_bump s c;
                    enqueue s l c);
               var_decay s;
               cla_decay s
             end
           end
           else begin
             if s.restart_budget <= 0 then begin
               (* Restart: continue the cross-call Luby sequence. *)
               s.restart_seq <- s.restart_seq + 1;
               s.restarts <- s.restarts + 1;
               s.restart_budget <- restart_base * luby s.restart_seq;
               cancel_until s 0
             end
             else begin
               if s.conflicts >= s.next_reduce && s.num_learnts > 20 then begin
                 reduce_db s;
                 s.next_reduce <-
                   s.conflicts + reduce_first + (reduce_step * s.reductions)
               end;
               (* Assumptions first. *)
               let rec next_assumption = function
                 | [] -> `Done
                 | a :: rest -> (
                     match lit_value s a with
                     | 1 -> next_assumption rest
                     | -1 -> `Conflict a
                     | _ -> `Decide a)
               in
               match next_assumption assumptions with
               | `Conflict a ->
                   s.failed <- analyze_final s a;
                   status := Some LUnsat
               | `Decide a ->
                   new_decision_level s;
                   s.decisions <- s.decisions + 1;
                   enqueue s a no_clause
               | `Done -> (
                   let v = pick_branch_var s in
                   if v < 0 then status := Some LSat
                   else begin
                     new_decision_level s;
                     s.decisions <- s.decisions + 1;
                     enqueue s (Literal.make v s.phase.(v)) no_clause
                   end)
             end
           end
       done
     with e ->
       cancel_until s 0;
       raise e);
    let r = match !status with Some r -> r | None -> assert false in
    (match r with
     | LSat ->
         (* Snapshot the model into the phase array, then clean up. *)
         for v = 0 to s.nvars - 1 do
           if s.assigns.(v) <> 0 then s.phase.(v) <- s.assigns.(v) < 0
         done
     | LUnsat | LUnknown -> ());
    cancel_until s 0;
    r
    end
  end

let solve ?assumptions s =
  match solve_limited ?assumptions s with
  | LSat -> Sat
  | LUnsat -> Unsat
  | LUnknown -> assert false (* no budget given: cannot time out *)

let value s v =
  if s.assigns.(v) <> 0 then s.assigns.(v) > 0 else not s.phase.(v)

let failed_assumptions s = s.failed

let num_clauses s = s.num_clauses
let num_learnts s = s.num_learnts

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  watch_visits : int;
  clause_reads : int;
  restarts : int;
  learned : int;
  deleted : int;
  removed : int;
  reductions : int;
  compactions : int;
  live_clauses : int;
  live_learnts : int;
  lbd_core : int;
  lbd_mid : int;
  lbd_local : int;
}

let stats (s : t) : stats =
  {
    conflicts = s.conflicts;
    decisions = s.decisions;
    propagations = s.propagations;
    watch_visits = s.watch_visits;
    clause_reads = s.clause_reads;
    restarts = s.restarts;
    learned = s.learned_total;
    deleted = s.deleted_total;
    removed = s.removed_total;
    reductions = s.reductions;
    compactions = s.compactions;
    live_clauses = s.num_clauses;
    live_learnts = s.num_learnts;
    lbd_core = s.lbd_core;
    lbd_mid = s.lbd_mid;
    lbd_local = s.lbd_local;
  }

let zero_stats =
  {
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    watch_visits = 0;
    clause_reads = 0;
    restarts = 0;
    learned = 0;
    deleted = 0;
    removed = 0;
    reductions = 0;
    compactions = 0;
    live_clauses = 0;
    live_learnts = 0;
    lbd_core = 0;
    lbd_mid = 0;
    lbd_local = 0;
  }

(* [f] over the eleven monotone counters; the gauges come from [later]. *)
let combine f ~later a b =
  {
    conflicts = f a.conflicts b.conflicts;
    decisions = f a.decisions b.decisions;
    propagations = f a.propagations b.propagations;
    watch_visits = f a.watch_visits b.watch_visits;
    clause_reads = f a.clause_reads b.clause_reads;
    restarts = f a.restarts b.restarts;
    learned = f a.learned b.learned;
    deleted = f a.deleted b.deleted;
    removed = f a.removed b.removed;
    reductions = f a.reductions b.reductions;
    compactions = f a.compactions b.compactions;
    live_clauses = later.live_clauses;
    live_learnts = later.live_learnts;
    lbd_core = later.lbd_core;
    lbd_mid = later.lbd_mid;
    lbd_local = later.lbd_local;
  }

let add_stats a b = combine ( + ) ~later:b a b
let diff_stats later earlier = combine ( - ) ~later later earlier
