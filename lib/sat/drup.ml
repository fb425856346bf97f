module Srcloc = Simgen_base.Srcloc

type verdict = Valid | Invalid_step of int | Incomplete

(* The reverse-unit-propagation engine, sharing no code with the solver:
   a clause database with two watched literals per clause, literal
   occurrence lists and a root trail. One rule holds between calls: the
   root trail is the unit-propagation fixpoint of the enabled clauses. A
   RUP check therefore starts from that fixpoint, pushes the negated
   target on top and undoes it afterwards.

   Disabling a clause flips a flag; its watches stay, and propagation
   skips it. Enabling one re-chooses its watches under the root
   assignment. The watch invariant between calls: a root-false watched
   literal has a root-true partner. *)
module Engine = struct
  (* A clause is one flat array: [| enabled (0/1); tag; watch; watch;
     literals... |], the literals sorted with duplicates kept (a deletion
     names the multiset). A clause with fewer than two distinct literals
     has no watches ([-1]). *)
  type clause = int array

  let first_lit = 4
  let enabled (c : clause) = c.(0) = 1
  let tag (c : clause) = c.(1)

  (* Deletion lookup: clauses keyed by their literals alone. *)
  module Index = Hashtbl.Make (struct
    type t = clause

    let equal (a : t) (b : t) =
      let n = Array.length a in
      let rec same i = i = n || (a.(i) = b.(i) && same (i + 1)) in
      n = Array.length b && same first_lit

    let hash (c : t) =
      let h = ref 0 in
      for i = first_lit to Array.length c - 1 do
        h := (!h * 31) + c.(i)
      done;
      !h land max_int
  end)

  (* A growable list of clauses per literal. *)
  type lists = { mutable cs : clause array array; mutable len : int array }

  type t = {
    mutable values : int array;  (* var -> 0 unset / 1 true / -1 false *)
    mutable reasons : clause array;  (* var -> clause that implied it *)
    mutable pos : int array;  (* var -> trail position *)
    mutable stamp : int array;  (* var -> last explanation visiting it *)
    watches : lists;  (* literal -> clauses watching it (stale ones too) *)
    occ : lists;  (* literal -> clauses containing it *)
    mutable trail : Literal.t array;
    mutable trail_len : int;
    mutable conflict : clause option;  (* the root is inconsistent *)
    mutable epoch : int;
    index : clause Index.t;  (* every clause ever added *)
  }

  let no_reason : clause = [| 0; -1; -1; -1 |]

  let create () =
    let lists () = { cs = Array.make 128 [||]; len = Array.make 128 0 } in
    {
      values = Array.make 64 0;
      reasons = Array.make 64 no_reason;
      pos = Array.make 64 0;
      stamp = Array.make 64 0;
      watches = lists ();
      occ = lists ();
      trail = Array.make 64 (Literal.pos 0);
      trail_len = 0;
      conflict = None;
      epoch = 0;
      index = Index.create 64;
    }

  let grow a len fill =
    let a' = Array.make len fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'

  let ensure_var t v =
    let n = Array.length t.values in
    if v >= n then begin
      let n' = max (v + 1) (2 * n) in
      t.values <- grow t.values n' 0;
      t.reasons <- grow t.reasons n' no_reason;
      t.pos <- grow t.pos n' 0;
      t.stamp <- grow t.stamp n' 0;
      t.trail <- grow t.trail n' (Literal.pos 0);
      List.iter
        (fun ls ->
          ls.cs <- grow ls.cs (2 * n') [||];
          ls.len <- grow ls.len (2 * n') 0)
        [ t.watches; t.occ ]
    end

  let append ls l c =
    let n = ls.len.(l) in
    if n = Array.length ls.cs.(l) then
      ls.cs.(l) <- grow ls.cs.(l) (max 4 (2 * n)) no_reason;
    ls.cs.(l).(n) <- c;
    ls.len.(l) <- n + 1

  let occurs t v =
    v >= 0
    && v < Array.length t.values
    && t.occ.len.(Literal.pos v) + t.occ.len.(Literal.neg v) > 0

  let value t l =
    let v = t.values.(Literal.var l) in
    if Literal.sign l then -v else v

  let push t l reason =
    let v = Literal.var l in
    t.trail.(t.trail_len) <- l;
    t.pos.(v) <- t.trail_len;
    t.trail_len <- t.trail_len + 1;
    t.values.(v) <- (if Literal.sign l then -1 else 1);
    t.reasons.(v) <- reason

  let undo_to t mark =
    for i = mark to t.trail_len - 1 do
      let v = Literal.var t.trail.(i) in
      t.values.(v) <- 0;
      t.reasons.(v) <- no_reason
    done;
    t.trail_len <- mark

  (* The best literal of [c] other than [avoid]: a true one, else an open
     one, else a false one; [-1] when there is none. *)
  let pick t (c : clause) avoid =
    let best = ref (-1) and rank = ref (-2) in
    for i = first_lit to Array.length c - 1 do
      let l = c.(i) in
      if l <> avoid && value t l > !rank then begin
        best := l;
        rank := value t l
      end
    done;
    !best

  (* Examine [c] under the current assignment, re-choosing its watches
     (its two best distinct literals): push its unit, or record the
     conflict. *)
  let examine t c =
    if t.conflict = None then begin
      let w0 = ref (-1) and r0 = ref (-2) and w1 = ref (-1) and r1 = ref (-2) in
      for i = first_lit to Array.length c - 1 do
        let l = c.(i) in
        if l <> !w0 && l <> !w1 then begin
          let r = value t l in
          if r > !r0 then begin
            w1 := !w0;
            r1 := !r0;
            w0 := l;
            r0 := r
          end
          else if r > !r1 then begin
            w1 := l;
            r1 := r
          end
        end
      done;
      let w0 = !w0 and w1 = !w1 in
      if w1 >= 0 then begin
        if w0 <> c.(2) && w0 <> c.(3) then append t.watches w0 c;
        if w1 <> c.(2) && w1 <> c.(3) then append t.watches w1 c;
        c.(2) <- w0;
        c.(3) <- w1
      end;
      if w0 < 0 || !r0 < 0 then t.conflict <- Some c
      else if !r0 = 0 && !r1 < 0 then push t w0 c
    end

  (* The clauses watching [l], which just became false: move each watch
     to another non-false literal, or push the clause's unit, or stop at
     its conflict; [fired] sees every clause that pushed or conflicted.
     Entries of clauses no longer watching [l] are dropped on the way. *)
  let visit t fired l =
    let ws = t.watches.cs.(l) and n = t.watches.len.(l) in
    let conflict = ref no_reason and kept = ref 0 in
    for i = 0 to n - 1 do
      let c = ws.(i) in
      let keep =
        if !conflict != no_reason then true
        else if c.(2) <> l && c.(3) <> l then false
        else if not (enabled c) then true
        else
          let slot = if c.(2) = l then 2 else 3 in
          let other = c.(5 - slot) in
          value t other = 1
          ||
          let k = pick t c other in
          if value t k >= 0 then begin
            c.(slot) <- k;
            append t.watches k c;
            false
          end
          else begin
            fired c;
            if value t other = 0 then push t other c else conflict := c;
            true
          end
      in
      if keep then begin
        ws.(!kept) <- c;
        incr kept
      end
    done;
    t.watches.len.(l) <- !kept;
    !conflict

  (* Propagate the trail from position [head] to fixpoint. Returns the
     conflicting clause, if any. *)
  let rec propagate t ~fired head =
    if head >= t.trail_len then None
    else
      let c = visit t fired (Literal.negate t.trail.(head)) in
      if c == no_reason then propagate t ~fired (head + 1) else Some c

  (* Root propagation of what the units from [from] on imply. *)
  let close t from =
    match propagate t ~fired:ignore from with
    | Some c -> t.conflict <- Some c
    | None -> ()

  let attach t c =
    let mark = t.trail_len in
    examine t c;
    close t mark

  let enable t c =
    if not (enabled c) then begin
      c.(0) <- 1;
      attach t c
    end

  (* The root unit [c] implied, if any. *)
  let implied t (c : clause) =
    let rec go i =
      if i = Array.length c then None
      else
        let l = c.(i) in
        if value t l = 1 && t.reasons.(Literal.var l) == c then Some l
        else go (i + 1)
    in
    go first_lit

  (* Restore the rule after [c] leaves the enabled set. From an
     inconsistent root the fixpoint is recomputed from scratch. Otherwise
     only the unit [c] implied (if any) and what was pushed after it can
     lose their support: the trail is truncated there. A clause that
     contains no retracted literal kept its satisfying or two open
     literals, and its watches stay valid; only the enabled clauses that
     contain one are re-examined. *)
  let disable t c =
    if enabled c then begin
      c.(0) <- 0;
      if t.conflict <> None then begin
        undo_to t 0;
        t.conflict <- None;
        Index.iter (fun c _ -> if enabled c then attach t c) t.index
      end
      else
        match implied t c with
        | None -> ()
        | Some u ->
            let p = t.pos.(Literal.var u) in
            let retracted = Array.sub t.trail p (t.trail_len - p) in
            undo_to t p;
            Array.iter
              (fun l ->
                for i = 0 to t.occ.len.(l) - 1 do
                  let d = t.occ.cs.(l).(i) in
                  if enabled d then examine t d
                done)
              retracted;
            close t p
    end

  let add ?(tag = -1) t lits =
    let c = Array.of_list (1 :: tag :: -1 :: -1 :: List.sort compare lits) in
    for i = first_lit to Array.length c - 1 do
      let l = c.(i) in
      ensure_var t (Literal.var l);
      if i = first_lit || l <> c.(i - 1) then append t.occ l c
    done;
    Index.add t.index c c;
    attach t c;
    c

  let probe lits =
    let sorted = Array.copy lits in
    Array.sort compare sorted;
    Array.append no_reason sorted

  let find t lits = List.find_opt enabled (Index.find_all t.index (probe lits))
  let added t lits = Index.mem t.index (probe lits)

  (* Report to [on_used] the reasons of root assignments the literals
     [lits.(first ..)] rest on, transitively; each variable at most once
     per check. *)
  let explain t ~on_used ~root lits first =
    let stack = ref [] in
    for i = first to Array.length lits - 1 do
      stack := lits.(i) :: !stack
    done;
    while !stack <> [] do
      let l = List.hd !stack in
      stack := List.tl !stack;
      let v = Literal.var l in
      if t.values.(v) <> 0 && t.pos.(v) < root && t.stamp.(v) <> t.epoch
      then begin
        t.stamp.(v) <- t.epoch;
        let r = t.reasons.(v) in
        if r != no_reason then begin
          on_used r;
          for i = first_lit to Array.length r - 1 do
            stack := r.(i) :: !stack
          done
        end
      end
    done

  (* Reverse unit propagation of [lits]: assume the negation of every
     literal and propagate to a conflict. A target literal true at the
     root, or a tautology, is trivially entailed. [on_used] receives the
     clauses the derivation used: those that fired, and the reasons of
     the root units they rest on. *)
  let rup ?on_used t lits =
    List.iter (fun l -> ensure_var t (Literal.var l)) lits;
    let root = t.trail_len in
    let explain_lit, fired =
      match on_used with
      | None -> (ignore, ignore)
      | Some f ->
          t.epoch <- t.epoch + 1;
          ( (fun l -> explain t ~on_used:f ~root [| l |] 0),
            fun c ->
              f c;
              explain t ~on_used:f ~root c first_lit )
    in
    match t.conflict with
    | Some c ->
        fired c;
        true
    | None ->
        let satisfied = ref false in
        List.iter
          (fun l ->
            match value t l with
            | 1 ->
                satisfied := true;
                explain_lit l
            | -1 -> ()
            | _ -> push t (Literal.negate l) no_reason)
          lits;
        let result = !satisfied || propagate t ~fired root <> None in
        undo_to t root;
        result
end

let check formula proof =
  let e = Engine.create () in
  List.iter (fun c -> ignore (Engine.add e c)) formula;
  let rec run index = function
    | [] -> Incomplete
    | Solver.Learn lits :: rest ->
        let clause = Array.to_list lits in
        if not (Engine.rup e clause) then Invalid_step index
        else if clause = [] then Valid
        else begin
          ignore (Engine.add e clause);
          run (index + 1) rest
        end
    | Solver.Delete lits :: rest ->
        Option.iter (Engine.disable e) (Engine.find e lits);
        run (index + 1) rest
  in
  run 0 proof

(* Proof trimming: a forward pass re-derives every learned clause while
   recording which steps its derivation used (the clauses that
   propagated a unit or closed the conflict, and the reasons of the root
   units they rest on), then a backward pass marks the steps reachable
   from the empty clause. Only marked [Learn] events survive; deletions
   are dropped entirely, which is sound because reverse unit propagation
   is monotone in the clause set. Any anomaly (a step that fails RUP, no
   empty clause derived) returns the proof unchanged so
   trimming can never turn a checkable proof uncheckable; [on_anomaly] is
   told which anomaly forced the bail-out. *)
type trim_anomaly = Non_rup_step of int | Underivable_goal

let trim ?(on_anomaly = fun (_ : trim_anomaly) -> ()) formula proof =
  let e = Engine.create () in
  List.iter (fun c -> ignore (Engine.add e c)) formula;
  let events = Array.of_list proof in
  let n = Array.length events in
  let used = Array.make n [] in
  let derive lits =
    let steps = ref [] in
    let on_used c = if Engine.tag c >= 0 then steps := Engine.tag c :: !steps in
    if Engine.rup ~on_used e lits then Some !steps else None
  in
  (* Forward: [Ok (Some i)] when step [i] derives the empty clause. *)
  let rec forward i =
    if i = n then Ok None
    else
      match events.(i) with
      | Solver.Learn lits -> (
          let clause = Array.to_list lits in
          match derive clause with
          | None -> Error i
          | Some steps ->
              used.(i) <- steps;
              if clause = [] then Ok (Some i)
              else begin
                ignore (Engine.add ~tag:i e clause);
                forward (i + 1)
              end)
      | Solver.Delete lits ->
          Option.iter (Engine.disable e) (Engine.find e lits);
          forward (i + 1)
  in
  let needed = Array.make n false in
  let seed = List.iter (fun s -> needed.(s) <- true) in
  match forward 0 with
  | Error i ->
      on_anomaly (Non_rup_step i);
      proof
  | Ok None ->
      on_anomaly Underivable_goal;
      proof
  | Ok (Some i) ->
      seed (i :: used.(i));
      for j = n - 1 downto 0 do
        if needed.(j) then seed used.(j)
      done;
      List.filteri (fun j _ -> needed.(j)) proof

exception Parse_error of Srcloc.t * string

let () =
  Printexc.register_printer (function
    | Parse_error (loc, msg) ->
        Some
          (match Srcloc.to_string loc with
          | Some at -> Printf.sprintf "DRUP parse error: %s: %s" at msg
          | None -> Printf.sprintf "DRUP parse error: %s" msg)
    | _ -> None)

let fail_at loc fmt =
  Printf.ksprintf (fun s -> raise (Parse_error (loc, s))) fmt

(* Inverse of {!to_dimacs_proof}, tolerant of the variations drat-trim
   accepts: comment lines ([c ...]), blank lines, CRLF endings, several
   0-terminated clauses on one line, and clauses spanning lines. A [d]
   token starts a deletion and is only legal at a clause boundary. *)
let parse_string ?file text =
  let floc = Srcloc.make ?file () in
  let events = ref [] in
  let current = ref [] in
  let deleting = ref false in
  let in_clause = ref false in
  let last_at = ref floc in
  String.split_on_char '\n' text
  |> List.iteri (fun i line ->
         let at = Srcloc.with_line floc (i + 1) in
         let line = String.trim line in
         if line = "" || line.[0] = 'c' then ()
         else begin
           last_at := at;
           String.split_on_char ' ' line
           |> List.filter (fun s -> s <> "")
           |> List.iter (fun tok ->
                  if tok = "d" then
                    if !in_clause then fail_at at "'d' inside a clause"
                    else begin
                      deleting := true;
                      in_clause := true
                    end
                  else
                    match int_of_string_opt tok with
                    | None -> fail_at at "bad token %S" tok
                    | Some 0 ->
                        let lits = Array.of_list (List.rev !current) in
                        let event =
                          if !deleting then Solver.Delete lits
                          else Solver.Learn lits
                        in
                        events := event :: !events;
                        current := [];
                        deleting := false;
                        in_clause := false
                    | Some d ->
                        current := Literal.of_dimacs d :: !current;
                        in_clause := true)
         end);
  if !in_clause then fail_at !last_at "unterminated clause (missing 0)";
  List.rev !events

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse_string ~file:path s

let to_dimacs_proof events =
  let buf = Buffer.create 1024 in
  List.iter
    (fun event ->
      let prefix, lits =
        match event with
        | Solver.Learn c -> ("", c)
        | Solver.Delete c -> ("d ", c)
      in
      Buffer.add_string buf prefix;
      Array.iter
        (fun l -> Buffer.add_string buf (string_of_int (Literal.to_dimacs l) ^ " "))
        lits;
      Buffer.add_string buf "0\n")
    events;
  Buffer.contents buf
