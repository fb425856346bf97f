module Literal = Simgen_sat.Literal
module Solver = Simgen_sat.Solver
module Drup = Simgen_sat.Drup
module Json = Simgen_base.Json

type query =
  | Session of {
      a : int;
      b : int;
      act : int;
      va : int;
      vb : int;
      equal : bool;
      clauses : Literal.t list list;
      events : Solver.proof_event list;
    }
  | Fresh of {
      a : int;
      b : int;
      clauses : Literal.t list list;
      events : Solver.proof_event list;
    }
  | Rebuild

type merge = { repr : int; node : int; proof : int }
type t = { num_nodes : int; queries : query array; merges : merge list }

type report = {
  valid : bool;
  queries : int;
  proved : int;
  merges : int;
  steps : int;
  steps_checked : int;
  steps_trimmed : int;
  diags : Diagnostic.t list;
}

(* An incremental RUP engine, independent of the solver: a persistent
   clause database with literal-occurrence propagation, a persistent
   root-level trail (unit consequences survive across queries, which is
   what makes replaying a whole session affordable), and temporary
   assumption trails per derivation that are fully undone. Propagation
   scans each clause containing a newly falsified literal — no watched
   literals, no per-clause counters — so enabling and disabling clauses
   (deletions, per-slice backward trimming) is a flag flip with no
   invariants to repair. *)
module Engine = struct
  type cl = {
    lits : Literal.t array;
    mutable enabled : bool;
    mutable verified : bool;
    mutable needed : bool;
    mutable slice_mark : int;
        (* event index when learned in the slice being replayed, -1
           outside it; doubles as the "learned this slice" flag *)
    mutable del_mark : bool;  (* deleted within the slice being replayed *)
  }

  type t = {
    mutable values : int array;  (* var -> 0 unset / 1 true / -1 false *)
    mutable seen : bool array;  (* var occurs in some added clause *)
    mutable occ : cl list array;  (* 2*var + sign -> clauses with that literal *)
    mutable trail : Literal.t array;
    mutable trail_len : int;
    mutable root_len : int;  (* persistent prefix of the trail *)
    mutable root_conflict : bool;
    learned : (Literal.t list, cl list ref) Hashtbl.t;  (* deletion lookup *)
  }

  let create () =
    {
      values = Array.make 64 0;
      seen = Array.make 64 false;
      occ = Array.make 128 [];
      trail = Array.make 64 (Literal.pos 0);
      trail_len = 0;
      root_len = 0;
      root_conflict = false;
      learned = Hashtbl.create 64;
    }

  let ensure_var t v =
    let n = Array.length t.values in
    if v >= n then begin
      let n' = max (v + 1) (2 * n) in
      let values = Array.make n' 0 in
      Array.blit t.values 0 values 0 n;
      t.values <- values;
      let seen = Array.make n' false in
      Array.blit t.seen 0 seen 0 n;
      t.seen <- seen;
      let occ = Array.make (2 * n') [] in
      Array.blit t.occ 0 occ 0 (2 * n);
      t.occ <- occ
    end

  let occurs t v = v >= 0 && v < Array.length t.seen && t.seen.(v)
  let lit_index l = (2 * Literal.var l) + if Literal.sign l then 1 else 0

  let lit_value t l =
    let v = t.values.(Literal.var l) in
    if v = 0 then 0 else if Literal.sign l then -v else v

  let push t l =
    if t.trail_len >= Array.length t.trail then begin
      let trail = Array.make (2 * Array.length t.trail) t.trail.(0) in
      Array.blit t.trail 0 trail 0 t.trail_len;
      t.trail <- trail
    end;
    t.trail.(t.trail_len) <- l;
    t.trail_len <- t.trail_len + 1;
    t.values.(Literal.var l) <- (if Literal.sign l then -1 else 1)

  let undo_to t mark =
    for i = mark to t.trail_len - 1 do
      t.values.(Literal.var t.trail.(i)) <- 0
    done;
    t.trail_len <- mark

  (* Propagate trail entries from position [from] to fixpoint. Every
     clause that produces a unit or the conflict is reported through
     [on_used] — an over-approximation of the resolution antecedents,
     which is what the per-slice trimmer marks as needed. *)
  let propagate t ~on_used from =
    let conflict = ref false in
    let head = ref from in
    while (not !conflict) && !head < t.trail_len do
      let l = t.trail.(!head) in
      incr head;
      let falsified = lit_index (Literal.negate l) in
      List.iter
        (fun c ->
          if (not !conflict) && c.enabled then begin
            let satisfied = ref false in
            let unassigned = ref [] in
            Array.iter
              (fun x ->
                match lit_value t x with
                | 1 -> satisfied := true
                | 0 -> unassigned := x :: !unassigned
                | _ -> ())
              c.lits;
            if not !satisfied then
              match List.sort_uniq compare !unassigned with
              | [] ->
                  on_used c;
                  conflict := true
              | [ u ] ->
                  on_used c;
                  push t u
              | _ -> ()
          end)
        t.occ.(falsified)
    done;
    !conflict

  (* Examine a clause under the root assignment: root-unit clauses
     propagate permanently, a root-falsified clause marks the whole
     database conflicting (everything becomes trivially derivable, which
     is logically correct — and unreachable for certificates recorded
     from a real sweep, whose instances are satisfiable). *)
  let attach t c =
    if c.enabled && not t.root_conflict then begin
      let satisfied = ref false in
      let unassigned = ref [] in
      Array.iter
        (fun x ->
          match lit_value t x with
          | 1 -> satisfied := true
          | 0 -> unassigned := x :: !unassigned
          | _ -> ())
        c.lits;
      if not !satisfied then
        match List.sort_uniq compare !unassigned with
        | [] -> t.root_conflict <- true
        | [ u ] ->
            push t u;
            if propagate t ~on_used:ignore (t.trail_len - 1) then
              t.root_conflict <- true;
            t.root_len <- t.trail_len
        | _ -> ()
    end

  let canon lits = List.sort compare lits

  let add ?(learned = false) ?(verified = true) ?(slice_mark = -1) t lits_list
      =
    let lits = Array.of_list lits_list in
    let c =
      { lits; enabled = true; verified; needed = false; slice_mark;
        del_mark = false }
    in
    Array.iter
      (fun l ->
        let v = Literal.var l in
        ensure_var t v;
        t.seen.(v) <- true;
        let i = lit_index l in
        t.occ.(i) <- c :: t.occ.(i))
      lits;
    if learned then begin
      let key = canon lits_list in
      match Hashtbl.find_opt t.learned key with
      | Some r -> r := c :: !r
      | None -> Hashtbl.add t.learned key (ref [ c ])
    end;
    attach t c;
    c

  let disable c = c.enabled <- false

  let enable t c =
    if not c.enabled then begin
      c.enabled <- true;
      attach t c
    end

  let find_learned t lits =
    let key = canon (Array.to_list lits) in
    match Hashtbl.find_opt t.learned key with
    | None -> None
    | Some r -> List.find_opt (fun c -> c.enabled) !r

  (* Reverse unit propagation of [lits]: assume the negation of every
     literal and propagate to a conflict. Root-satisfied targets and
     tautologies are trivially entailed. The temporary assignments are
     undone either way. *)
  let rup ?(on_used = ignore) t lits =
    if t.root_conflict then true
    else begin
      let mark = t.trail_len in
      let satisfied = ref false in
      List.iter
        (fun l ->
          ensure_var t (Literal.var l);
          match lit_value t l with
          | 1 -> satisfied := true
          | -1 -> ()
          | _ -> push t (Literal.negate l))
        lits;
      let result = !satisfied || propagate t ~on_used mark in
      undo_to t mark;
      result
    end
end

let check (t : t) =
  let diags = ref [] in
  let fail ?loc code fmt =
    Format.kasprintf
      (fun message ->
        diags := Diagnostic.error ?loc code "%s" message :: !diags)
      fmt
  in
  let nq = Array.length t.queries in
  let proved = Array.make nq false in
  (* pair proven by query qi, as (min, max); (-1, -1) when none *)
  let pair = Array.make nq (-1, -1) in
  let steps = ref 0 in
  let checked = ref 0 in
  let trimmed = ref 0 in
  let eng = ref (Engine.create ()) in
  let mark_needed (c : Engine.cl) = if c.slice_mark >= 0 then c.needed <- true in
  Array.iteri
    (fun qi query ->
      let loc = Diagnostic.Named (Printf.sprintf "query %d" qi) in
      match query with
      | Rebuild -> eng := Engine.create ()
      | Fresh { a; b; clauses; events } ->
          let n = List.length events in
          steps := !steps + n;
          (* Proof-stream lint before RUP re-verification: a fresh query
             carries its complete formula, so the semantic deletion
             checks (D001/D002/D006) apply. *)
          List.iter
            (fun d -> diags := d :: !diags)
            (Proof_lint.run ~formula:clauses events);
          let trimmed_proof =
            Drup.trim
              ~on_anomaly:(fun a ->
                diags := Proof_lint.trim_anomaly a :: !diags)
              clauses events
          in
          let tn = List.length trimmed_proof in
          checked := !checked + tn;
          trimmed := !trimmed + (n - tn);
          (match Drup.check clauses trimmed_proof with
          | Drup.Valid ->
              proved.(qi) <- true;
              pair.(qi) <- (min a b, max a b)
          | Drup.Invalid_step s ->
              fail ~loc "X001" "fresh proof step %d fails RUP" s
          | Drup.Incomplete ->
              fail ~loc "X002"
                "fresh proof for pair (%d, %d) never derives the empty clause"
                a b)
      | Session { a; b; act; va; vb; equal; clauses; events } -> (
          (* Structural lint only: a session slice legitimately deletes
             clauses learned in earlier slices, so the formula-aware
             deletion checks would be false positives here. *)
          List.iter
            (fun d -> diags := d :: !diags)
            (Proof_lint.run events);
          let eng = !eng in
          List.iter (fun c -> ignore (Engine.add eng c)) clauses;
          if
            act < 0 || va < 0 || vb < 0 || act = va || act = vb
            || Engine.occurs eng act
          then
            fail ~loc "X003"
              "activation variable x%d is not fresh (pair %d, %d)" act a b
          else begin
            let nact = Literal.neg act in
            (* The guard clauses are reconstructed, never read from the
               certificate: under the assumption [act] the pair must
               disagree, so deriving [not act] proves it never can. *)
            ignore (Engine.add eng [ nact; Literal.pos va; Literal.pos vb ]);
            ignore (Engine.add eng [ nact; Literal.neg va; Literal.neg vb ]);
            let ev = Array.of_list events in
            let n = Array.length ev in
            steps := !steps + n;
            let recs = Array.make n None in
            let deleted = Array.make n None in
            let slice_ok = ref true in
            (* Forward: units (and the empty clause) are verified eagerly
               and root-propagated; longer lemmas are installed
               optimistically and verified by the backward pass, which
               skips the ones nothing ever used. *)
            for j = 0 to n - 1 do
              match ev.(j) with
              | Solver.Learn lits ->
                  let ll = Array.to_list lits in
                  if Array.length lits <= 1 then begin
                    incr checked;
                    if not (Engine.rup eng ~on_used:mark_needed ll) then begin
                      fail ~loc "X001" "proof step %d fails RUP" j;
                      slice_ok := false
                    end;
                    ignore (Engine.add eng ~learned:true ll)
                  end
                  else
                    recs.(j) <-
                      Some
                        (Engine.add eng ~learned:true ~verified:false
                           ~slice_mark:j ll)
              | Solver.Delete lits -> (
                  match Engine.find_learned eng lits with
                  | Some c ->
                      Engine.disable c;
                      if c.Engine.slice_mark >= 0 then
                        c.Engine.del_mark <- true;
                      deleted.(j) <- Some c
                  | None -> () (* unknown deletion: sound no-op *))
            done;
            (* Obligation: [not act] must follow — the miter under [act]
               is unsatisfiable. *)
            let goal_ok =
              if not equal then true
              else if Engine.rup eng ~on_used:mark_needed [ nact ] then true
              else begin
                fail ~loc "X002"
                  "pair (%d, %d): [not x%d] is not derivable — the Equal \
                   verdict is unsupported"
                  a b act;
                false
              end
            in
            (* Lemmas surviving the slice may serve later queries: they
               are always needed. *)
            Array.iter
              (function
                | Some (c : Engine.cl) -> if c.enabled then c.needed <- true
                | None -> ())
              recs;
            (* Backward: undo the slice while verifying exactly the
               needed lemmas at their own position (their antecedents get
               marked needed in turn and verified as the walk reaches
               them). Unneeded deleted lemmas are the trim. *)
            for j = n - 1 downto 0 do
              (match deleted.(j) with
              | Some c -> Engine.enable eng c
              | None -> ());
              match recs.(j) with
              | Some c ->
                  Engine.disable c;
                  if c.needed then begin
                    incr checked;
                    if
                      not
                        (Engine.rup eng ~on_used:mark_needed
                           (Array.to_list c.lits))
                    then begin
                      fail ~loc "X001" "proof step %d fails RUP" j;
                      slice_ok := false
                    end;
                    c.verified <- true
                  end
                  else incr trimmed
              | None -> ()
            done;
            (* Restore the slice-end state: needed-and-not-deleted lemmas
               come back, everything else stays out, and deletions of
               older lemmas are re-applied. *)
            Array.iter
              (function
                | Some (c : Engine.cl) ->
                    if c.Engine.slice_mark < 0 then Engine.disable c
                | None -> ())
              deleted;
            Array.iter
              (function
                | Some (c : Engine.cl) ->
                    if c.needed && not c.del_mark then Engine.enable eng c;
                    c.slice_mark <- -1;
                    c.del_mark <- false
                | None -> ())
              recs;
            (* Retire the query exactly as the session does. [act] is
               fresh, so the unit is satisfiability-preserving whatever
               the verdict; the ties are sound only once the obligation
               checked out. *)
            ignore (Engine.add eng [ nact ]);
            if !slice_ok && goal_ok && equal then begin
              ignore (Engine.add eng [ Literal.neg va; Literal.pos vb ]);
              ignore (Engine.add eng [ Literal.pos va; Literal.neg vb ]);
              proved.(qi) <- true;
              pair.(qi) <- (min a b, max a b)
            end
          end))
    t.queries;
  (* Merge log: every merge must cite a query that proved exactly that
     pair, move strictly downward, and touch each node at most once; the
     final substitution must be acyclic. *)
  let subst = Array.init t.num_nodes (fun i -> i) in
  let nmerges = ref 0 in
  List.iter
    (fun { repr; node; proof } ->
      incr nmerges;
      let mloc = Diagnostic.Node node in
      if
        repr < 0 || repr >= t.num_nodes || node < 0 || node >= t.num_nodes
      then
        fail ~loc:mloc "X008" "merge (%d <- %d) out of range (%d nodes)" repr
          node t.num_nodes
      else begin
        if repr >= node then
          fail ~loc:mloc "X005"
            "merge (%d <- %d) is not monotone: representative must be the \
             strictly smaller id"
            repr node;
        if subst.(node) <> node then
          fail ~loc:mloc "X007" "node %d merged twice" node;
        if proof < 0 || proof >= nq || not proved.(proof) then
          fail ~loc:mloc "X004" "merge (%d <- %d) cites no valid proof" repr
            node
        else if pair.(proof) <> (min repr node, max repr node) then
          fail ~loc:mloc "X004"
            "merge (%d <- %d) cites query %d, which proved a different pair"
            repr node proof;
        if repr >= 0 && repr < t.num_nodes && node >= 0 && node < t.num_nodes
        then subst.(node) <- repr
      end)
    t.merges;
  (try
     Array.iteri
       (fun i _ ->
         let steps = ref 0 in
         let j = ref i in
         while subst.(!j) <> !j do
           incr steps;
           if !steps > t.num_nodes then begin
             fail ~loc:(Diagnostic.Node i) "X006"
               "substitution cycle reachable from node %d" i;
             raise Exit
           end;
           j := subst.(!j)
         done)
       subst
   with Exit -> ());
  let diags = Diagnostic.sort !diags in
  {
    (* Warnings (a D009 trim anomaly) don't invalidate: they always
       accompany the error that caused them when one exists. *)
    valid =
      (not
         (List.exists (fun d -> d.Diagnostic.severity = Diagnostic.Error) diags));
    queries = nq;
    proved = Array.fold_left (fun acc p -> if p then acc + 1 else acc) 0 proved;
    merges = !nmerges;
    steps = !steps;
    steps_checked = !checked;
    steps_trimmed = !trimmed;
    diags;
  }

(* JSONL rendering, one [Json.t] per line. Literals use the DIMACS
   convention so external tooling can consume the proofs directly. *)
let to_jsonl (t : t) report =
  let lits l =
    Json.List (List.map (fun l -> Json.Int (Literal.to_dimacs l)) l)
  in
  let clauses cs = Json.List (List.map lits cs) in
  let events es =
    Json.List
      (List.map
         (function
           | Solver.Learn c -> Json.Obj [ ("l", lits (Array.to_list c)) ]
           | Solver.Delete c -> Json.Obj [ ("d", lits (Array.to_list c)) ])
         es)
  in
  let query i q =
    let head kind =
      [
        ("type", Json.String "query");
        ("index", Json.Int i);
        ("kind", Json.String kind);
      ]
    in
    match q with
    | Rebuild -> Json.Obj (head "rebuild")
    | Session { a; b; act; va; vb; equal; clauses = cs; events = es } ->
        Json.Obj
          (head "session"
          @ [
              ("a", Json.Int a);
              ("b", Json.Int b);
              ("act", Json.Int act);
              ("va", Json.Int va);
              ("vb", Json.Int vb);
              ("equal", Json.Bool equal);
              ("clauses", clauses cs);
              ("events", events es);
            ])
    | Fresh { a; b; clauses = cs; events = es } ->
        Json.Obj
          (head "fresh"
          @ [
              ("a", Json.Int a);
              ("b", Json.Int b);
              ("clauses", clauses cs);
              ("events", events es);
            ])
  in
  let header =
    Json.Obj
      [
        ("type", Json.String "certificate");
        ("schema_version", Json.Int Diagnostic.schema_version);
        ("nodes", Json.Int t.num_nodes);
        ("queries", Json.Int (Array.length t.queries));
        ("merges", Json.Int (List.length t.merges));
      ]
  in
  let merge { repr; node; proof } =
    Json.Obj
      [
        ("type", Json.String "merge");
        ("repr", Json.Int repr);
        ("node", Json.Int node);
        ("proof", Json.Int proof);
      ]
  in
  let report_line r =
    let errors, _, _ = Diagnostic.counts r.diags in
    Json.Obj
      [
        ("type", Json.String "report");
        ("valid", Json.Bool r.valid);
        ("queries", Json.Int r.queries);
        ("proved", Json.Int r.proved);
        ("merges", Json.Int r.merges);
        ("steps", Json.Int r.steps);
        ("steps_checked", Json.Int r.steps_checked);
        ("steps_trimmed", Json.Int r.steps_trimmed);
        ("errors", Json.Int errors);
      ]
  in
  let buf = Buffer.create 4096 in
  let line v =
    Buffer.add_string buf (Json.to_string v);
    Buffer.add_char buf '\n'
  in
  line header;
  Array.iteri (fun i q -> line (query i q)) t.queries;
  List.iter (fun m -> line (merge m)) t.merges;
  Option.iter (fun r -> line (report_line r)) report;
  Buffer.contents buf
