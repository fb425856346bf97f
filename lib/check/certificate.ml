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

module Engine = Drup.Engine

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
            (* A slice lemma is tagged with its global step number, so
               [tag - base] is its event index within this slice and
               negative for every older clause. *)
            let base = !steps in
            steps := !steps + n;
            let recs = Array.make n None in
            let deleted = Array.make n None in
            let needed = Array.make n false in
            let deleted_in_slice = Array.make n false in
            let mark_needed c =
              let j = Engine.tag c - base in
              if j >= 0 then needed.(j) <- true
            in
            let slice_ok = ref true in
            let verify j lits =
              incr checked;
              if not (Engine.rup eng ~on_used:mark_needed lits) then begin
                fail ~loc "X001" "proof step %d fails RUP" j;
                slice_ok := false
              end
            in
            (* Forward: units (and the empty clause) are verified eagerly
               and root-propagated; longer lemmas are installed
               optimistically and verified by the backward pass, which
               skips the ones nothing ever used. *)
            for j = 0 to n - 1 do
              match ev.(j) with
              | Solver.Learn lits ->
                  let ll = Array.to_list lits in
                  if Array.length lits <= 1 then verify j ll;
                  recs.(j) <- Some (Engine.add ~tag:(base + j) eng ll, ll)
              | Solver.Delete lits -> (
                  (* The deletion of an unknown clause is a sound no-op. *)
                  match Engine.find eng lits with
                  | Some c ->
                      Engine.disable eng c;
                      if Engine.tag c >= base then
                        deleted_in_slice.(Engine.tag c - base) <- true;
                      deleted.(j) <- Some c
                  | None -> ())
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
            Array.iteri
              (fun j r ->
                if r <> None && not deleted_in_slice.(j) then
                  needed.(j) <- true)
              recs;
            (* Backward: undo the slice, disabling every lemma as the walk
               passes it, so a lemma is checked only against what stood
               before it — never against a root unit it or a later lemma
               implied. Needed long lemmas are verified there (their
               antecedents get marked needed in turn); unneeded ones are
               the trim. *)
            for j = n - 1 downto 0 do
              Option.iter (Engine.enable eng) deleted.(j);
              match recs.(j) with
              | Some (c, ll) -> (
                  Engine.disable eng c;
                  match ll with
                  | [] | [ _ ] -> ()
                  | _ -> if needed.(j) then verify j ll else incr trimmed)
              | None -> ()
            done;
            (* Restore the slice-end state: deletions of older lemmas are
               re-applied and the surviving lemmas come back. *)
            Array.iter
              (function
                | Some c when Engine.tag c < base -> Engine.disable eng c
                | _ -> ())
              deleted;
            Array.iteri
              (fun j r ->
                match r with
                | Some (c, _) when not deleted_in_slice.(j) -> Engine.enable eng c
                | _ -> ())
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
