module N = Simgen_network.Network
module Level = Simgen_network.Level
module Rng = Simgen_base.Rng

type report = {
  vector : bool array;
  satisfied : (N.node_id * bool) list;
  conflicts : int;
  implications : int;
  decisions : int;
  useful : bool;
}

(* Alternate implication-to-fixpoint and decisions until every assigned
   cone gate is justified, or a conflict rolls everything back to [init].
   The target's cone is read only by the candidate scan, so it is marked
   at the first fixpoint ([marked]): a target whose first propagation
   conflicts never walks it. *)
let rec settle engine decision target init ~marked =
  match Engine.propagate engine with
  | Engine.Conflict_at _ ->
      Engine.rollback engine init;
      `Conflict
  | Engine.Fixpoint ->
      if not marked then Engine.mark_cone engine target;
      (* Success when no assigned cone gate awaits justification: then
         every assigned value — the target's in particular — holds under
         any completion of the open PIs, so the final random completion of
         the vector cannot break it. Nodes assigned before this target's
         checkpoint were justified by earlier, already-successful targets;
         only values added for this goal can need justification. *)
      let candidate = Engine.latest_candidate engine ~since:init in
      if candidate < 0 then `Satisfied
      else begin
        let before = Engine.checkpoint engine in
        match Decision.decide decision candidate with
        | Error _ ->
            Engine.rollback engine init;
            `Conflict
        | Ok () ->
            if Engine.checkpoint engine = before then
              Engine.set_exhausted engine candidate;
            settle engine decision target init ~marked:true
      end

(* One target of Algorithm 1's outer loop: assign OUTgold, then settle. *)
let process_target engine decision target gold =
  match Value.to_bool (Assignment.value (Engine.assignment engine) target) with
  | Some existing ->
      (* Pinned by a previous target's propagation. *)
      if existing = gold then `Satisfied else `Conflict
  | None ->
      let init = Engine.checkpoint engine in
      (* Candidates on which a decision already made no progress carry a
         justifying cube whose non-DC inputs are all assigned; they are
         skipped, which also makes the loop terminate. *)
      Engine.clear_exhausted engine;
      Engine.set engine target gold;
      settle engine decision target init ~marked:false

let generate_with engine decision ~rng ~levels outgold =
  let net = Engine.network engine in
  let assignment = Engine.assignment engine in
  let implications0 = Engine.num_implications engine in
  let decisions0 = Decision.num_decisions decision in
  (* Propagation is confined to the union of the targets' fanin cones:
     wide enough for cross-target implications (the values of one target
     constraining its class siblings), narrow enough to keep the paper's
     small runtime overhead over reverse simulation. *)
  Engine.set_scope_cones engine (List.map fst outgold);
  (* Line 2 of Algorithm 1: order targets by decreasing network depth. *)
  let ordered =
    List.sort
      (fun (a, _) (b, _) -> compare (levels.(b), b) (levels.(a), a))
      outgold
  in
  let satisfied = ref [] in
  let conflicts = ref 0 in
  List.iter
    (fun (target, gold) ->
      match process_target engine decision target gold with
      | `Satisfied -> satisfied := (target, gold) :: !satisfied
      | `Conflict -> incr conflicts)
    ordered;
  (* Complete the vector: every still-open PI takes a random value. *)
  let vector = Array.make (N.num_pis net) false in
  Array.iter
    (fun pi ->
      let idx = match N.kind net pi with N.Pi i -> i | N.Gate _ -> assert false in
      vector.(idx) <-
        (match Value.to_bool (Assignment.value assignment pi) with
         | Some b -> b
         | None -> Rng.bool rng))
    (N.pis net);
  let satisfied = List.rev !satisfied in
  let useful =
    List.exists (fun (_, g) -> g) satisfied
    && List.exists (fun (_, g) -> not g) satisfied
  in
  Engine.rollback engine 0;
  (* Under [SIMGEN_CHECK], verify after every class that the trail and
     the value map agree; [audit] is a no-op otherwise. *)
  Assignment.audit assignment;
  {
    vector;
    satisfied;
    conflicts = !conflicts;
    implications = Engine.num_implications engine - implications0;
    decisions = Decision.num_decisions decision - decisions0;
    useful;
  }

let generate ?(config = Config.default) ?rng net outgold =
  let rng = match rng with Some r -> r | None -> Rng.create 0x51A9 in
  let engine = Engine.create ~config net in
  let decision = Decision.create ~rng:(Rng.split rng) engine in
  let levels = Level.compute net in
  generate_with engine decision ~rng ~levels outgold
