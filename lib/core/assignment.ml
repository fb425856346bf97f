module Vec = Simgen_base.Vec
module Runtime_check = Simgen_base.Runtime_check

type t = { vals : Value.t array; trail : int Vec.t }

let create n = { vals = Array.make n Value.Unknown; trail = Vec.create ~dummy:(-1) () }

let value t id = t.vals.(id)

let values t = t.vals

let is_assigned t id = Value.is_assigned t.vals.(id)

let assign t id b =
  if Value.is_assigned t.vals.(id) then
    invalid_arg "Assignment.assign: already assigned";
  t.vals.(id) <- Value.of_bool b;
  Vec.push t.trail id

let checkpoint t = Vec.length t.trail

let rollback t mark =
  if Runtime_check.enabled () then begin
    (* Trail marks must be monotone: a rollback target in the future means
       the caller mixed up checkpoints from different engine states. *)
    if mark < 0 || mark > Vec.length t.trail then
      Runtime_check.failf
        "R006: Assignment.rollback: mark %d outside trail of length %d" mark
        (Vec.length t.trail)
  end;
  while Vec.length t.trail > mark do
    let id = Vec.pop t.trail in
    t.vals.(id) <- Value.Unknown
  done

let num_assigned t = Vec.length t.trail

let latest_in ?(since = 0) t ~mask p =
  let rec go i =
    if i < since then None
    else
      let id = Vec.get t.trail i in
      if mask id && p id then Some id else go (i - 1)
  in
  go (Vec.length t.trail - 1)

let iter_since t mark f =
  for i = mark to Vec.length t.trail - 1 do
    f (Vec.get t.trail i)
  done

let to_array t = Array.copy t.vals

let audit t =
  if Runtime_check.enabled () then begin
    (* The trail and the value map must agree exactly: every trail entry
       assigned, no duplicates, and nothing assigned off-trail. *)
    let seen = Array.make (Array.length t.vals) false in
    for i = 0 to Vec.length t.trail - 1 do
      let id = Vec.get t.trail i in
      if id < 0 || id >= Array.length t.vals then
        Runtime_check.failf "R006: Assignment.audit: trail entry %d out of range" id;
      if seen.(id) then
        Runtime_check.failf "R006: Assignment.audit: node %d on the trail twice" id;
      seen.(id) <- true;
      if not (Value.is_assigned t.vals.(id)) then
        Runtime_check.failf
          "R006: Assignment.audit: node %d on the trail but Unknown" id
    done;
    Array.iteri
      (fun id on_trail ->
        if (not on_trail) && Value.is_assigned t.vals.(id) then
          Runtime_check.failf
            "R006: Assignment.audit: node %d assigned but not on the trail" id)
      seen
  end
