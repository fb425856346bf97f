module Runtime_check = Simgen_base.Runtime_check

(* A node is assigned at most once between rollbacks, so the trail never
   holds more than one entry per node and fits a fixed array. *)
type t = { vals : Value.t array; trail : int array; mutable len : int }

let create n =
  { vals = Array.make n Value.Unknown; trail = Array.make n (-1); len = 0 }

let value t id = t.vals.(id)

let values t = t.vals

let trail t = t.trail

let is_assigned t id = Value.is_assigned t.vals.(id)

let assign t id b =
  if Value.is_assigned t.vals.(id) then
    invalid_arg "Assignment.assign: already assigned";
  t.vals.(id) <- Value.of_bool b;
  t.trail.(t.len) <- id;
  t.len <- t.len + 1

let checkpoint t = t.len

let rollback t mark =
  if Runtime_check.enabled () then begin
    (* Trail marks must be monotone: a rollback target in the future means
       the caller mixed up checkpoints from different engine states. *)
    if mark < 0 || mark > t.len then
      Runtime_check.failf
        "R006: Assignment.rollback: mark %d outside trail of length %d" mark
        t.len
  end;
  while t.len > mark do
    t.len <- t.len - 1;
    t.vals.(t.trail.(t.len)) <- Value.Unknown
  done

let num_assigned t = t.len

let to_array t = Array.copy t.vals

let audit t =
  if Runtime_check.enabled () then begin
    (* The trail and the value map must agree exactly: every trail entry
       assigned, no duplicates, and nothing assigned off-trail. *)
    let seen = Array.make (Array.length t.vals) false in
    for i = 0 to t.len - 1 do
      let id = t.trail.(i) in
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
