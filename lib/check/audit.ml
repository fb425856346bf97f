module Runtime_check = Simgen_base.Runtime_check
module N = Simgen_network.Network
module Eq_classes = Simgen_sim.Eq_classes
module D = Diagnostic

let eq_partition classes net =
  if Runtime_check.enabled () then begin
    let seen = Hashtbl.create 256 in
    let groups = Eq_classes.classes classes in
    List.iter
      (fun group ->
        (match group with
         | [] | [ _ ] ->
             Runtime_check.failf
               "R001: eq-class of size %d (must be >= 2)" (List.length group)
         | _ -> ());
        let rec check_sorted = function
          | a :: (b :: _ as rest) ->
              if a >= b then
                Runtime_check.failf
                  "R001: eq-class not strictly sorted (%d before %d)" a b;
              check_sorted rest
          | _ -> ()
        in
        check_sorted group;
        List.iter
          (fun id ->
            if id < 0 || id >= N.num_nodes net then
              Runtime_check.failf "R001: eq-class member %d out of range" id;
            if N.is_pi net id then
              Runtime_check.failf "R001: eq-class contains PI %d" id;
            if Hashtbl.mem seen id then
              Runtime_check.failf
                "R001: node %d appears in two eq-classes (not a partition)"
                id;
            Hashtbl.add seen id ();
            (* The by-node index must name exactly this class. *)
            if Eq_classes.class_of classes id != group then
              Runtime_check.failf
                "R001: class_of %d disagrees with the class list" id)
          group)
      groups;
    let n = List.length groups in
    if Eq_classes.num_classes classes <> n then
      Runtime_check.failf "R001: num_classes %d but %d classes listed"
        (Eq_classes.num_classes classes) n
  end

let substitution subst =
  if Runtime_check.enabled () then begin
    let n = Array.length subst in
    Array.iteri
      (fun id target ->
        if target < 0 || target >= n then
          Runtime_check.failf
            "R002: substitution of node %d targets %d, out of range" id target;
        if target > id then
          Runtime_check.failf
            "R003: substitution not monotone: node %d points up to %d \
             (cycles possible)"
            id target)
      subst
  end

let check_exn ~what diags =
  match List.find_opt (fun d -> d.D.severity = D.Error) diags with
  | Some d -> Runtime_check.failf "%s: %s" what (D.to_string d)
  | None -> ()
