module TT = Truth_table

(* Minato-Morreale ISOP on the interval [lower, upper]. Returns the cube
   list together with the truth table of its union. Cubes are built over the
   full variable count [n]; [var] is the highest variable still eligible for
   splitting. *)
let rec isop n lower upper var =
  match (TT.is_const lower, TT.is_const upper) with
  | Some false, _ -> ([], TT.create_const n false)
  | _, Some true -> ([ Cube.make (Array.make n Cube.DC) true ], TT.create_const n true)
  | _ ->
      (* Find a splitting variable: one that lower or upper depends on. *)
      let rec find v =
        if v < 0 then None
        else if TT.depends_on lower v || TT.depends_on upper v then Some v
        else find (v - 1)
      in
      (match find var with
       | None ->
           (* Both constant-free of remaining vars; lower is not const0 and
              upper not const1 is impossible unless lower <= upper broken. *)
           assert false
       | Some v ->
           let l0 = TT.cofactor lower v false and l1 = TT.cofactor lower v true in
           let u0 = TT.cofactor upper v false and u1 = TT.cofactor upper v true in
           let c0, g0 = isop n (TT.and_ l0 (TT.not_ u1)) u0 (v - 1) in
           let c1, g1 = isop n (TT.and_ l1 (TT.not_ u0)) u1 (v - 1) in
           let lnew =
             TT.or_ (TT.and_ l0 (TT.not_ g0)) (TT.and_ l1 (TT.not_ g1))
           in
           let cd, gd = isop n lnew (TT.and_ u0 u1) (v - 1) in
           let set_lit lit (c : Cube.t) =
             let lits = Array.copy c.Cube.lits in
             lits.(v) <- lit;
             Cube.make lits true
           in
           let cubes =
             List.map (set_lit Cube.F) c0
             @ List.map (set_lit Cube.T) c1
             @ cd
           in
           let xv = TT.var v n in
           let g =
             TT.or_ gd
               (TT.or_ (TT.and_ (TT.not_ xv) g0) (TT.and_ xv g1))
           in
           (cubes, g))

let reference_cover f =
  let n = TT.nvars f in
  let cubes, g = isop n f f (n - 1) in
  assert (TT.equal g f);
  cubes

(* The same recursion for tables of 1 to 6 variables, on one machine
   word through [TT]'s one-word helpers: [isop] above step for step (same
   split variable, same cube order), without a table or a list built per
   step. Cubes go to [buf] in emission order, two bits per variable: bit
   [2v] for literal [T], bit [2v + 1] for [F], neither for [DC]. A split
   on [v] emits the cubes of its [F] branch, then of its [T] branch, then
   of the shared branch; tagging the first two ranges with the literal at
   [v] afterwards yields [isop]'s [c0 @ c1 @ cd]. *)
module Word = struct
  type buf = { mutable cubes : int array; mutable len : int }

  let push buf c =
    if buf.len = Array.length buf.cubes then begin
      let grown = Array.make (2 * buf.len) 0 in
      Array.blit buf.cubes 0 grown 0 buf.len;
      buf.cubes <- grown
    end;
    buf.cubes.(buf.len) <- c;
    buf.len <- buf.len + 1

  let tag buf lo hi bits =
    for k = lo to hi - 1 do
      buf.cubes.(k) <- buf.cubes.(k) lor bits
    done

  (* [mask] holds the table's [2^n] bits: constant one, and the mask every
     complement is cut to. *)
  let rec isop buf mask lower upper var =
    if Int64.equal lower 0L then 0L
    else if Int64.equal upper mask then begin
      push buf 0;
      mask
    end
    else begin
      let v = ref var in
      while
        not (TT.depends_on_word lower !v || TT.depends_on_word upper !v)
      do
        decr v
      done;
      let v = !v in
      let l0 = TT.cofactor_word lower v false
      and l1 = TT.cofactor_word lower v true in
      let u0 = TT.cofactor_word upper v false
      and u1 = TT.cofactor_word upper v true in
      let first = buf.len in
      let g0 = isop buf mask (Int64.logand l0 (Int64.lognot u1)) u0 (v - 1) in
      let mid = buf.len in
      let g1 = isop buf mask (Int64.logand l1 (Int64.lognot u0)) u1 (v - 1) in
      tag buf first mid (2 lsl (2 * v));
      tag buf mid buf.len (1 lsl (2 * v));
      let lnew =
        Int64.logor
          (Int64.logand l0 (Int64.lognot g0))
          (Int64.logand l1 (Int64.lognot g1))
      in
      let gd = isop buf mask lnew (Int64.logand u0 u1) (v - 1) in
      let p = TT.var_pattern v in
      Int64.logor gd
        (Int64.logor (Int64.logand (Int64.lognot p) g0) (Int64.logand p g1))
    end

  let lit c v =
    match (c lsr (2 * v)) land 3 with 1 -> Cube.T | 2 -> Cube.F | _ -> Cube.DC

  (* The cubes of the interval [f, f], prepended to [acc] with output
     [out]. *)
  let cover n mask f out acc =
    let buf = { cubes = Array.make 16 0; len = 0 } in
    let g = isop buf mask f f (n - 1) in
    assert (Int64.equal g f);
    let acc = ref acc in
    for k = buf.len - 1 downto 0 do
      let c = buf.cubes.(k) in
      acc := Cube.make (Array.init n (lit c)) out :: !acc
    done;
    !acc
end

(* Tables of 1 to 6 variables take the one-word path; 0 and 7 to 16 take
   the reference recursion. *)
let one_word n = n >= 1 && n <= 6

let cover f =
  let n = TT.nvars f in
  if one_word n then Word.cover n (TT.last_mask n) (TT.word f 0) true []
  else reference_cover f

let rows f =
  let n = TT.nvars f in
  if one_word n then
    let m = TT.last_mask n and w = TT.word f 0 in
    Word.cover n m w true
      (Word.cover n m (Int64.logand (Int64.lognot w) m) false [])
  else
    let offset =
      List.map
        (fun (c : Cube.t) -> Cube.make c.Cube.lits false)
        (reference_cover (TT.not_ f))
    in
    reference_cover f @ offset

let cover_to_truth_table n cubes =
  List.fold_left
    (fun acc c -> TT.or_ acc (Cube.to_truth_table n c))
    (TT.create_const n false) cubes
