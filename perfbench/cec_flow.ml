(* cec-mix and cec-stacked: the paper's Fig. 2 CEC flow through
   [Cec.check] with default options.

   cec-mix poses eight flat circuits twice each: K = 6 against K = 4
   mappings of the same AIG (equivalent by construction), and K = 6
   against a K = 4 copy with one LUT row flipped (non-equivalent, with a
   witness). Guided and SAT work are about equal here, and the mutant
   half uses the same layers differently: today a mutant costs what its
   twin costs, so an early-exit change shows on one half and a
   proof-speed change on the other. The set is fixed rather than drawn,
   so that runs at different seeds measure the same amount of work; the
   seed moves the mutation sites and the sweeper's random patterns.

   cec-stacked is the §6.4 shape: square stacked, K = 6 against K = 4,
   equivalent, 185 POs over 9 PIs. Guided rounds take most of the time
   there and grow faster than linearly with the network, which flat
   circuits hide. *)

module Suite = Simgen_benchgen.Suite
module Sweeper = Simgen_sweep.Sweeper
module Sweep_options = Simgen_sweep.Sweep_options
module Sat_session = Simgen_sweep.Sat_session
module Cec = Simgen_sweep.Cec
module Solver = Simgen_sat.Solver
module N = Simgen_network.Network
module Stack_networks = Simgen_network.Stack_networks
module Rng = Simgen_base.Rng
module H = Harness

(* PLA, arithmetic, control and ITC'99 circuits whose CEC takes 0.15-0.8 s
   on a 2-vCPU virtual machine: short enough that a run repeats every
   instance a few times. *)
let mix_circuits ~smoke =
  if smoke then [ "dec"; "priority"; "apex5" ]
  else [ "apex5"; "cps"; "e64"; "dalu"; "log2"; "arbiter"; "m_ctrl"; "b14_C" ]

let stacked_circuit ~smoke = if smoke then "apex5" else "square"

(* One CEC instance: [left] against [right] under sweeper seed [seed],
   with guided rounds cut to 2 under [--smoke]. *)
type pair = {
  label : string;
  left : N.t;
  right : N.t;
  mutant : bool;
  seed : int;
  smoke : bool;
}

type setup = {
  pairs : pair list;
  luts : int;
  map_s : float;
  mutate_s : float;
  problems : string list;
}

let setup_mix (p : H.params) () =
  let rng = Rng.create p.seed in
  let map_s = ref 0.0 and mutate_s = ref 0.0 and problems = ref [] and luts = ref 0 in
  let pairs =
    List.concat_map
      (fun c ->
        let (n6, n4), t =
          H.timed (fun () -> (Suite.lut_network c, Suite.lut_network ~k:4 c))
        in
        map_s := !map_s +. t;
        if not (Oracle.agree rng n6 n4) then
          problems := (c ^ ": K6 and K4 mappings disagree") :: !problems;
        let m, t = H.timed (fun () -> Oracle.mutant rng n4) in
        mutate_s := !mutate_s +. t;
        luts := !luts + N.num_gates n6 + N.num_gates n4;
        let pair label right mutant = { label; left = n6; right; mutant; seed = p.seed; smoke = p.smoke } in
        [ pair c n4 false; pair (c ^ "-mutant") m true ])
      (mix_circuits ~smoke:p.smoke)
  in
  { pairs; luts = !luts; map_s = !map_s; mutate_s = !mutate_s; problems = !problems }

(* Two stacked copies, checked under two sweeper seeds: at seven copies
   one check takes 20 s on a 2-vCPU virtual machine and its time moves
   by 14% from seed to seed, too much for one sample per run; two copies
   under two seeds fit a pass or two in a run and average the seed
   effect. *)
let setup_stacked (p : H.params) () =
  let c = stacked_circuit ~smoke:p.smoke in
  let (n6, n4), map_s =
    H.timed (fun () ->
        let stacked k = Stack_networks.stack (Suite.lut_network ~k c) 2 in
        (stacked 6, stacked 4))
  in
  let problems =
    if Oracle.agree (Rng.create p.seed) n6 n4 then []
    else [ c ^ " stacked: K6 and K4 mappings disagree" ]
  in
  let pair seed =
    {
      label = Printf.sprintf "%s-x2-seed%d" c seed;
      left = n6;
      right = n4;
      mutant = false;
      seed;
      smoke = p.smoke;
    }
  in
  {
    pairs = (if p.smoke then [ pair p.seed ] else [ pair p.seed; pair (p.seed + 1_000_003) ]);
    luts = N.num_gates n6 + N.num_gates n4;
    map_s;
    mutate_s = 0.0;
    problems;
  }

type inst = {
  label : string;
  verdict : string;
  ok : bool;  (** the verdict matches the known answer *)
  cost : int;  (** Eq. 5 after the guided phase *)
  sat_calls : int;  (** sweep calls plus PO calls *)
  po_calls : int;
  history : int list;
  mutant : bool;
  clock : H.clock;
}

let options (pair : pair) =
  {
    Sweep_options.default with
    Sweep_options.seed = pair.seed;
    guided_iterations =
      (if pair.smoke then 2 else Sweep_options.default.guided_iterations);
  }

(* Judge an outcome against the known answer: twins are equivalent;
   a mutant must come back Not_equivalent with a vector that the scalar
   evaluator confirms at the reported PO. *)
let judge (pair : pair) outcome ~sat ~po_calls ~history ~clock =
  let verdict, ok =
    match outcome with
    | Cec.Equivalent -> ("equivalent", not pair.mutant)
    | Cec.Not_equivalent { po; vector } ->
        ( Printf.sprintf "not-equivalent@po%d:%s" po
            (String.init (Array.length vector) (fun i -> if vector.(i) then '1' else '0')),
          pair.mutant && Oracle.exposes pair.left pair.right vector po )
    | Cec.Inconclusive { pos } ->
        (Printf.sprintf "inconclusive@%d-pos" (List.length pos), false)
  in
  (* The history ends with one entry per counter-example fed back by the
     sweep, and one more for a PO-phase witness; the entry before those
     is the cost the guided phase left. *)
  let feedback =
    sat.Sweeper.disproved
    + match outcome with Cec.Not_equivalent _ -> 1 | Cec.Equivalent | Cec.Inconclusive _ -> 0
  in
  let cost =
    Option.value ~default:(-1)
      (List.nth_opt history (List.length history - 1 - feedback))
  in
  {
    label = pair.label;
    verdict;
    ok;
    cost;
    sat_calls = sat.Sweeper.calls + po_calls;
    po_calls;
    history;
    mutant = pair.mutant;
    clock;
  }

let untraced (pair : pair) =
  let r, clock = H.clocked (fun () -> Cec.check (options pair) pair.left pair.right) in
  judge pair r.Cec.outcome ~sat:r.Cec.sat ~po_calls:r.Cec.po_calls
    ~history:r.Cec.cost_history ~clock

(* [Cec.check] rebuilt from its public steps, with a span around each
   call into a layer. Must reproduce the untraced verdict, cost and call
   counts exactly. *)
let traced c (pair : pair) =
  let o = options pair in
  let t0 = H.now () in
  let outcome, sw, po_calls =
    Span.instance "cec.instance" (fun () ->
        let joined, pos1, pos2 =
          Span.with_ "cec.join" (fun () -> Cec.join pair.left pair.right)
        in
        let sw = Span.with_ "sweep.create" (fun () -> Sweeper.create o joined) in
        for _ = 1 to o.Sweep_options.random_rounds do
          Span.with_ "sim.random" (fun () -> Sweeper.random_round sw)
        done;
        for _ = 1 to o.Sweep_options.guided_iterations do
          H.add_guided c
            (Span.with_ "core.guided" (fun () ->
                 Sweeper.guided_round sw o.Sweep_options.strategy))
        done;
        let sat = Span.with_ "sweep.sat_sweep" (fun () -> Sweeper.sat_sweep o sw) in
        H.bumpi c "sweep.calls" sat.Sweeper.calls;
        H.bumpi c "sweep.proved" sat.Sweeper.proved;
        H.bumpi c "sweep.disproved" sat.Sweeper.disproved;
        H.bumpi c "sat.conflicts" sat.Sweeper.conflicts;
        H.bumpi c "sat.propagations" sat.Sweeper.propagations;
        if pair.mutant then H.bump c "cec.pre_po_s" (H.now () -. t0);
        let po_calls = ref 0 in
        let rec check_pos i unknowns =
          if i >= Array.length pos1 then
            match unknowns with
            | [] -> Cec.Equivalent
            | pos -> Cec.Inconclusive { pos = List.rev pos }
          else
            let a = Sweeper.representative sw pos1.(i)
            and b = Sweeper.representative sw pos2.(i) in
            if a = b then check_pos (i + 1) unknowns
            else begin
              incr po_calls;
              let verdict, st =
                Span.with_ "sweep.verify_pair" (fun () -> Sweeper.verify_pair o sw a b)
              in
              H.bumpi c "sat.conflicts" st.Solver.conflicts;
              H.bumpi c "sat.propagations" st.Solver.propagations;
              match verdict with
              | Sat_session.Equal ->
                  Span.with_ "sweep.merge" (fun () -> Sweeper.merge sw a b);
                  check_pos (i + 1) unknowns
              | Sat_session.Counterexample vector ->
                  Span.with_ "sim.apply_vector" (fun () -> Sweeper.apply_vector sw vector);
                  Cec.Not_equivalent { po = i; vector }
              | Sat_session.Unknown -> check_pos (i + 1) (i :: unknowns)
            end
        in
        let outcome = Span.with_ "cec.po" (fun () -> check_pos 0 []) in
        (outcome, sw, !po_calls))
  in
  let clock = { H.start = t0; stop = H.now () } in
  H.bumpi c "cec.po_calls" po_calls;
  let s = Sat_session.stats (Sweeper.session sw) in
  H.bumpi c "session.encoded" s.Sat_session.encoded;
  H.bumpi c "session.reencoded" s.Sat_session.reencoded;
  H.bumpi c "session.rebuilds" s.Sat_session.rebuilds;
  let d = Sweeper.degrade_stats sw in
  H.bumpi c "ladder.unknowns" d.Sweeper.unknowns;
  H.bumpi c "ladder.fallbacks" (d.Sweeper.fresh_fallbacks + d.Sweeper.bdd_fallbacks);
  judge pair outcome ~sat:(Sweeper.sat_stats sw) ~po_calls
    ~history:(Sweeper.cost_history sw) ~clock

let key i = (i.label, i.verdict, i.cost, i.sat_calls, i.po_calls, i.history)

let run ~stacked (p : H.params) =
  let name = if stacked then "cec-stacked" else "cec-mix" in
  let setups, plain, traced =
    H.measure p
      ~setup:(if stacked then setup_stacked p else setup_mix p)
      ~untraced:(fun s -> List.map untraced s.pairs)
      ~traced:(fun s c -> List.map (traced c) s.pairs)
  in
  let s = snd (H.last setups) in
  let first = List.hd plain in
  let all = plain @ List.map fst traced in
  let attempted = List.length (List.concat all) in
  let failed = List.length (List.filter (fun i -> not i.ok) (List.concat all)) in
  let time i = H.seconds i.clock in
  let fast = List.combine first (H.typical (H.per_pass time plain)) in
  let times pred = List.filter_map (fun (i, t) -> if pred i then Some t else None) fast in
  let total f = float_of_int (List.fold_left (fun a i -> a + f i) 0 first) in
  let split =
    if List.exists (fun (pr : pair) -> pr.mutant) s.pairs then
      let eq = times (fun i -> not i.mutant) and neq = times (fun i -> i.mutant) in
      [
        Metrics.v ~n:(List.length eq) "eq_s.p50" (Stats.median eq);
        Metrics.v ~n:(List.length neq) "neq_s.p50" (Stats.median neq);
        Metrics.v ~n:(List.length setups) "setup.mutate_s"
          (Stats.median (List.map (fun (_, s) -> s.mutate_s) setups));
      ]
    else []
  in
  let joined =
    List.map
      (fun (pr : pair) ->
        let j, _, _ = Cec.join pr.left pr.right in
        j)
      s.pairs
  in
  let values =
    H.common
      ~setup_times:(List.map fst setups)
      ~map_times:(List.map (fun (_, s) -> s.map_s) setups)
      ~luts:s.luts ~passes:(List.length plain) (List.map snd fast)
    @ [
        Metrics.v "error_rate" (Stats.ratio (float_of_int failed) (float_of_int attempted));
        Metrics.v "cost" (total (fun i -> i.cost));
        Metrics.v "sat_calls" (total (fun i -> i.sat_calls));
      ]
    @ split
    @ H.traced_values p ~times:(H.per_pass time plain)
        ~traced_times:(H.per_pass time (List.map fst traced))
        ~layers:(List.map snd traced) ~nets:joined
  in
  let problems =
    s.problems
    @
    if List.for_all (fun is -> List.map key is = List.map key first) all then []
    else [ name ^ ": passes disagree on verdicts, cost or SAT calls (traced or repeated)" ]
  in
  { H.attempted; failed; problems; values }
