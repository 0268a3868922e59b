(* Formal combinational equivalence checking between two netlists.

   Sequential designs are handled by the standard flop-correspondence
   reduction: every flow stage preserves primary-input, primary-output and
   flop *order*, so flop k of the reference corresponds to flop k of the
   candidate.  Flop Q pins become shared pseudo-primary-inputs and flop D
   pins become pseudo-primary-outputs; proving the resulting combinational
   (transition + output) functions equal proves sequential equivalence from
   the common all-zero reset state.

   Both netlists are replayed into one shared structurally-hashed AIG, so
   any logic the flow left untouched strashes to the *same* literal and
   falls out of the miter for free; only genuinely restructured cones reach
   the SAT solver.  The miter (OR of XORs of corresponding outputs) is
   Tseitin-encoded and decided by the CDCL solver in {!Sat}: UNSAT is a
   proof of equivalence, SAT yields a concrete distinguishing input
   vector.

   A monolithic miter over an arithmetic design (the FPU's 8x8 multiplier)
   can defeat CDCL outright, so the direct solve gets a conflict budget;
   if it runs out, the shared AIG is first reduced by simulation-guided
   SAT sweeping ({!Sweep}), which merges internally equivalent nodes one
   small proof at a time, and the (now near-trivial) miter is re-formed
   over the swept AIG and decided without a budget. *)

module Netlist = Vpga_netlist.Netlist
module Aig = Vpga_aig.Aig

type counterexample = {
  root : int; (* index among POs, then flop D pins *)
  root_is_flop : bool;
  inputs : bool array; (* values over PIs, then flop Q pins *)
}

type verdict = Equivalent | Inequivalent of counterexample

type bounded_verdict =
  | Proved
  | Refuted of counterexample
  | Undecided (* conflict budget exhausted at every pipeline step *)

(* Replay [nl] into [aig], using [in_lits] for its primary inputs followed
   by its flop Q pins.  Returns the output literals: POs first, then flop D
   pins (matching [Aig.of_netlist]'s root convention). *)
let replay aig nl in_lits =
  let lit_of = Aig.add_netlist aig nl in_lits in
  List.map
    (fun i ->
      let d = (Netlist.node nl i).Netlist.fanins.(0) in
      if d < 0 then invalid_arg "Cec.replay: unconnected flop";
      lit_of.(d))
    (Netlist.outputs nl @ Netlist.flops nl)

let same_interface a b =
  List.length (Netlist.inputs a) = List.length (Netlist.inputs b)
  && List.length (Netlist.outputs a) = List.length (Netlist.outputs b)
  && List.length (Netlist.flops a) = List.length (Netlist.flops b)

(* The decision pipeline, optionally bounded: [budget = Some mc] caps
   total effort (direct solve, per-merge sweeping proofs, and the final
   post-sweep solve all run under [mc] conflicts) and may come back
   [Undecided]; [budget = None] is the unbounded pipeline of {!check},
   whose final solve cannot time out. *)
let decide budget a b =
  if not (same_interface a b) then
    invalid_arg "Cec.check: interface mismatch (PI/PO/flop counts differ)";
  let npi = List.length (Netlist.inputs a) in
  let nff = List.length (Netlist.flops a) in
  let npo = List.length (Netlist.outputs a) in
  let aig = Aig.create () in
  let in_lits = Array.init (npi + nff) (fun _ -> Aig.add_pi aig) in
  let roots_a = replay aig a in_lits in
  let roots_b = replay aig b in_lits in
  let miter =
    List.fold_left2
      (fun acc la lb -> Aig.or_ aig acc (Aig.xor_ aig la lb))
      Aig.const0 roots_a roots_b
  in
  let counterexample inputs =
    (* Locate the first differing root under [inputs], simulated as one
       word with the pattern in bit 0. *)
    let sg =
      Sweep.simulate aig ~words:1 (fun id _ ->
          Bool.to_int inputs.(Aig.pi_index aig id))
    in
    let bit l = (sg.(Aig.node_of l) lxor l) land 1 in
    let rec find k ra rb =
      match (ra, rb) with
      | la :: ra', lb :: rb' ->
          if bit la <> bit lb then k else find (k + 1) ra' rb'
      | _ -> invalid_arg "Cec.check: SAT model does not distinguish outputs"
    in
    let k = find 0 roots_a roots_b in
    Refuted
      { root = (if k < npo then k else k - npo); root_is_flop = k >= npo; inputs }
  in
  let model_inputs model subst =
    Array.map
      (fun l ->
        let l' = subst l in
        model.(Aig.node_of l') <> Aig.is_complement l')
      in_lits
  in
  let direct_budget =
    match budget with Some mc -> min mc 2_000 | None -> 2_000
  in
  if miter = Aig.const0 then Proved
  else if miter = Aig.const1 then
    counterexample (Array.make (npi + nff) false)
  else begin
    let cnf = Cnf.of_cone aig miter in
    match
      Sat.solve ~max_conflicts:direct_budget ~nvars:cnf.Cnf.nvars
        cnf.Cnf.clauses
    with
    | Sat.Unsat -> Proved
    | Sat.Sat model -> counterexample (model_inputs model (fun l -> l))
    | Sat.Unknown -> begin
        (* Budget exhausted: sweep internal equivalences, then re-decide.
           The substitution is exact (every merge is SAT-proven), so a
           verdict on the swept miter transfers to the original. *)
        let swept, subst =
          Sweep.reduce
            ?merge_budget:(Option.map (fun mc -> min mc 4_000) budget)
            aig
        in
        let miter' =
          List.fold_left2
            (fun acc la lb ->
              Aig.or_ swept acc (Aig.xor_ swept (subst la) (subst lb)))
            Aig.const0 roots_a roots_b
        in
        if miter' = Aig.const0 then Proved
        else if miter' = Aig.const1 then
          counterexample (Array.make (npi + nff) false)
        else
          let cnf = Cnf.of_cone swept miter' in
          match Sat.solve ?max_conflicts:budget ~nvars:cnf.Cnf.nvars cnf.Cnf.clauses with
          | Sat.Unsat -> Proved
          | Sat.Sat model -> counterexample (model_inputs model subst)
          | Sat.Unknown -> Undecided (* only reachable when bounded *)
      end
  end

let check_bounded ~max_conflicts a b = decide (Some max_conflicts) a b

let check a b =
  match decide None a b with
  | Proved -> Equivalent
  | Refuted cex -> Inequivalent cex
  | Undecided -> assert false (* unbounded final solve cannot time out *)

(* Hard-failure wrapper used by the flow gates. *)
let prove ~stage reference candidate =
  match check reference candidate with
  | Equivalent -> ()
  | Inequivalent { root; root_is_flop; _ } ->
      failwith
        (Printf.sprintf
           "%s: SAT equivalence check refuted design %s (%s %d differs)"
           stage
           (Netlist.design_name reference)
           (if root_is_flop then "flop D pin" else "output")
           root)
