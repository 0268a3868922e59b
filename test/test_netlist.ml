(* Tests for the netlist IR: builder, levelization, simulation, equivalence
   checking and statistics. *)

open Vpga_netlist
module Bfun = Vpga_logic.Bfun

(* A 1-bit full adder over generic gates. *)
let full_adder () =
  let nl = Netlist.create ~name:"fa" () in
  let a = Netlist.input nl "a" in
  let b = Netlist.input nl "b" in
  let cin = Netlist.input nl "cin" in
  let sum = Netlist.gate nl Kind.Xor3 [| a; b; cin |] in
  let cout = Netlist.gate nl Kind.Maj3 [| a; b; cin |] in
  ignore (Netlist.output nl "sum" sum);
  ignore (Netlist.output nl "cout" cout);
  nl

(* A 3-bit counter: tests flops and feedback. *)
let counter3 () =
  let nl = Netlist.create ~name:"cnt3" () in
  let en = Netlist.input nl "en" in
  let q0 = Netlist.dff ~name:"q0" nl in
  let q1 = Netlist.dff ~name:"q1" nl in
  let q2 = Netlist.dff ~name:"q2" nl in
  let d0 = Netlist.gate nl Kind.Xor2 [| q0; en |] in
  let c0 = Netlist.gate nl Kind.And2 [| q0; en |] in
  let d1 = Netlist.gate nl Kind.Xor2 [| q1; c0 |] in
  let c1 = Netlist.gate nl Kind.And2 [| q1; c0 |] in
  let d2 = Netlist.gate nl Kind.Xor2 [| q2; c1 |] in
  Netlist.connect nl ~flop:q0 ~d:d0;
  Netlist.connect nl ~flop:q1 ~d:d1;
  Netlist.connect nl ~flop:q2 ~d:d2;
  ignore (Netlist.output nl "b0" q0);
  ignore (Netlist.output nl "b1" q1);
  ignore (Netlist.output nl "b2" q2);
  nl

let test_builder () =
  let nl = full_adder () in
  Alcotest.(check int) "inputs" 3 (List.length (Netlist.inputs nl));
  Alcotest.(check int) "outputs" 2 (List.length (Netlist.outputs nl));
  Alcotest.(check int) "no flops" 0 (List.length (Netlist.flops nl));
  (match Netlist.validate nl with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Netlist.gate: xor2 expects 2 fanins, got 3")
    (fun () -> ignore (Netlist.gate nl Kind.Xor2 [| 0; 1; 2 |]))

let test_validate_unconnected_flop () =
  let nl = Netlist.create () in
  let _q = Netlist.dff nl in
  (match Netlist.validate nl with
  | Ok () -> Alcotest.fail "expected validation failure"
  | Error _ -> ())

let test_fanout () =
  let nl = full_adder () in
  let fo = Netlist.fanout nl in
  (* input a (id 0) feeds both xor3 and maj3 *)
  Alcotest.(check int) "a fans out to 2" 2 (Array.length fo.(0))

let test_levelize () =
  let nl = full_adder () in
  let lv = Levelize.run nl in
  Alcotest.(check int) "depth (gates then outputs)" 2 lv.Levelize.depth;
  Alcotest.(check bool) "acyclic" true (Levelize.is_acyclic nl);
  let cnt = counter3 () in
  Alcotest.(check bool) "counter acyclic (flop breaks loop)" true
    (Levelize.is_acyclic cnt)

let test_comb_cycle_detected () =
  let nl = Netlist.create () in
  let a = Netlist.input nl "a" in
  (* A combinational cycle is not expressible with the forward-only builder
     (only flop D pins may point forward), so assert the builder rejects a
     forward combinational fanin. *)
  Alcotest.check_raises "forward-only builder"
    (Invalid_argument "Netlist.gate: fanin id out of range")
    (fun () -> ignore (Netlist.gate nl Kind.And2 [| a; 99 |]))

let test_simulate_full_adder () =
  let nl = full_adder () in
  let sim = Simulate.create nl in
  for m = 0 to 7 do
    let a = m land 1 and b = (m lsr 1) land 1 and c = (m lsr 2) land 1 in
    let po = Simulate.eval_comb sim [| a = 1; b = 1; c = 1 |] in
    let total = a + b + c in
    Alcotest.(check bool) (Printf.sprintf "sum@%d" m) (total land 1 = 1) po.(0);
    Alcotest.(check bool) (Printf.sprintf "cout@%d" m) (total >= 2) po.(1)
  done

let test_simulate_counter () =
  let nl = counter3 () in
  let sim = Simulate.create nl in
  Simulate.reset sim;
  (* count 10 enabled cycles: outputs are the pre-update state *)
  let seen = ref [] in
  for _ = 1 to 10 do
    let po = Simulate.step sim [| true |] in
    let v =
      (if po.(0) then 1 else 0) + (if po.(1) then 2 else 0)
      + if po.(2) then 4 else 0
    in
    seen := v :: !seen
  done;
  Alcotest.(check (list int)) "counts 0..9 mod 8"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 0; 1 ]
    (List.rev !seen);
  (* disabled: holds value *)
  let po = Simulate.step sim [| false |] in
  let po' = Simulate.step sim [| false |] in
  Alcotest.(check (pair bool bool)) "hold" (po.(0), po.(1)) (po'.(0), po'.(1))

let test_map_combinational () =
  let nl = counter3 () in
  (* identity mapping must preserve behaviour *)
  let nl' =
    Netlist.map_combinational nl (fun dst n fi -> Netlist.gate dst n.Netlist.kind fi)
  in
  match Equiv.check ~seed:42 nl nl' with
  | Equiv.Equivalent -> ()
  | Equiv.Mismatch _ -> Alcotest.fail "identity map not equivalent"

let test_equiv_detects_mutation () =
  let good = full_adder () in
  let bad = Netlist.create ~name:"fa_bad" () in
  let a = Netlist.input bad "a" in
  let b = Netlist.input bad "b" in
  let cin = Netlist.input bad "cin" in
  let sum = Netlist.gate bad Kind.Xor3 [| a; b; cin |] in
  let cout = Netlist.gate bad Kind.And3 [| a; b; cin |] in
  (* wrong carry *)
  ignore (Netlist.output bad "sum" sum);
  ignore (Netlist.output bad "cout" cout);
  (match Equiv.check ~seed:7 good bad with
  | Equiv.Equivalent -> Alcotest.fail "mutation not caught"
  | Equiv.Mismatch { output; _ } ->
      Alcotest.(check int) "carry output differs" 1 output);
  match Equiv.check_exhaustive good bad with
  | Equiv.Equivalent -> Alcotest.fail "mutation not caught exhaustively"
  | Equiv.Mismatch _ -> ()

let test_equiv_interface_mismatch () =
  let a = full_adder () and b = counter3 () in
  Alcotest.check_raises "interface"
    (Invalid_argument "Equiv.check: interface mismatch")
    (fun () -> ignore (Equiv.check ~seed:1 a b))

let test_stats () =
  let nl = full_adder () in
  Alcotest.(check (float 1e-9)) "gate count" 8.0 (Stats.gate_count nl);
  Alcotest.(check int) "comb count" 2 (Stats.combinational_count nl);
  let cnt = counter3 () in
  Alcotest.(check int) "flops" 3 (Stats.flop_count cnt);
  Alcotest.(check bool) "flop ratio in (0,1)" true
    (Stats.flop_ratio cnt > 0.0 && Stats.flop_ratio cnt < 1.0);
  let hist = Stats.histogram nl in
  Alcotest.(check int) "xor3 count" 1 (List.assoc "xor3" hist)

(* Random DAG generator for property tests. *)
let random_comb_netlist seed =
  let rng = Random.State.make [| seed |] in
  let nl = Netlist.create ~name:"rand" () in
  let pis = Array.init 4 (fun i -> Netlist.input nl (Printf.sprintf "i%d" i)) in
  let pool = ref (Array.to_list pis) in
  let pick () =
    let l = !pool in
    List.nth l (Random.State.int rng (List.length l))
  in
  for _ = 1 to 20 do
    let k =
      match Random.State.int rng 5 with
      | 0 -> Kind.And2
      | 1 -> Kind.Or2
      | 2 -> Kind.Xor2
      | 3 -> Kind.Nand2
      | _ -> Kind.Inv
    in
    let fis =
      Array.init (Kind.arity k) (fun _ -> pick ())
    in
    pool := Netlist.gate nl k fis :: !pool
  done;
  ignore (Netlist.output nl "o" (pick ()));
  nl

let prop_random_netlists_valid =
  QCheck.Test.make ~name:"random DAGs validate and levelize" ~count:50
    QCheck.small_int (fun seed ->
      let nl = random_comb_netlist seed in
      (match Netlist.validate nl with Ok () -> true | Error _ -> false)
      && Levelize.is_acyclic nl)

let prop_identity_map_equiv =
  QCheck.Test.make ~name:"identity map preserves equivalence" ~count:25
    QCheck.small_int (fun seed ->
      let nl = random_comb_netlist seed in
      let nl' =
        Netlist.map_combinational nl (fun dst n fi ->
            Netlist.gate dst n.Netlist.kind fi)
      in
      Equiv.check_exhaustive nl nl' = Equiv.Equivalent)

(* --- Word engine against a scalar oracle --------------------------------- *)

(* Scalar evaluation of one node: the kind's truth table at the minterm
   its fanin values spell; an [Output] is a buffer. *)
let kind_eval k args =
  match k with
  | Kind.Output -> args.(0)
  | k ->
      let m = ref 0 in
      Array.iteri (fun i b -> if b then m := !m lor (1 lsl i)) args;
      Bfun.eval (Kind.fn k) !m

(* Test-only reference semantics: [kind_eval] over the levelized order, one
   lane and one cycle at a time.  Returns every node's value per cycle. *)
let oracle nl cycles =
  let order = (Levelize.run nl).Levelize.order in
  let state = Array.make (Netlist.size nl) false in
  Array.map
    (fun pi ->
      let values = Array.make (Netlist.size nl) false in
      List.iteri (fun k i -> values.(i) <- pi.(k)) (Netlist.inputs nl);
      Array.iter
        (fun i ->
          let node = Netlist.node nl i in
          match node.Netlist.kind with
          | Kind.Input -> ()
          | Kind.Dff -> values.(i) <- state.(i)
          | k ->
              values.(i) <-
                kind_eval k (Array.map (fun f -> values.(f)) node.Netlist.fanins))
        order;
      List.iter
        (fun q -> state.(q) <- values.((Netlist.node nl q).Netlist.fanins.(0)))
        (Netlist.flops nl);
      values)
    cycles

(* Random sequential netlist: constants, every generic gate, mapped cells of
   arity 1-5 with random tables, and flops whose D closes feedback loops. *)
let random_seq_netlist rng =
  let nl = Netlist.create ~name:"rand_seq" () in
  let npi = 1 + Random.State.int rng 4 in
  let pool =
    ref
      (List.init npi (fun i -> Netlist.input nl (Printf.sprintf "i%d" i))
      @ List.init (Random.State.int rng 4) (fun _ -> Netlist.dff nl))
  in
  let pick () = List.nth !pool (Random.State.int rng (List.length !pool)) in
  let generic =
    [| Kind.Buf; Kind.Inv; Kind.And2; Kind.Or2; Kind.Nand2; Kind.Nor2;
       Kind.Xor2; Kind.Xnor2; Kind.Mux2; Kind.And3; Kind.Or3; Kind.Nand3;
       Kind.Nor3; Kind.Xor3; Kind.Maj3 |]
  in
  for _ = 1 to 10 + Random.State.int rng 30 do
    let k =
      match Random.State.int rng 8 with
      | 0 -> Kind.Const (Random.State.bool rng)
      | 1 | 2 | 3 ->
          let arity = 1 + Random.State.int rng 5 in
          Kind.Mapped
            {
              cell = Printf.sprintf "lut%d" arity;
              fn = Bfun.make ~arity (Random.State.bits rng lor (Random.State.bits rng lsl 30));
            }
      | _ -> generic.(Random.State.int rng (Array.length generic))
    in
    let g = Netlist.gate nl k (Array.init (Kind.arity k) (fun _ -> pick ())) in
    pool := g :: !pool
  done;
  List.iter (fun q -> Netlist.connect nl ~flop:q ~d:(pick ())) (Netlist.flops nl);
  for o = 0 to Random.State.int rng 3 do
    ignore (Netlist.output nl (Printf.sprintf "o%d" o) (pick ()))
  done;
  nl

let prop_words_match_oracle =
  QCheck.Test.make ~name:"word engine matches the scalar oracle on every lane"
    ~count:100 QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = random_seq_netlist rng in
      let npi = List.length (Netlist.inputs nl) in
      let word () =
        Random.State.bits rng
        lor (Random.State.bits rng lsl 30)
        lor (Random.State.bits rng lsl 60)
      in
      let cycles = Array.init 5 (fun _ -> Array.init npi (fun _ -> word ())) in
      let sim = Simulate.create nl in
      let words =
        Array.map
          (fun pi ->
            Simulate.step_words sim pi;
            Array.init (Netlist.size nl) (Simulate.word sim))
          cycles
      in
      let lane0 = Simulate.create nl in
      List.for_all
        (fun l ->
          let bit w = (w lsr l) land 1 = 1 in
          let expect = oracle nl (Array.map (Array.map bit) cycles) in
          Array.for_all2
            (fun ws vs -> Array.for_all2 (fun w v -> bit w = v) ws vs)
            words expect
          && (l <> 0
             || Array.for_all2
                  (fun pi vs ->
                    ignore (Simulate.step lane0 (Array.map bit pi));
                    vs = Array.init (Array.length vs) (Simulate.value lane0))
                  cycles expect))
        (List.init Simulate.lanes Fun.id))

(* A counterexample is only useful if it replays: the scalar lane-0 engine
   driven with [vectors] must show the difference at [cycle] on [output]. *)
let check_replays ~what good bad = function
  | Equiv.Equivalent -> Alcotest.failf "%s: mutation not caught" what
  | Equiv.Mismatch { cycle; output; vectors } ->
      Alcotest.(check int) (what ^ ": one vector per cycle") (cycle + 1)
        (List.length vectors);
      let pos = Simulate.run good vectors and pob = Simulate.run bad vectors in
      Alcotest.(check bool) (what ^ ": outputs differ at the cycle") true
        ((List.nth pos cycle).(output) <> (List.nth pob cycle).(output))

let test_mismatch_replays () =
  let good = full_adder () in
  let bad = Netlist.create ~name:"fa_bad" () in
  let a = Netlist.input bad "a" in
  let b = Netlist.input bad "b" in
  let cin = Netlist.input bad "cin" in
  ignore (Netlist.output bad "sum" (Netlist.gate bad Kind.Xor3 [| a; b; cin |]));
  ignore (Netlist.output bad "cout" (Netlist.gate bad Kind.And3 [| a; b; cin |]));
  check_replays ~what:"random" good bad (Equiv.check ~seed:7 good bad);
  check_replays ~what:"exhaustive" good bad (Equiv.check_exhaustive good bad);
  let alu = List.assoc "ALU" (Vpga_flow.Experiments.designs Vpga_flow.Experiments.Test) in
  let mapped = Vpga_mapper.Techmap.map Vpga_plb.Arch.granular_plb alu in
  let fault = Inject.netlist_flip ~seed:3 mapped in
  check_replays ~what:fault.Inject.what alu mapped
    (Equiv.check ~vectors:24 ~sequence_length:6 ~seed:2024 alu mapped)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "vpga_netlist"
    [
      ( "builder",
        [
          Alcotest.test_case "full adder" `Quick test_builder;
          Alcotest.test_case "unconnected flop" `Quick test_validate_unconnected_flop;
          Alcotest.test_case "fanout" `Quick test_fanout;
          Alcotest.test_case "forward-only" `Quick test_comb_cycle_detected;
        ] );
      ( "levelize",
        [ Alcotest.test_case "levels and cycles" `Quick test_levelize ] );
      ( "simulate",
        [
          Alcotest.test_case "full adder truth table" `Quick test_simulate_full_adder;
          Alcotest.test_case "counter" `Quick test_simulate_counter;
        ] );
      ( "equiv",
        [
          Alcotest.test_case "identity map" `Quick test_map_combinational;
          Alcotest.test_case "detects mutation" `Quick test_equiv_detects_mutation;
          Alcotest.test_case "interface mismatch" `Quick test_equiv_interface_mismatch;
          Alcotest.test_case "counterexamples replay" `Quick test_mismatch_replays;
        ] );
      ("stats", [ Alcotest.test_case "counts" `Quick test_stats ]);
      ( "properties",
        [
          qt prop_random_netlists_valid;
          qt prop_identity_map_equiv;
          qt prop_words_match_oracle;
        ] );
    ]
