type verdict =
  | Equivalent
  | Mismatch of { cycle : int; output : int; vectors : bool array list }

let setup name a b =
  if List.length (Netlist.inputs a) <> List.length (Netlist.inputs b)
     || List.length (Netlist.outputs a) <> List.length (Netlist.outputs b)
  then invalid_arg (name ^ ": interface mismatch");
  let outs nl = Array.of_list (Netlist.outputs nl) in
  (Simulate.create a, outs a, Simulate.create b, outs b)

(* The lowest lane where the output words of the two simulators differ,
   with the first output that differs in it. *)
let first_diff (sima, oa, simb, ob) =
  let diff k = Simulate.word sima oa.(k) lxor Simulate.word simb ob.(k) in
  let any = ref 0 in
  for k = 0 to Array.length oa - 1 do any := !any lor diff k done;
  match !any with
  | 0 -> None
  | any ->
      let rec lowest l = if (any lsr l) land 1 = 1 then l else lowest (l + 1) in
      let lane = lowest 0 in
      let rec first k = if (diff k lsr lane) land 1 = 1 then k else first (k + 1) in
      Some (lane, first 0)

let lane_bits words lane = Array.map (fun w -> (w lsr lane) land 1 = 1) words

let check ?(vectors = 64) ?(sequence_length = 8) ~seed a b =
  let ((sima, _, simb, _) as sims) = setup "Equiv.check" a b in
  let rng = Random.State.make [| seed |] in
  let words = max 0 ((vectors + Simulate.lanes - 1) / Simulate.lanes) in
  Vpga_obs.Trace.emit "equiv.sequences" (float_of_int (words * Simulate.lanes));
  let seq =
    Array.make_matrix sequence_length (List.length (Netlist.inputs a)) 0
  in
  let rec go w cycle =
    if w >= words then Equivalent
    else if cycle >= sequence_length then go (w + 1) 0
    else begin
      if cycle = 0 then (Simulate.reset sima; Simulate.reset simb);
      let pi = seq.(cycle) in
      for k = 0 to Array.length pi - 1 do
        pi.(k) <-
          Random.State.bits rng
          lor (Random.State.bits rng lsl 30)
          lor (Random.State.bits rng lsl 60)
      done;
      Simulate.step_words sima pi;
      Simulate.step_words simb pi;
      match first_diff sims with
      | None -> go w (cycle + 1)
      | Some (lane, output) ->
          let lane_in c = lane_bits seq.(c) lane in
          Mismatch { cycle; output; vectors = List.init (cycle + 1) lane_in }
    end
  in
  go 0 0

let check_exhaustive a b =
  let ((sima, _, simb, _) as sims) = setup "Equiv.check_exhaustive" a b in
  let npi = List.length (Netlist.inputs a) in
  if npi > 16 then invalid_arg "Equiv.check_exhaustive: too many inputs";
  (* Minterm [base + l] in lane [l]; lanes past the last minterm repeat
     minterm 0, already checked in the first word. *)
  let rec go base =
    if base >= 1 lsl npi then Equivalent
    else begin
      let pi =
        Array.init npi (fun i ->
            let w = ref 0 in
            for l = 0 to min Simulate.lanes ((1 lsl npi) - base) - 1 do
              w := !w lor ((((base + l) lsr i) land 1) lsl l)
            done;
            !w)
      in
      List.iter
        (fun sim -> Simulate.reset sim; Simulate.step_words sim pi)
        [ sima; simb ];
      match first_diff sims with
      | None -> go (base + Simulate.lanes)
      | Some (lane, output) ->
          Mismatch { cycle = 0; output; vectors = [ lane_bits pi lane ] }
    end
  in
  go 0
