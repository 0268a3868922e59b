(* The netlist compiled once into flat arrays.  Node [i]'s value is the
   word [values.(i)], bit [l] its value in lane [l].  A combinational node
   (an [Output] is a buffer) is the truth table [tt.(i)] of arity
   [arity.(i)] over the fanins [fan.(off.(i)) ..]. *)
type t = {
  order : int array; (* combinational nodes, topological *)
  tt : int array;
  arity : int array;
  off : int array;
  fan : int array;
  inputs : int array;
  outputs : int array;
  flops : int array;
  flop_d : int array;
  values : int array;
  state : int array; (* per flop *)
}

let lanes = Sys.int_size

let create nl =
  let nodes = Netlist.nodes nl in
  let fn (node : Netlist.node) =
    match node.kind with
    | Kind.Input | Kind.Dff -> None
    | Kind.Output -> Some (Vpga_logic.Bfun.var ~arity:1 0)
    | k -> Some (Kind.fn k)
  in
  let fns = Array.map fn nodes in
  let field get = Array.map (Option.fold ~none:0 ~some:get) fns in
  let arity = field Vpga_logic.Bfun.arity in
  let off = Array.make (Array.length nodes + 1) 0 in
  Array.iteri (fun i a -> off.(i + 1) <- off.(i) + a) arity;
  let flops = Array.of_list (Netlist.flops nl) in
  {
    order =
      Array.of_seq
        (Seq.filter
           (fun i -> Option.is_some fns.(i))
           (Array.to_seq (Levelize.run nl).Levelize.order));
    tt = field Vpga_logic.Bfun.table;
    arity;
    off;
    fan =
      Array.concat
        (List.mapi
           (fun i (n : Netlist.node) -> Array.sub n.fanins 0 arity.(i))
           (Array.to_list nodes));
    inputs = Array.of_list (Netlist.inputs nl);
    outputs = Array.of_list (Netlist.outputs nl);
    flops;
    flop_d = Array.map (fun q -> nodes.(q).Netlist.fanins.(0)) flops;
    values = Array.make (Array.length nodes) 0;
    state = Array.make (Array.length flops) 0;
  }

let reset sim = Array.fill sim.state 0 (Array.length sim.state) 0

(* Table [tt] over the first [k] fanins as a word-level mux tree: split on
   the highest input, stopping at constant sub-tables. *)
let rec mux_tree values fan base tt k =
  if tt = 0 then 0
  else if tt = (1 lsl (1 lsl k)) - 1 then -1
  else
    let half = 1 lsl (k - 1) in
    let lo = mux_tree values fan base (tt land ((1 lsl half) - 1)) (k - 1) in
    let hi = mux_tree values fan base (tt lsr half) (k - 1) in
    lo lxor ((lo lxor hi) land values.(fan.(base + k - 1)))

(* Lane 0 only: index the table with the fanins' bit 0. *)
let minterm values fan base tt k =
  let m = ref 0 in
  for j = k - 1 downto 0 do
    m := (!m lsl 1) lor (values.(fan.(base + j)) land 1)
  done;
  (tt lsr !m) land 1

let eval sim ~all_lanes pi =
  if Array.length pi <> Array.length sim.inputs then
    invalid_arg "Simulate: wrong number of primary inputs";
  let { order; tt; arity; off; fan; values; _ } = sim in
  Array.iteri (fun k i -> values.(i) <- pi.(k)) sim.inputs;
  Array.iteri (fun j q -> values.(q) <- sim.state.(j)) sim.flops;
  if all_lanes then
    for k = 0 to Array.length order - 1 do
      let i = order.(k) in
      values.(i) <- mux_tree values fan off.(i) tt.(i) arity.(i)
    done
  else
    for k = 0 to Array.length order - 1 do
      let i = order.(k) in
      values.(i) <- minterm values fan off.(i) tt.(i) arity.(i)
    done

(* [values] holds every D word before any flop's [state] moves, and keeps
   the cycle's Q words afterwards. *)
let latch sim = Array.iteri (fun j d -> sim.state.(j) <- sim.values.(d)) sim.flop_d
let step_words sim pi = eval sim ~all_lanes:true pi; latch sim
let step_lane0 sim pi = eval sim ~all_lanes:false pi; latch sim
let word sim i = sim.values.(i)
let value sim i = sim.values.(i) land 1 = 1
let lane0 f sim pi =
  f sim (Array.map Bool.to_int pi);
  Array.map (value sim) sim.outputs
let eval_comb = lane0 (eval ~all_lanes:false)
let step = lane0 step_lane0
let run nl vectors = List.map (step (create nl)) vectors
