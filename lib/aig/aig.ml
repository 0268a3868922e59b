module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind
module Bfun = Vpga_logic.Bfun

type lit = int

type t = {
  mutable fanin0 : int array; (* per node; PIs and const use -1 *)
  mutable fanin1 : int array;
  mutable pi_idx : int array; (* PI index or -1 *)
  mutable n : int;
  mutable npis : int;
  strash : (int * int, int) Hashtbl.t;
}

let const0 : lit = 0
let const1 : lit = 1

let create () =
  {
    fanin0 = Array.make 256 (-1);
    fanin1 = Array.make 256 (-1);
    pi_idx = Array.make 256 (-1);
    n = 1 (* node 0 = const false *);
    npis = 0;
    strash = Hashtbl.create 1024;
  }

let grow t =
  if t.n >= Array.length t.fanin0 then begin
    let len = 2 * Array.length t.fanin0 in
    let f0 = Array.make len (-1) and f1 = Array.make len (-1)
    and pi = Array.make len (-1) in
    Array.blit t.fanin0 0 f0 0 t.n;
    Array.blit t.fanin1 0 f1 0 t.n;
    Array.blit t.pi_idx 0 pi 0 t.n;
    t.fanin0 <- f0;
    t.fanin1 <- f1;
    t.pi_idx <- pi
  end

let add_pi t =
  grow t;
  let id = t.n in
  t.pi_idx.(id) <- t.npis;
  t.npis <- t.npis + 1;
  t.n <- t.n + 1;
  2 * id

let not_ l = l lxor 1
let node_of l = l lsr 1
let is_complement l = l land 1 = 1
let is_pi t id = t.pi_idx.(id) >= 0
let is_const id = id = 0
let pi_index t id = t.pi_idx.(id)

let and_ t a b =
  let a, b = if a < b then (a, b) else (b, a) in
  if a = const0 then const0
  else if a = const1 then b
  else if a = b then a
  else if a = not_ b then const0
  else
    match Hashtbl.find_opt t.strash (a, b) with
    | Some id -> 2 * id
    | None ->
        grow t;
        let id = t.n in
        t.fanin0.(id) <- a;
        t.fanin1.(id) <- b;
        t.n <- t.n + 1;
        Hashtbl.add t.strash (a, b) id;
        2 * id

let or_ t a b = not_ (and_ t (not_ a) (not_ b))
let xor_ t a b = or_ t (and_ t a (not_ b)) (and_ t (not_ a) b)
let mux_ t ~sel d0 d1 = or_ t (and_ t sel d1) (and_ t (not_ sel) d0)

let rec add_fn t fn args =
  if Array.length args <> Bfun.arity fn then
    invalid_arg "Aig.add_fn: argument count mismatch";
  if Bfun.is_const fn then (if Bfun.eval fn 0 then const1 else const0)
  else
    match Bfun.arity fn with
    | 1 -> if Bfun.table fn = 0b10 then args.(0) else not_ args.(0)
    | _ ->
        (* Split on the last variable that matters. *)
        let v = List.fold_left max 0 (Bfun.support fn) in
        let lo, hi = Bfun.cofactor_pair fn ~var:v in
        let sub = Array.init (Array.length args - 1) (fun i ->
            if i < v then args.(i) else args.(i + 1)) in
        let l = add_fn t lo sub and h = add_fn t hi sub in
        mux_ t ~sel:args.(v) l h

let size t = t.n
let num_pis t = t.npis
let and_count t = t.n - 1 - t.npis

let fanins t id =
  if t.fanin0.(id) < 0 then invalid_arg "Aig.fanins: not an AND node";
  (t.fanin0.(id), t.fanin1.(id))

type root = Po of int | Flop_d of int

type bound = {
  aig : t;
  source : Netlist.t;
  pi_sources : int array;
  roots : (root * lit) list;
  node_lits : int array;
}

(* Replay [nl]'s combinational gates (in id order: topological for comb
   edges) onto [t]; [in_lits] drive its PIs, then its flop Qs.  The
   literal per node, [-1] for [Output]s. *)
let add_netlist t nl in_lits =
  let lit_of = Array.make (Netlist.size nl) (-1) in
  List.iteri (fun k i -> lit_of.(i) <- in_lits.(k))
    (Netlist.inputs nl @ Netlist.flops nl);
  Array.iteri
    (fun i (node : Netlist.node) ->
      match node.kind with
      | Kind.Input | Kind.Dff | Kind.Output -> ()
      | Kind.Const b -> lit_of.(i) <- (if b then const1 else const0)
      | k ->
          let args = Array.map (fun f -> lit_of.(f)) node.fanins in
          if Array.exists (fun l -> l < 0) args then
            invalid_arg "Aig.add_netlist: fanin not yet converted";
          lit_of.(i) <- add_fn t (Kind.fn k) args)
    (Netlist.nodes nl);
  lit_of

let of_netlist nl =
  let t = create () in
  let sources = Netlist.inputs nl @ Netlist.flops nl in
  let lit_of = add_netlist t nl (Array.of_list (List.map (fun _ -> add_pi t) sources)) in
  let d i = lit_of.((Netlist.node nl i).Netlist.fanins.(0)) in
  {
    aig = t;
    source = nl;
    pi_sources = Array.of_list sources;
    roots =
      List.map (fun o -> (Po o, d o)) (Netlist.outputs nl)
      @ List.map (fun f -> (Flop_d f, d f)) (Netlist.flops nl);
    node_lits = lit_of;
  }
