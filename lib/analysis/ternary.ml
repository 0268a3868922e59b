module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind
module Dataflow = Vpga_dataflow.Dataflow

type v = Bot | C0 | C1 | Def | Und

let equal (a : v) (b : v) = a = b

let join a b =
  if a = b then a
  else
    match (a, b) with
    | Bot, x | x, Bot -> x
    | Und, _ | _, Und -> Und
    | Def, _ | _, Def -> Def
    | _ -> Def (* C0 join C1 *)

let of_bool b = if b then C1 else C0

let const = function C0 -> Some false | C1 -> Some true | _ -> None

let to_string = function
  | Bot -> "bot"
  | C0 -> "0"
  | C1 -> "1"
  | Def -> "def"
  | Und -> "X"

(* Index the kind's truth table with every two-valued completion of the
   unknown arguments (at most 32, as arity <= 5): a constant iff all
   completions agree. *)
let eval kind (vs : v array) =
  if Array.exists (fun x -> x = Bot) vs then Bot
  else begin
    let f = Kind.fn kind in
    let known = ref 0 and unknown = ref [] in
    Array.iteri
      (fun i x ->
        match x with
        | C1 -> known := !known lor (1 lsl i)
        | C0 -> ()
        | _ -> unknown := i :: !unknown)
      vs;
    let rec completions m = function
      | [] -> [ Vpga_logic.Bfun.eval f m ]
      | i :: rest -> completions m rest @ completions (m lor (1 lsl i)) rest
    in
    match List.sort_uniq Bool.compare (completions !known !unknown) with
    | [ b ] -> of_bool b (* every completion agrees: masked *)
    | _ -> if List.exists (fun i -> vs.(i) = Und) !unknown then Und else Def
  end

let in_range nl f = f >= 0 && f < Netlist.size nl

let values ~flop_init nl =
  let transfer nl values (node : Netlist.node) =
    match node.Netlist.kind with
    | Kind.Input -> Def
    | Kind.Const b -> of_bool b
    | Kind.Output ->
        let f = node.Netlist.fanins.(0) in
        if in_range nl f then values.(f) else Und
    | Kind.Dff ->
        let d =
          if Array.length node.Netlist.fanins = 1 then node.Netlist.fanins.(0)
          else -1
        in
        join flop_init (if in_range nl d then values.(d) else Und)
    | k ->
        if Array.length node.Netlist.fanins <> Kind.arity k then Und
        else
          eval k
            (Array.map
               (fun f -> if in_range nl f then values.(f) else Und)
               node.Netlist.fanins)
  in
  Dataflow.fixpoint nl
    {
      Dataflow.direction = Dataflow.Forward;
      init = (fun _ -> Bot);
      transfer;
      equal;
    }
