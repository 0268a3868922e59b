module Bfun = Vpga_logic.Bfun

type t =
  | Input
  | Output
  | Const of bool
  | Buf
  | Inv
  | And2
  | Or2
  | Nand2
  | Nor2
  | Xor2
  | Xnor2
  | Mux2
  | And3
  | Or3
  | Nand3
  | Nor3
  | Xor3
  | Maj3
  | Dff
  | Mapped of { cell : string; fn : Bfun.t }

let arity = function
  | Input | Const _ -> 0
  | Output | Buf | Inv | Dff -> 1
  | And2 | Or2 | Nand2 | Nor2 | Xor2 | Xnor2 -> 2
  | Mux2 | And3 | Or3 | Nand3 | Nor3 | Xor3 | Maj3 -> 3
  | Mapped { fn; _ } -> Bfun.arity fn

let is_sequential = function
  | Dff -> true
  | Input | Output | Const _ | Buf | Inv | And2 | Or2 | Nand2 | Nor2 | Xor2
  | Xnor2 | Mux2 | And3 | Or3 | Nand3 | Nor3 | Xor3 | Maj3 | Mapped _ ->
      false

let fn k =
  let v2 i = Bfun.var ~arity:2 i in
  let v3 i = Bfun.var ~arity:3 i in
  let open Bfun in
  match k with
  | Input -> invalid_arg "Kind.fn: Input has no function"
  | Output -> invalid_arg "Kind.fn: Output has no function"
  | Dff -> invalid_arg "Kind.fn: Dff is sequential"
  | Const b -> const ~arity:0 b
  | Buf -> var ~arity:1 0
  | Inv -> lnot (var ~arity:1 0)
  | And2 -> v2 0 &&& v2 1
  | Or2 -> v2 0 ||| v2 1
  | Nand2 -> lnot (v2 0 &&& v2 1)
  | Nor2 -> lnot (v2 0 ||| v2 1)
  | Xor2 -> v2 0 ^^^ v2 1
  | Xnor2 -> lnot (v2 0 ^^^ v2 1)
  | Mux2 -> mux ~sel:(v3 0) (v3 1) (v3 2)
  | And3 -> v3 0 &&& v3 1 &&& v3 2
  | Or3 -> v3 0 ||| v3 1 ||| v3 2
  | Nand3 -> lnot (v3 0 &&& v3 1 &&& v3 2)
  | Nor3 -> lnot (v3 0 ||| v3 1 ||| v3 2)
  | Xor3 -> v3 0 ^^^ v3 1 ^^^ v3 2
  | Maj3 -> (v3 0 &&& v3 1) ||| (v3 1 &&& v3 2) ||| (v3 0 &&& v3 2)
  | Mapped { fn; _ } -> fn

let name = function
  | Input -> "input"
  | Output -> "output"
  | Const true -> "const1"
  | Const false -> "const0"
  | Buf -> "buf"
  | Inv -> "inv"
  | And2 -> "and2"
  | Or2 -> "or2"
  | Nand2 -> "nand2"
  | Nor2 -> "nor2"
  | Xor2 -> "xor2"
  | Xnor2 -> "xnor2"
  | Mux2 -> "mux2"
  | And3 -> "and3"
  | Or3 -> "or3"
  | Nand3 -> "nand3"
  | Nor3 -> "nor3"
  | Xor3 -> "xor3"
  | Maj3 -> "maj3"
  | Dff -> "dff"
  | Mapped { cell; _ } -> cell

let pp ppf k =
  match k with
  | Mapped { cell; fn } -> Format.fprintf ppf "%s[%a]" cell Bfun.pp fn
  | _ -> Format.pp_print_string ppf (name k)
