(** Cycle-accurate two-valued simulation, {!lanes} streams at a time.

    {!create} levelizes and compiles the netlist once: topological order,
    fanin ids, one truth table per combinational node.  A node's value is a
    {e word}, an [int] whose bit [l] is its value in lane [l]; each table is
    applied to its fanin words as a mux tree.  The scalar functions
    ({!step}, {!eval_comb}, {!value}) are the lane-0 view: they evaluate
    bit 0 alone, by minterm indexing.  Nothing is allocated per node or
    cycle beyond the scalar functions' results. *)

type t

val lanes : int
(** Lanes per word: the bits of an OCaml [int] (63 on 64-bit hosts). *)

val create : Netlist.t -> t
(** Compiles a simulator, flops at 0 in every lane.  Later
    {!Netlist.connect} rewiring is not seen.
    @raise Levelize.Combinational_cycle on an ill-formed netlist. *)

val reset : t -> unit

val step_words : t -> int array -> unit
(** One clock cycle on every lane; [pi.(k)] is the word of the [k]-th
    primary input (in {!Netlist.inputs} order).  Flops latch after every D
    word is read; node words keep the values seen during the cycle.
    @raise Invalid_argument on a wrong number of input words. *)

val step_lane0 : t -> int array -> unit
(** {!step_words} on bit 0 only; every node word is left 0 or 1. *)

val word : t -> int -> int
(** Most recently computed word of a node. *)

val step : t -> bool array -> bool array
(** [step sim pi] applies one clock cycle: evaluates combinational logic with
    primary-input values [pi] (in {!Netlist.inputs} order), samples flop D
    pins, then returns the primary-output values {e before} the flop update
    (i.e. the outputs visible during the cycle).  Flops update afterwards. *)

val eval_comb : t -> bool array -> bool array
(** Combinational evaluation only: no state update. *)

val value : t -> int -> bool
(** Most recently computed value of a node (lane 0). *)

val run : Netlist.t -> bool array list -> bool array list
(** Convenience: reset, then [step] through a list of input vectors. *)
