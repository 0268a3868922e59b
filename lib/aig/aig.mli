(** And-Inverter Graph with structural hashing and constant folding — the
    logic-optimization core of the Design-Compiler substitute.

    Literals are [2 * node + complement]; node 0 is constant false, so
    {!const0} is literal 0 and {!const1} literal 1.  Node ids are dense and
    topologically ordered by construction. *)

module Netlist := Vpga_netlist.Netlist

type t
type lit = int

val create : unit -> t

val const0 : lit
val const1 : lit

val add_pi : t -> lit
(** Add a primary input node; returns its positive literal. *)

val not_ : lit -> lit
val and_ : t -> lit -> lit -> lit
(** Structurally hashed, constant-folded AND. *)

val or_ : t -> lit -> lit -> lit
val xor_ : t -> lit -> lit -> lit
val mux_ : t -> sel:lit -> lit -> lit -> lit

val add_fn : t -> Vpga_logic.Bfun.t -> lit array -> lit
(** Shannon-decompose an arbitrary function of the given argument literals
    into AND nodes. *)

val size : t -> int
(** Total node count, including constant and PIs. *)

val and_count : t -> int
val num_pis : t -> int

val node_of : lit -> int
val is_complement : lit -> bool
val is_pi : t -> int -> bool
val is_const : int -> bool
val fanins : t -> int -> lit * lit
(** Fanin literals of an AND node. *)

val pi_index : t -> int -> int
(** Index (0-based, creation order) of a PI node. *)

(** Binding between a sequential netlist and its combinational AIG: flop Q
    pins become pseudo-PIs, flop D pins pseudo-POs. *)
type root = Po of int (** output node id *) | Flop_d of int (** flop node id *)

type bound = {
  aig : t;
  source : Netlist.t;
  pi_sources : int array;  (** netlist node id per AIG PI (inputs then flops) *)
  roots : (root * lit) list;
  node_lits : int array;
      (** per netlist node, the AIG literal computing it — the witness the
          redundancy analysis groups by: two nodes with the same literal
          strash to the same function.  [-1] for [Output] nodes (they
          carry no logic; see [roots]). *)
}

val add_netlist : t -> Netlist.t -> lit array -> lit array
(** [add_netlist t nl in_lits] adds [nl]'s combinational logic to [t], with
    [in_lits] driving its primary inputs and then its flop Q pins; returns
    the literal of every node ([-1] for [Output] nodes). *)

val of_netlist : Netlist.t -> bound
(** Build the AIG of the combinational portion; strash and constant folding
    run during construction. *)
