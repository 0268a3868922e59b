(** Randomized equivalence checking between two netlists with identical
    primary-input/output interfaces.

    Used as the flow's sanity net: every transformation (mapping, compaction,
    buffering) must leave the design observationally equivalent. *)

type verdict =
  | Equivalent
  | Mismatch of { cycle : int; output : int; vectors : bool array list }

val check :
  ?vectors:int -> ?sequence_length:int -> seed:int ->
  Netlist.t -> Netlist.t -> verdict
(** [check ~seed a b] drives both designs with [vectors] random input
    sequences of [sequence_length] cycles from reset and compares all primary
    outputs each cycle.  Sequences run {!Simulate.lanes} (63) at a time, one
    per lane, so [vectors] is rounded up to whole words: the defaults (64
    sequences of 8 cycles) check 126 sequences, and the flow's
    [~vectors:24 ~sequence_length:6] checks 63.  Each run emits the
    sequence count to the ambient trace counter [equiv.sequences].

    A [Mismatch] is the lowest failing lane at the first cycle where any
    lane fails: [vectors] are that lane's inputs for cycles [0 .. cycle], and
    [output] the first differing output, so replaying [vectors] through
    {!Simulate.step} reproduces the difference.
    @raise Invalid_argument if interfaces differ. *)

val check_exhaustive : Netlist.t -> Netlist.t -> verdict
(** Exhaustive single-cycle check for designs with at most 16 primary
    inputs (flops held at reset), 63 minterms per word.  A [Mismatch] is the
    lowest failing minterm, with [cycle = 0]. *)
