(** Content-addressed cache keys: a stage name plus the canonical digest
    of everything that determines the stage's output.

    Key discipline: one stage name = one value type (entries are revived
    with [Marshal], so mixing types under a stage would be unsound), and
    a stage's digest must cover {e every} input that can change its
    output — netlist structure, architecture, seeds, policy knobs,
    verify level, defect fingerprint.  The flow-level option record and
    its exhaustive digesting live in [Vpga_flow.Stagekey]; this module
    provides the generic machinery plus digests for the types every
    stage shares.

    Keys carry no version tag: the store ({!Cache}) lives in memory for
    one process, so a key and the entry it finds always come from the
    same build. *)

type t

val make : stage:string -> (Enc.t -> unit) -> t
(** [make ~stage feed] digests [stage] and whatever [feed] writes. *)

val stage : t -> string
val hex : t -> string
(** 32 hex chars (MD5). *)

val id : t -> string
(** ["stage/hex"], the store's entry name. *)

(** {2 Shared structural digests}

    Each is exhaustive over the type it encodes (compile-breaking
    pattern match or record destructure), so extending a type forces a
    digest decision. *)

val kind : Enc.t -> Vpga_netlist.Kind.t -> unit

val netlist : Enc.t -> Vpga_netlist.Netlist.t -> unit
(** Structural digest: design name, every node's kind/fanins/name in id
    order, and the input/output/flop lists. *)

val netlist_hex : Vpga_netlist.Netlist.t -> string

val cell : Enc.t -> Vpga_cells.Cell.t -> unit

val arch : Enc.t -> Vpga_plb.Arch.t -> unit
(** Name, capacity vector, component library (every cell's area/timing
    characterization), tile/comb areas, pins and via sites. *)

val arch_hex : Vpga_plb.Arch.t -> string
