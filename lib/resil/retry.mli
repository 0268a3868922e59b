(** Derived seeds for retried randomized stages.  Each recovery ladder
    (routing, annealing, legalization, SAT budgets) drives its own loop
    in [lib/flow]; a ladder that reruns a randomized stage (annealing)
    takes its per-attempt seed from {!reseed}. *)

val reseed : seed:int -> attempt:int -> int
(** The derived seed for attempt [attempt] of a randomized stage.
    [reseed ~seed ~attempt:0] is [seed] itself (attempt 0 reproduces the
    un-retried flow bit for bit); later attempts step deterministically,
    so retried flows remain independent of worker count and completion
    order. *)
