(** Recovery-event recorder: the attempt log of one flow run.

    The flow appends an event whenever a policy retries a stage,
    escalates a knob, or degrades a verification level.  One recorder
    per task — tasks never share one, so no synchronization. *)

type event =
  | Retry of { stage : string; attempt : int; reason : string }
      (** attempt [attempt] is about to run because the previous one
          failed for [reason] *)
  | Escalation of { stage : string; what : string }
      (** a knob was raised/relaxed for the next attempt *)
  | Degraded of { stage : string; what : string }
      (** the stage gave up on its strong guarantee but the flow
          continues (e.g. Formal -> Fast, or detailed routing skipped) *)

type t

val create : unit -> t
val record : t -> event -> unit
(** Appends the event and marks the ambient trace
    ({!Vpga_obs.Trace.ambient}) with a [resil:retry] / [resil:escalate] /
    [resil:degrade] instant carrying [stage] and [detail] attributes, so
    recovery events sit on the span timeline at the moment they happen.
    No trace installed: no instant. *)

val events : t -> event list
(** Oldest first. *)

val event_to_string : event -> string
val strings : t -> string list

type summary = { retries : int; escalations : int; degraded : int }

val zero : summary
val add : summary -> summary -> summary
val summary : t -> summary
