(* Recovery-event recorder.  One [t] per flow run (tasks never share
   one, so no locking); the flow appends an event whenever a policy
   retries a stage, escalates a knob, or degrades a verification level.
   The sweep aggregates per-task summaries into the recovery counters
   reported by [bin/vpga sweep] and BENCH_sweep.json.  Recording also
   marks the ambient trace, so the timeline sees each event when it
   happens: one stream, no replay. *)

module Trace = Vpga_obs.Trace

type event =
  | Retry of { stage : string; attempt : int; reason : string }
  | Escalation of { stage : string; what : string }
  | Degraded of { stage : string; what : string }

type t = { mutable rev : event list (* newest first *) }

let create () = { rev = [] }

let record t e =
  t.rev <- e :: t.rev;
  let trace = Trace.ambient () in
  if Trace.enabled trace then begin
    let name, stage, detail =
      match e with
      | Retry { stage; attempt; reason } ->
          ("resil:retry", stage, Printf.sprintf "attempt %d: %s" attempt reason)
      | Escalation { stage; what } -> ("resil:escalate", stage, what)
      | Degraded { stage; what } -> ("resil:degrade", stage, what)
    in
    Trace.instant
      ~attrs:[ ("stage", Vpga_obs.Span.Str stage); ("detail", Str detail) ]
      trace name
  end

let events t = List.rev t.rev

let event_to_string = function
  | Retry { stage; attempt; reason } ->
      Printf.sprintf "retry %s (attempt %d): %s" stage attempt reason
  | Escalation { stage; what } -> Printf.sprintf "escalate %s: %s" stage what
  | Degraded { stage; what } -> Printf.sprintf "degrade %s: %s" stage what

let strings t = List.map event_to_string (events t)

type summary = { retries : int; escalations : int; degraded : int }

let zero = { retries = 0; escalations = 0; degraded = 0 }

let add a b =
  {
    retries = a.retries + b.retries;
    escalations = a.escalations + b.escalations;
    degraded = a.degraded + b.degraded;
  }

let summary t =
  List.fold_left
    (fun acc e ->
      match e with
      | Retry _ -> { acc with retries = acc.retries + 1 }
      | Escalation _ -> { acc with escalations = acc.escalations + 1 }
      | Degraded _ -> { acc with degraded = acc.degraded + 1 })
    zero (events t)
