(* Derived reseeds for retried randomized stages.  Attempt [0] must
   reproduce the un-retried flow exactly, so the derived seed is the base
   seed itself; later attempts step by a prime far from the small
   per-stage seed offsets the flow already uses. *)
let reseed ~seed ~attempt = (seed + (7919 * attempt)) land 0x3FFFFFFF
