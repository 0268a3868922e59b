(* The reference kernel: fixed work, timed between the workload's calls,
   that tells how fast the host runs at that moment.

   On a shared VM the same work runs about twice as fast in some phases as
   in others, and a phase lasts minutes: longer than a run, so the fastest
   repeat of a call cannot see past it.  The slowdown is per instruction,
   on both vCPUs alike and in CPU time as much as in wall time, so neither
   pinning nor CPU time removes it.  The kernel is the benchmark's own
   frozen code, independent of the library: a change to the library moves
   the workload's time but not the kernel's, so the ratio of the two
   follows the code and not the host.  It is an integer dependency chain
   and lookups in a boxed tree and a hash table that fit in L2; it
   allocates nothing, so it leaves the workload's heap as it found it.  (A
   pointer chase over a working set larger than L2 was tried too; it
   varied two to four times as much from sample to sample.)  Inside a
   phase the kernel's small drifts and the workload's do not correlate,
   so it corrects phases, not the noise within one. *)

let now = Vpga_obs.Clock.now_ns
let keys = 4096

module Im = Map.Make (Int)

let tables =
  lazy
    (let h = Hashtbl.create keys in
     let m = ref Im.empty in
     for k = 0 to keys - 1 do
       Hashtbl.replace h k (k * 7919);
       m := Im.add k (k * 104729) !m
     done;
     (h, !m))

(* A linear congruential stream: integer issue and dependency chains. *)
let arith steps =
  let x = ref 1 in
  for i = 1 to steps do
    x := (!x * 1103515245 + i) land 0x3fffffff
  done;
  !x

let lookups n =
  let h, m = Lazy.force tables in
  let s = ref 0 in
  for i = 1 to n do
    let k = i * 2654435761 land (keys - 1) in
    s := !s + Hashtbl.find h k + Im.find (k lxor !s land (keys - 1)) m
  done;
  !s

(* The kernel's median milliseconds on a 2-vCPU KVM guest on a Sapphire
   Rapids Xeon (family 6, model 143) in its usual phase, where the
   Test-scale formal sweep takes about 11 s: the reference pace every time
   is scaled to. *)
let nominal_ms = 7.0

(* Run the kernel once; milliseconds. *)
let sample () =
  ignore (Lazy.force tables);
  let t0 = now () in
  ignore (Sys.opaque_identity (arith 1_000_000));
  ignore (Sys.opaque_identity (lookups 20_000));
  Vpga_obs.Clock.ns_to_s (Int64.sub (now ()) t0) *. 1000.0
