(* Tests for the content-addressed stage cache: the canonical encoder's
   fixed byte layout and non-aliasing, structural digest stability and
   sensitivity, memoization identity and statistics through the shared
   [Stagekey.memo] path, put-time snapshot isolation, the flow-level
   hit == recompute property over designs x architectures x verify
   levels, recovery-event replay on a warm flow, a randomized
   equivalence spot-check of a cached front-end artifact, and the stress
   sweep's compute-each-front-end-once invariant. *)

module Enc = Vpga_cache.Enc
module Key = Vpga_cache.Key
module Cache = Vpga_cache.Cache
module Stagekey = Vpga_flow.Stagekey
module Flow = Vpga_flow.Flow
module Minchan = Vpga_flow.Minchan
module Experiments = Vpga_flow.Experiments
module Netlist = Vpga_netlist.Netlist
module Equiv = Vpga_netlist.Equiv
module Techmap = Vpga_mapper.Techmap
module Arch = Vpga_plb.Arch
module Policy = Vpga_resil.Policy
module Log = Vpga_resil.Log
module Trace = Vpga_obs.Trace
module Span = Vpga_obs.Span
open Vpga_designs

let alu2 = lazy (Alu.build ~width:2 ())
let alu4 = lazy (Alu.build ~width:4 ())

let digest_of feeds =
  let b = Enc.create () in
  List.iter (fun f -> f b) feeds;
  Enc.digest_hex b

(* --- encoder ---------------------------------------------------------- *)

(* The canonical byte layout, pinned: a change here is a deliberate
   change of the encoding, never a side effect.  Injectivity (see the
   no-aliasing test) is what keys rely on; the pinned bytes make any
   change to it visible in review. *)
let test_enc_fixed_vectors () =
  Alcotest.(check string)
    "empty stream is MD5 of the empty string"
    "d41d8cd98f00b204e9800998ecf8427e"
    (digest_of []);
  let pin name expected_bytes feeds =
    Alcotest.(check string)
      name
      (Digest.to_hex (Digest.string expected_bytes))
      (digest_of feeds)
  in
  pin "str" "s2:ab" [ (fun b -> Enc.str b "ab") ];
  pin "int" "i5;" [ (fun b -> Enc.int b 5) ];
  pin "negative int" "i-5;" [ (fun b -> Enc.int b (-5)) ];
  pin "i64" "q1099511627776;" [ (fun b -> Enc.i64 b 1_099_511_627_776L) ];
  pin "bools" "TF" [ (fun b -> Enc.bool b true); (fun b -> Enc.bool b false) ];
  pin "option" "NSi3;"
    [ (fun b -> Enc.opt Enc.int b None); (fun b -> Enc.opt Enc.int b (Some 3)) ];
  pin "list" "L2:i1;i2;" [ (fun b -> Enc.list Enc.int b [ 1; 2 ]) ];
  pin "int array" "A3:7,8,9," [ (fun b -> Enc.int_array b [| 7; 8; 9 |]) ];
  (* floats are raw big-endian IEEE-754 bits after the tag *)
  let bits f =
    let b = Buffer.create 8 in
    Buffer.add_int64_be b (Int64.bits_of_float f);
    Buffer.contents b
  in
  pin "float" ("f" ^ bits 1.5) [ (fun b -> Enc.float b 1.5) ];
  pin "float array"
    ("G2:" ^ bits 0.5 ^ bits (-2.0))
    [ (fun b -> Enc.float_array b [| 0.5; -2.0 |]) ]

let test_enc_no_aliasing () =
  let differs name a b =
    Alcotest.(check bool) name false (digest_of a = digest_of b)
  in
  differs "string split"
    [ (fun b -> Enc.str b "ab"); (fun b -> Enc.str b "c") ]
    [ (fun b -> Enc.str b "a"); (fun b -> Enc.str b "bc") ];
  differs "int split"
    [ (fun b -> Enc.int b 12); (fun b -> Enc.int b 3) ]
    [ (fun b -> Enc.int b 1); (fun b -> Enc.int b 23) ];
  differs "list vs elements"
    [ (fun b -> Enc.list Enc.str b [ "a"; "b" ]) ]
    [ (fun b -> Enc.str b "a"); (fun b -> Enc.str b "b") ];
  differs "array split"
    [ (fun b -> Enc.int_array b [| 1; 2 |]) ]
    [ (fun b -> Enc.int_array b [| 12 |]) ];
  differs "signed zero"
    [ (fun b -> Enc.float b 0.0) ]
    [ (fun b -> Enc.float b (-0.0)) ];
  differs "int vs i64"
    [ (fun b -> Enc.int b 5) ]
    [ (fun b -> Enc.i64 b 5L) ]

(* --- structural digests ----------------------------------------------- *)

let test_key_digests_stable_and_sensitive () =
  let a1 = Key.netlist_hex (Alu.build ~width:4 ()) in
  let a2 = Key.netlist_hex (Alu.build ~width:4 ()) in
  Alcotest.(check string) "same build, same digest" a1 a2;
  Alcotest.(check bool)
    "different width, different digest" false
    (a1 = Key.netlist_hex (Lazy.force alu2));
  Alcotest.(check bool)
    "lut and granular differ" false
    (Key.arch_hex Arch.lut_plb = Key.arch_hex Arch.granular_plb);
  let k1 = Key.make ~stage:"x" (fun b -> Enc.int b 1) in
  let k2 = Key.make ~stage:"x" (fun b -> Enc.int b 1) in
  let k3 = Key.make ~stage:"y" (fun b -> Enc.int b 1) in
  Alcotest.(check string) "key deterministic" (Key.id k1) (Key.id k2);
  Alcotest.(check bool)
    "stage name reaches the digest" false
    (Key.hex k1 = Key.hex k3);
  Alcotest.(check string) "id shape" ("x/" ^ Key.hex k1) (Key.id k1);
  Alcotest.(check int) "hex width" 32 (String.length (Key.hex k1))

(* --- memoization ------------------------------------------------------ *)

(* The flow's memo path, outside any flow: no recovery events, no trace. *)
let memo c k compute =
  Stagekey.memo c ~log:(Log.create ()) ~trace:Trace.null (fun () -> k) compute

let test_memo_hit_and_stats () =
  let c = Cache.create () in
  Alcotest.(check bool) "enabled" true (Cache.enabled c);
  let k = Key.make ~stage:"s" (fun b -> Enc.int b 1) in
  let computes = ref 0 in
  let compute () =
    incr computes;
    [| 1; 2; 3 |]
  in
  let v1 = memo c k compute in
  let v2 = memo c k compute in
  Alcotest.(check int) "computed once" 1 !computes;
  Alcotest.(check (array int)) "hit equals computed" v1 v2;
  Alcotest.(check bool) "hit is a fresh copy" true (v1 != v2);
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "stores" 1 s.Cache.stores;
  Alcotest.(check int) "mem entries" 1 s.Cache.mem_entries;
  match s.Cache.stages with
  | [ ("s", (1, 1, 1)) ] -> ()
  | _ -> Alcotest.fail "per-stage stats"

let test_disabled_cache () =
  let k = Key.make ~stage:"s" (fun b -> Enc.int b 1) in
  let computes = ref 0 in
  let compute () = incr computes; !computes in
  Alcotest.(check int) "first" 1 (memo Cache.none k compute);
  Alcotest.(check int) "second recomputes" 2 (memo Cache.none k compute);
  Alcotest.(check bool) "disabled" false (Cache.enabled Cache.none);
  let s = Cache.stats Cache.none in
  Alcotest.(check int) "no stats" 0 (s.Cache.hits + s.Cache.misses)

(* The put-time-snapshot invariant: neither the producer mutating its
   result after the store nor a consumer mutating a hit can poison the
   cache. *)
let test_put_snapshot_isolation () =
  let c = Cache.create () in
  let k = Key.make ~stage:"s" (fun b -> Enc.int b 2) in
  let producer = [| 10; 20 |] in
  Cache.put c k producer;
  producer.(0) <- 99;
  (match Cache.find c k with
  | Some a -> Alcotest.(check (array int)) "producer mutation" [| 10; 20 |] a
  | None -> Alcotest.fail "expected a hit");
  (match Cache.find c k with
  | Some a -> (a : int array).(1) <- 99
  | None -> Alcotest.fail "expected a hit");
  match Cache.find c k with
  | Some a -> Alcotest.(check (array int)) "consumer mutation" [| 10; 20 |] a
  | None -> Alcotest.fail "expected a hit"

(* --- flow integration ------------------------------------------------- *)

(* The tentpole's correctness contract: for any (design, arch, verify)
   combination, a warm run against a shared cache produces a result
   [compare]-identical to both its own cold run and an uncached run. *)
let prop_cache_hit_equals_recompute =
  QCheck.Test.make ~name:"cache hit == recompute (flow pairs)" ~count:6
    QCheck.(triple small_int bool bool)
    (fun (seed, wide, granular) ->
      let nl = Lazy.force (if wide then alu4 else alu2) in
      let arch = if granular then Arch.granular_plb else Arch.lut_plb in
      let verify = if wide then Flow.Fast else Flow.Off in
      let cache = Cache.create () in
      let run c = Flow.run ~seed ~verify ~cache:c arch nl in
      let cold = run cache in
      let warm = run cache in
      let uncached = run Cache.none in
      let s = Cache.stats cache in
      s.Cache.hits > 0
      && compare cold warm = 0
      && compare cold uncached = 0)

(* Recovery replay: with the router started at channel capacity 1 the
   cold run retries and escalates its routing stages; the warm run hits
   those stages instead, so its recovery log comes only from the events
   each entry stored.  Both logs must read the same. *)
let test_warm_replays_recovery () =
  let nl = Lazy.force alu2 in
  let policy =
    { Policy.default with Policy.route_capacity = Some 1; max_attempts = 6 }
  in
  let cache = Cache.create () in
  let run () =
    let log = Log.create () and trace = Trace.create () in
    let pair =
      Flow.run ~seed:3 ~anneal_iterations:1_000 ~policy ~log ~trace ~cache
        Arch.granular_plb nl
    in
    (pair, log, trace)
  in
  let hits trace =
    List.length
      (List.filter
         (function Span.Instant { name = "cache:hit"; _ } -> true | _ -> false)
         (Trace.events trace))
  in
  let cold, cold_log, cold_trace = run () in
  let warm, warm_log, warm_trace = run () in
  let cs = Log.summary cold_log and ws = Log.summary warm_log in
  Alcotest.(check bool) "cold run retried" true (cs.Log.retries > 0);
  Alcotest.(check (triple int int int))
    "summary"
    (cs.Log.retries, cs.Log.escalations, cs.Log.degraded)
    (ws.Log.retries, ws.Log.escalations, ws.Log.degraded);
  Alcotest.(check (list string))
    "events" (Log.strings cold_log) (Log.strings warm_log);
  Alcotest.(check bool) "outcomes identical" true (compare cold warm = 0);
  Alcotest.(check bool)
    "warm trace marks hits" true
    (hits warm_trace > hits cold_trace)

(* A cached front-end artifact is a real netlist, not just equal bytes:
   pull the [map] entry a warm flow hit on and drive it against the
   source design with randomized simulation. *)
let test_cached_map_is_equivalent () =
  let nl = Lazy.force alu4 in
  let arch = Arch.granular_plb in
  let cache = Cache.create () in
  ignore (Flow.run ~seed:1 ~cache arch nl);
  let opts =
    {
      Stagekey.seed = 1;
      period = 500.0;
      utilization = 0.7;
      anneal_iterations = None;
      use_criticality = true;
      verify = Flow.Fast;
      policy = Policy.default;
      defect = None;
    }
  in
  let k =
    Stagekey.map ~nl:(Key.netlist_hex nl) ~arch:(Key.arch_hex arch) opts
  in
  match Cache.find cache k with
  | None -> Alcotest.fail "no cached map artifact"
  | Some ((mapped, _events) : Netlist.t * _) ->
      (match Equiv.check ~seed:7 nl mapped with
      | Equiv.Equivalent -> ()
      | Equiv.Mismatch _ -> Alcotest.fail "cached map artifact not equivalent");
      (* and it matches a recompute structurally *)
      Alcotest.(check string)
        "same structural digest"
        (Key.netlist_hex (Techmap.map arch nl))
        (Key.netlist_hex mapped)

(* The stress sweep's headline invariant: with a shared cache, the
   defect-independent front-end of each (design, arch) is computed
   exactly once across all defect rates and maps.  One design, both
   archs, 4 rates x 1 map = 4 tasks per arch: per front-end stage, 2
   misses (one per arch) and 6 hits. *)
let test_stress_frontend_computed_once () =
  let cache = Cache.create () in
  let report =
    Minchan.stress ~seed:1 ~jobs:1 ~rates:[ 0.0; 0.02; 0.05; 0.1 ]
      ~maps_per_rate:1 ~cache
      ~designs:[ ("alu", Lazy.force alu4) ]
      Experiments.Test
  in
  Alcotest.(check int) "8 tasks" 8 (List.length report.Minchan.r_points);
  let s = Cache.stats cache in
  List.iter
    (fun stage ->
      match List.assoc_opt stage s.Cache.stages with
      | Some (hits, misses, _) ->
          Alcotest.(check (pair int int))
            (stage ^ " computed once per (design, arch)")
            (6, 2) (hits, misses)
      | None -> Alcotest.fail (stage ^ " never keyed"))
    [ "compact"; "buffer"; "place:global" ]

let () =
  Alcotest.run "cache"
    [
      ( "encoder",
        [
          Alcotest.test_case "fixed vectors" `Quick test_enc_fixed_vectors;
          Alcotest.test_case "no aliasing" `Quick test_enc_no_aliasing;
        ] );
      ( "keys",
        [
          Alcotest.test_case "stable and sensitive" `Quick
            test_key_digests_stable_and_sensitive;
        ] );
      ( "memo",
        [
          Alcotest.test_case "hit and stats" `Quick test_memo_hit_and_stats;
          Alcotest.test_case "disabled" `Quick test_disabled_cache;
          Alcotest.test_case "put-time snapshot" `Quick
            test_put_snapshot_isolation;
        ] );
      ( "flow",
        [
          QCheck_alcotest.to_alcotest prop_cache_hit_equals_recompute;
          Alcotest.test_case "warm run replays recovery" `Quick
            test_warm_replays_recovery;
          Alcotest.test_case "cached map equivalent (CEC spot-check)" `Quick
            test_cached_map_is_equivalent;
          Alcotest.test_case "stress front-end once" `Slow
            test_stress_frontend_computed_once;
        ] );
    ]
