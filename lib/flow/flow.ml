module Netlist = Vpga_netlist.Netlist
module Equiv = Vpga_netlist.Equiv
module Stats = Vpga_netlist.Stats
module Arch = Vpga_plb.Arch
module Config = Vpga_plb.Config
module Techmap = Vpga_mapper.Techmap
module Compact = Vpga_mapper.Compact
module Placement = Vpga_place.Placement
module Global = Vpga_place.Global
module Anneal = Vpga_place.Anneal
module Buffering = Vpga_place.Buffering
module Quadrisect = Vpga_pack.Quadrisect
module Pathfinder = Vpga_route.Pathfinder
module Grid = Vpga_route.Grid
module Detail = Vpga_route.Detail
module Sta = Vpga_timing.Sta
module Power = Vpga_timing.Power
module Lint = Vpga_verify.Lint
module Analysis = Vpga_analysis.Analysis
module Ownership = Vpga_analysis.Ownership
module Cec = Vpga_verify.Cec
module Phys = Vpga_verify.Phys
module Diag = Vpga_verify.Diag
module Fail = Vpga_resil.Fail
module Defect = Vpga_resil.Defect
module Policy = Vpga_resil.Policy
module Log = Vpga_resil.Log
module Retry = Vpga_resil.Retry
module Trace = Vpga_obs.Trace
module Attr = Vpga_obs.Span
module Cache = Vpga_cache.Cache
module Ckey = Vpga_cache.Key

type kind = Flow_a | Flow_b

type verify = Stagekey.verify = Off | Fast | Formal

type outcome = {
  design : string;
  arch : Arch.t;
  kind : kind;
  die_area : float;
  cell_area : float;
  gate_count : float;
  avg_top10_slack : float;
  wns : float;
  wirelength : float;
  array_dims : (int * int) option;
  tiles_used : int;
  compaction_gain : float;
  config_histogram : (Config.t * int) list;
  displacement : float;
  displacement_tiles : float;
  power_uw : float;  (* total power estimate, uW *)
  routed_vias : int;  (* detailed-routing via count *)
}

type pair = { a : outcome; b : outcome }

let check_equivalence reference candidate =
  match Equiv.check ~vectors:24 ~sequence_length:6 ~seed:2024 reference candidate with
  | Equiv.Equivalent -> ()
  | Equiv.Mismatch { cycle; output; _ } ->
      failwith
        (Printf.sprintf "flow stage broke design %s (cycle %d, output %d)"
           (Netlist.design_name reference) cycle output)

let check_structure ~stage nl =
  match Netlist.validate nl with
  | Ok () -> ()
  | Error msg -> failwith (Printf.sprintf "%s: invalid netlist: %s" stage msg)

(* --- the shared physical front-end --------------------------------------

   The stages {!run} shares with {!packed}, and through it with
   {!Minchan.search}, E14 and [vpga export].  Each takes the cache-key
   options, the cache / log / trace sinks and the upstream digests its
   caller holds (lazily: a disabled cache forces none), and opens no
   span — callers wrap them in their own.  Every boundary goes through
   {!Stagekey.memo}: a hit replays the recovery events its compute
   recorded, a miss stores them. *)

(* [labels] compacts through [Compact.run_traced]: the same cover at the
   same pass count, with the incremental FlowMap labeler running
   alongside so [flowmap.*] counters land on the ambient trace. *)
let compact ~cache ~log ~trace ~labels opts ~d_nl ~d_arch arch nl =
  Stagekey.memo cache ~log ~trace
    (fun () ->
      Stagekey.compact ~nl:(Lazy.force d_nl) ~arch:(Lazy.force d_arch) opts)
    (fun () ->
      if labels then fst (Compact.run_traced arch nl) else Compact.run arch nl)

let buffer ~cache ~log ~trace opts ~d_compacted compacted =
  Stagekey.memo cache ~log ~trace
    (fun () ->
      Stagekey.buffer ~compacted:(Lazy.force d_compacted) ~max_fanout:8 opts)
    (fun () -> Buffering.insert ~max_fanout:8 compacted)

(* The cached value is the coordinate arrays: [Placement.create] (graph
   construction) reruns on a hit — cheap — and the coordinates blit into
   the fresh placement, so downstream mutation (annealing, snapping)
   works on this run's own arrays. *)
let place_global ~cache ~log ~trace opts ~d_buffered buffered =
  let pl = Placement.create ~utilization:opts.Stagekey.utilization buffered in
  let px, py =
    Stagekey.memo cache ~log ~trace
      (fun () -> Stagekey.place_global ~buffered:(Lazy.force d_buffered) opts)
      (fun () ->
        Global.place ~seed:opts.Stagekey.seed pl;
        (pl.Placement.x, pl.Placement.y))
  in
  (* A miss hands back [pl]'s own arrays; only a hit needs the blit. *)
  if px != pl.Placement.x then begin
    Array.blit px 0 pl.Placement.x 0 (Array.length px);
    Array.blit py 0 pl.Placement.y 0 (Array.length py)
  end;
  pl

(* Legalization under the relaxation ladder: an unfittable design buys
   the next attempt a roomier array (lower target utilization).
   Exhaustion is fatal — there is no flow b without a legal packing.
   Dead tiles come from the same (normalized) defect map the key
   digests; an absent [criticality] packs exactly like an all-zero one. *)
let legalize ~cache ~log ~trace ?criticality opts ~d_arch ~d_buffered ~d_pl
    arch pl =
  let stage = "pack:quadrisect" in
  let policy = opts.Stagekey.policy in
  let dead_tile = Option.map Defect.tile_dead opts.Stagekey.defect in
  let rec go attempt utilization =
    match
      Quadrisect.legalize_result ~utilization ?criticality ?dead_tile arch pl
    with
    | Ok q -> q
    | Error fe ->
        let reason = Quadrisect.fit_error_to_string fe in
        if attempt + 1 < policy.Policy.max_attempts then begin
          let u = utilization *. policy.Policy.pack_relaxation in
          Log.record log (Log.Retry { stage; attempt = attempt + 1; reason });
          Log.record log
            (Log.Escalation
               {
                 stage;
                 what =
                   Printf.sprintf
                     "grow the array: target utilization %.2f -> %.2f"
                     utilization u;
               });
          go (attempt + 1) u
        end
        else
          Fail.raise_
            (Fail.make ~stage ~design:fe.Quadrisect.design
               ~attempts:(attempt + 1)
               ~diags:[ Diag.error "pack-unfit" "%s" reason ]
               ~events:(Log.strings log) ())
  in
  Stagekey.memo cache ~log ~trace
    (fun () ->
      Stagekey.quadrisect ~arch:(Lazy.force d_arch)
        ~buffered:(Lazy.force d_buffered) ~pl:(Lazy.force d_pl) opts)
    (fun () -> go 0 policy.Policy.pack_utilization)

let packed ~cache ~log ~trace opts arch nl =
  (* Criticality-free legalization: the key must say so. *)
  let opts = { opts with Stagekey.use_criticality = false } in
  let d_nl = lazy (Ckey.netlist_hex nl) in
  let d_arch = lazy (Ckey.arch_hex arch) in
  let compacted =
    compact ~cache ~log ~trace ~labels:false opts ~d_nl ~d_arch arch nl
  in
  let d_compacted = lazy (Ckey.netlist_hex compacted) in
  let buffered = buffer ~cache ~log ~trace opts ~d_compacted compacted in
  let d_buffered = lazy (Ckey.netlist_hex buffered) in
  let pl = place_global ~cache ~log ~trace opts ~d_buffered buffered in
  let d_pl = lazy (Stagekey.placement_hex pl) in
  let q = legalize ~cache ~log ~trace opts ~d_arch ~d_buffered ~d_pl arch pl in
  (buffered, q, Quadrisect.snap q pl)

let run ?(seed = 1) ?(period = 500.0) ?(utilization = 0.7)
    ?anneal_iterations ?(refine = true) ?(use_criticality = true)
    ?(jobs = 1) ?(verify = Fast) ?(policy = Policy.default) ?log
    ?(trace = Trace.null) ?(trace_labels = true) ?(analyze = false) ?defect
    ?(cache = Cache.none) arch nl =
  let design = Netlist.design_name nl in
  let log = match log with Some l -> l | None -> Log.create () in
  (* An empty defect map is the healthy fabric: normalize it away so the
     no-defect flow stays bit-identical to the pre-defect-layer code
     (shared full-track arrays, no dead-tile plumbing). *)
  let defect =
    match defect with Some d when Defect.is_empty d -> None | d -> d
  in
  let track_fn = Option.map Defect.tracks defect in
  (* Content-addressed memoization of the stage boundaries.  Every key is
     built in [Stagekey] from the digests of the stage's actual inputs,
     so a hit is exactly a rerun of the same deterministic computation;
     values revive as fresh copies ([Cache]'s put-time serialization), so
     the flow's in-place mutation of placements never reaches an entry. *)
  let keyed = Cache.enabled cache in
  let opts =
    {
      Stagekey.seed;
      period;
      utilization;
      anneal_iterations;
      use_criticality;
      verify;
      policy;
      defect;
    }
  in
  let d_nl = lazy (Ckey.netlist_hex nl) in
  let d_arch = lazy (Ckey.arch_hex arch) in
  (* Every stage boundary opens a span on [trace]; [Trace.with_span] also
     installs the trace as the domain's ambient sink, so counters emitted
     deep inside the annealer / PathFinder / SAT / cut enumeration land in
     this task's registry.  With [trace = Trace.null] every span is one
     branch and nothing else. *)
  let span ?attrs name f = Trace.with_span ?attrs trace name f in
  (* Every stage boundary goes through {!Stagekey.memo}: a hit replays
     the recovery events its compute recorded, a miss stores them. *)
  let memo mk compute = Stagekey.memo cache ~log ~trace mk compute in
  let vfast = verify <> Off in
  let vformal = verify = Formal in
  (* Verification gates abort with a *typed* failure: the stage name,
     attempt count and the diagnostics that condemned it. *)
  let guard ?(attempts = 1) stage f =
    try f ()
    with Failure msg ->
      Fail.raise_
        (Fail.make ~stage ~design ~attempts
           ~diags:[ Diag.error "verify-failed" "%s" msg ]
           ~events:(Log.strings log) ())
  in
  (* Structural well-formedness at every stage boundary. *)
  let structure stage nl' =
    if vfast then guard stage (fun () -> check_structure ~stage nl')
  in
  (* Formal proofs walk the policy's conflict-budget ladder; when every
     budget comes back [Undecided] the stage degrades Formal -> Fast
     (the randomized gate already passed) with a recorded warning. *)
  let formal_prove stage candidate =
    let refute attempts { Cec.root; root_is_flop; _ } =
      Fail.raise_
        (Fail.make ~stage ~design ~attempts
           ~diags:
             [
               Diag.error "cec-refuted"
                 "SAT equivalence check refuted design %s (%s %d differs)"
                 design
                 (if root_is_flop then "flop D pin" else "output")
                 root;
             ]
           ~events:(Log.strings log) ())
    in
    let degrade () =
      Log.record log
        (Log.Degraded
           {
             stage;
             what =
               "SAT proof undecided within the policy's conflict budgets; \
                relying on the randomized equivalence gate";
           })
    in
    let rec go attempt = function
      | [] -> degrade ()
      | budget :: rest -> (
          let verdict =
            match budget with
            | None -> (
                match Cec.check nl candidate with
                | Cec.Equivalent -> Cec.Proved
                | Cec.Inequivalent cex -> Cec.Refuted cex)
            | Some mc -> Cec.check_bounded ~max_conflicts:mc nl candidate
          in
          match verdict with
          | Cec.Proved -> ()
          | Cec.Refuted cex -> refute (attempt + 1) cex
          | Cec.Undecided -> (
              match rest with
              | [] -> degrade ()
              | next :: _ ->
                  let show = function
                    | Some b -> string_of_int b
                    | None -> "unbounded"
                  in
                  Log.record log
                    (Log.Retry
                       {
                         stage;
                         attempt = attempt + 1;
                         reason = "SAT proof undecided within conflict budget";
                       });
                  Log.record log
                    (Log.Escalation
                       {
                         stage;
                         what =
                           Printf.sprintf "conflict budget %s -> %s"
                             (show budget) (show next);
                       });
                  go (attempt + 1) rest))
    in
    go 0 policy.Policy.cec_budgets
  in
  (* Functional equivalence against the source netlist: the randomized
     simulation gate is a fast pre-filter; at [Formal] the SAT-based
     checker then proves what simulation only sampled. *)
  let equiv stage candidate =
    if vfast then guard stage (fun () -> check_equivalence nl candidate);
    if vformal then formal_prove stage candidate
  in
  (* Cached equivalence gate: the simulation + SAT work dominates these
     spans; the structural check stays live as a per-run spot check.
     With verification off the gate is a no-op, so nothing is cached. *)
  let equiv_gate stage candidate d_candidate =
    if vfast then
      memo
        (fun () ->
          Stagekey.verify_gate ~stage ~source:(Lazy.force d_nl)
            ~candidate:(Lazy.force d_candidate) opts)
        (fun () -> equiv stage candidate)
  in
  let phys stage check =
    if vfast then
      span stage (fun () ->
          guard stage (fun () -> Diag.fail_on_errors ~stage (check ())))
  in
  span "flow"
    ~attrs:
      [
        ("design", Attr.Str design);
        ("arch", Attr.Str arch.Arch.name);
        ("seed", Attr.Int seed);
      ]
  @@ fun () ->
  span "verify:input" (fun () ->
      structure "verify:input" nl;
      if vfast then
        guard "verify:lint" (fun () -> Lint.check ~stage:"verify:lint" nl));
  (* Static dataflow analysis over the source netlist: detection only
     (no simplification inside the flow — rewrites belong to explicit
     [vpga analyze --simplify] invocations), counters onto the ambient
     trace, errors fatal like any other verification gate. *)
  if analyze then
    span "analyze:input" (fun () ->
        let a = Analysis.run ~simplify:false nl in
        Analysis.emit a;
        guard "analyze:input" (fun () ->
            Diag.fail_on_errors ~stage:"analyze:input" (Analysis.diags a)));
  let gate_count = Stats.gate_count nl in
  (* Front-end: map, compact, buffer. *)
  let mapped =
    span "map" (fun () ->
        memo
          (fun () ->
            Stagekey.map ~nl:(Lazy.force d_nl) ~arch:(Lazy.force d_arch) opts)
          (fun () -> Techmap.map arch nl))
  in
  let d_mapped = lazy (Ckey.netlist_hex mapped) in
  span "verify:techmap" (fun () ->
      structure "verify:techmap" mapped;
      equiv_gate "verify:techmap" mapped d_mapped);
  let compacted, compaction_gain =
    span "compact" (fun () ->
        (* Traced runs label alongside compaction; from-scratch labeling
           is far costlier than the compaction DP on large inputs, so
           callers that trace for stage {e timings} (the bench sweep) opt
           out via [trace_labels:false]. *)
        let compacted =
          compact ~cache ~log ~trace
            ~labels:(trace_labels && Trace.enabled trace)
            opts ~d_nl ~d_arch arch nl
        in
        let before = Techmap.cell_area mapped in
        let gain =
          if before <= 0.0 then 0.0
          else 1.0 -. (Techmap.cell_area compacted /. before)
        in
        (compacted, gain))
  in
  let d_compacted = lazy (Ckey.netlist_hex compacted) in
  span "verify:compact" (fun () ->
      structure "verify:compact" compacted;
      equiv_gate "verify:compact" compacted d_compacted);
  let buffered, cell_area, config_histogram =
    span "buffer" (fun () ->
        let buffered = buffer ~cache ~log ~trace opts ~d_compacted compacted in
        ( buffered,
          Techmap.cell_area buffered,
          Compact.config_histogram buffered ))
  in
  let d_buffered = lazy (Ckey.netlist_hex buffered) in
  span "verify:buffer" (fun () ->
      structure "verify:buffer" buffered;
      equiv_gate "verify:buffer" buffered d_buffered);
  Trace.set trace "flow.gate_count" gate_count;
  Trace.set trace "flow.cells" (float_of_int (Netlist.size buffered));
  (* Placement (shared by both flows). *)
  let pl =
    span "place:global" (fun () ->
        place_global ~cache ~log ~trace opts ~d_buffered buffered)
  in
  let d_pl_global = if keyed then Stagekey.placement_hex pl else "" in
  (* Criticality from a pre-route timing estimate. *)
  let crit =
    span "sta:pre" (fun () ->
        if use_criticality then Sta.criticality (Sta.run ~period buffered)
        else Array.make (Netlist.size buffered) 0.0)
  in
  let iterations =
    match anneal_iterations with
    | Some i -> Some i
    | None -> Some (min 400_000 (40 * Netlist.size buffered))
  in
  (* Annealing with divergence detection: if a walk ends above its
     starting cost, restore the pre-anneal placement and restart with a
     derived reseed at a cooler temperature; attempt 0 reproduces the
     policy-free flow exactly.  Exhaustion is survivable — the pre-anneal
     (global) placement is already legal, so the flow continues on it. *)
  let () =
    span "place:anneal" @@ fun () ->
    let stage = "place:anneal" in
    let base_seed = seed + 1 in
    let n = Array.length pl.Placement.x in
    let rec go attempt t_start =
      let sx = Array.copy pl.Placement.x and sy = Array.copy pl.Placement.y in
      let stats =
        Anneal.refine ?iterations ~criticality:crit ?t_start
          ~seed:(Retry.reseed ~seed:base_seed ~attempt)
          pl
      in
      if stats.Anneal.final_cost > stats.Anneal.initial_cost then begin
        Array.blit sx 0 pl.Placement.x 0 n;
        Array.blit sy 0 pl.Placement.y 0 n;
        let reason =
          Printf.sprintf "annealing cost diverged (%.0f -> %.0f)"
            stats.Anneal.initial_cost stats.Anneal.final_cost
        in
        if attempt + 1 < policy.Policy.max_attempts then begin
          let t' =
            match t_start with
            | Some t -> t *. policy.Policy.anneal_cooling
            | None -> 1.0 (* restart well below the adaptive default *)
          in
          Log.record log (Log.Retry { stage; attempt = attempt + 1; reason });
          Log.record log
            (Log.Escalation
               {
                 stage;
                 what =
                   Printf.sprintf
                     "restart with derived reseed at t_start %.3g" t';
               });
          go (attempt + 1) (Some t')
        end
        else
          Log.record log
            (Log.Degraded
               { stage; what = reason ^ "; keeping the pre-anneal placement" })
      end
    in
    let ax, ay =
      memo
        (fun () ->
          Stagekey.place_anneal ~buffered:(Lazy.force d_buffered)
            ~pl:d_pl_global opts)
        (fun () ->
          go 0 policy.Policy.anneal_t_start;
          (pl.Placement.x, pl.Placement.y))
    in
    if ax != pl.Placement.x then begin
      Array.blit ax 0 pl.Placement.x 0 n;
      Array.blit ay 0 pl.Placement.y 0 n
    end
  in
  phys "verify:placement(a)" (fun () -> Phys.check_placement pl);
  let d_pl = if keyed then Stagekey.placement_hex pl else "" in
  let activities =
    span "power:activities" (fun () ->
        memo
          (fun () ->
            Stagekey.activities ~buffered:(Lazy.force d_buffered) opts)
          (fun () -> Power.activities ~seed:(seed + 7) buffered))
  in
  (* Global + detailed routing under the escalation ladder: leftover
     channel overflow or a track-assignment conflict buys the next
     attempt a wider channel and a bigger rip-up budget.  Exhaustion
     with overflow degrades (detailed routing is skipped, vias = -1,
     matching the policy-free flow's behavior on congested results);
     exhaustion on a track conflict is fatal. *)
  let route_stage tag pl =
    let stage = "route:" ^ tag in
    let iterations_of attempt =
      30 + (policy.Policy.route_extra_iterations * attempt)
    in
    let rec go attempt capacity =
      let routed =
        Pathfinder.route_placement ?capacity ?tracks:track_fn
          ~max_iterations:(iterations_of attempt) pl
      in
      let escalate reason =
        let base = routed.Pathfinder.grid.Grid.capacity in
        let cap =
          max (base + 1)
            (int_of_float
               (ceil (float_of_int base *. policy.Policy.route_capacity_growth)))
        in
        Log.record log (Log.Retry { stage; attempt = attempt + 1; reason });
        Log.record log
          (Log.Escalation
             {
               stage;
               what =
                 Printf.sprintf
                   "channel capacity %d -> %d, rip-up iterations %d -> %d" base
                   cap (iterations_of attempt)
                   (iterations_of (attempt + 1));
             });
        go (attempt + 1) (Some cap)
      in
      let exhausted = attempt + 1 >= policy.Policy.max_attempts in
      if routed.Pathfinder.final_overflow > 0 then begin
        let reason =
          Printf.sprintf "%d unit(s) of channel overflow left after %d rip-up \
                          iteration(s)"
            routed.Pathfinder.final_overflow routed.Pathfinder.iterations
        in
        if not exhausted then escalate reason
        else begin
          Log.record log
            (Log.Degraded { stage; what = reason ^ "; detailed routing skipped" });
          (routed, -1)
        end
      end
      else
        match
          span "route:detail" (fun () ->
              Detail.run_result routed.Pathfinder.grid routed.Pathfinder.routes)
        with
        | Ok d ->
            phys
              (Printf.sprintf "verify:tracks(%s)" tag)
              (fun () -> Phys.check_tracks d routed.Pathfinder.routes);
            (routed, d.Detail.total_vias)
        | Error reason ->
            if not exhausted then escalate reason
            else
              Fail.raise_
                (Fail.make ~stage ~design ~attempts:(attempt + 1)
                   ~diags:[ Diag.error "track-overflow" "%s" reason ]
                   ~events:(Log.strings log) ())
    in
    go 0 policy.Policy.route_capacity
  in
  (* Caches the whole escalation ladder — global routing, detailed
     routing, the embedded track gate — as one entry per placement. *)
  let cached_route tag pl_for d_pl_for =
    memo
      (fun () ->
        Stagekey.route ~tag ~buffered:(Lazy.force d_buffered) ~pl:d_pl_for
          opts)
      (fun () -> route_stage tag pl_for)
  in
  (* ---- Flow a: ASIC-style ---- *)
  let routed_a, vias_a = span "route:a" (fun () -> cached_route "a" pl d_pl) in
  phys "verify:routing(a)" (fun () -> Phys.check_routing routed_a pl);
  let wire_a, sta_a =
    span "sta:a" (fun () ->
        let wire = Pathfinder.wire_loads routed_a in
        (wire, Sta.run ~period ~wire buffered))
  in
  let power_a =
    span "power:a" (fun () ->
        Power.estimate ~period ~wire:wire_a ~activities buffered)
  in
  let outcome_a =
    {
      design;
      arch;
      kind = Flow_a;
      die_area = pl.Placement.die_w *. pl.Placement.die_h;
      cell_area;
      gate_count;
      avg_top10_slack = Sta.average_top_slack sta_a 10;
      wns = sta_a.Sta.wns;
      wirelength = Pathfinder.total_wirelength routed_a;
      array_dims = None;
      tiles_used = 0;
      compaction_gain;
      config_histogram;
      displacement = 0.0;
      displacement_tiles = 0.0;
      power_uw = power_a.Power.total_uw;
      routed_vias = vias_a;
    }
  in
  (* ---- Flow b: pack into the PLB array ---- *)
  let q =
    span "pack:quadrisect" (fun () ->
        legalize ~cache ~log ~trace ~criticality:crit opts ~d_arch ~d_buffered
          ~d_pl:(Lazy.from_val d_pl) arch pl)
  in
  (* One precomputed dead-tile view at the final packing's dims, shared
     by the checker and the refinement loop. *)
  let dead_pred =
    Option.map
      (fun d ->
        Defect.dead_pred d ~cols:q.Quadrisect.cols ~rows:q.Quadrisect.rows)
      defect
  in
  phys "verify:packing" (fun () ->
      Phys.check_packing ?dead_tile:dead_pred q buffered);
  let pl_b = span "pack:snap" (fun () -> Quadrisect.snap q pl) in
  (* The paper's packing <-> physical-synthesis iteration: refine tile
     assignments under the criticality-weighted wirelength cost. *)
  if refine then begin
    (* Region grid: a fixed function of the array dims (never of [jobs],
       which only bounds worker domains), so refinement is reproducible
       at any parallelism.  Small arrays stay on the single-region
       reference walk. *)
    let regions =
      if min q.Quadrisect.cols q.Quadrisect.rows >= 12 then 2 else 1
    in
    (* Static ownership proof before the walks run, then the dynamic
       guard ([sanitize]) inside them: a decomposition bug surfaces as a
       structured diagnostic here, or as an [Occupancy.Race] at the
       faulting write instead of silent corruption. *)
    if analyze then
      span "analyze:regions" (fun () ->
          let r = Ownership.check ~regions q in
          Trace.emit "analysis.sanitizer_checks" (float_of_int r.Ownership.checks);
          guard "analyze:regions" (fun () ->
              Diag.fail_on_errors ~stage:"analyze:regions" r.Ownership.diags));
    span "pack:refine" (fun () ->
        (* [Refine.run] mutates exactly the tile assignment and the
           snapped coordinates, so that triple is the cached value; a hit
           blits it over this run's packing. *)
        let tiles, rx, ry =
          memo
            (fun () ->
              Stagekey.refine ~buffered:(Lazy.force d_buffered)
                ~q:(Stagekey.quad_hex q) opts)
            (fun () ->
              (try
                 ignore
                   (Vpga_pack.Refine.run ~criticality:crit ~seed:(seed + 2)
                      ~iterations:(min 400_000 (60 * Netlist.size buffered))
                      ~jobs ~regions ~sanitize:analyze ?dead_tile:dead_pred q
                      pl_b)
               with
              | Vpga_pack.Refine.Infeasible msg ->
                  Fail.raise_
                    (Fail.make ~stage:"pack:refine" ~design ~attempts:1
                       ~diags:[ Diag.error "pack-infeasible" "%s" msg ]
                       ~events:(Log.strings log) ())
              | Vpga_plb.Occupancy.Race { owner; writer } ->
                  Fail.raise_
                    (Fail.make ~stage:"pack:refine" ~design ~attempts:1
                       ~diags:
                         [
                           Diag.error "region-race"
                             "cross-region occupancy write: tile owned by \
                              region %d mutated by region %d's walk"
                             owner writer;
                         ]
                       ~events:(Log.strings log) ()));
              (q.Quadrisect.tile_of_node, pl_b.Placement.x, pl_b.Placement.y))
        in
        if tiles != q.Quadrisect.tile_of_node then begin
          Array.blit tiles 0 q.Quadrisect.tile_of_node 0 (Array.length tiles);
          Array.blit rx 0 pl_b.Placement.x 0 (Array.length rx);
          Array.blit ry 0 pl_b.Placement.y 0 (Array.length ry)
        end)
  end;
  phys "verify:placement(b)" (fun () -> Phys.check_placement pl_b);
  let d_pl_b = if keyed then Stagekey.placement_hex pl_b else "" in
  let routed_b, vias_b =
    span "route:b" (fun () -> cached_route "b" pl_b d_pl_b)
  in
  phys "verify:routing(b)" (fun () -> Phys.check_routing routed_b pl_b);
  let wire_b, sta_b =
    span "sta:b" (fun () ->
        let wire = Pathfinder.wire_loads routed_b in
        (wire, Sta.run ~period ~wire buffered))
  in
  let power_b =
    span "power:b" (fun () ->
        Power.estimate ~period ~wire:wire_b ~activities buffered)
  in
  let outcome_b =
    {
      design;
      arch;
      kind = Flow_b;
      die_area = Quadrisect.array_area q;
      cell_area;
      gate_count;
      avg_top10_slack = Sta.average_top_slack sta_b 10;
      wns = sta_b.Sta.wns;
      wirelength = Pathfinder.total_wirelength routed_b;
      array_dims = Some (q.Quadrisect.cols, q.Quadrisect.rows);
      tiles_used = q.Quadrisect.tiles_used;
      compaction_gain;
      config_histogram;
      displacement = q.Quadrisect.displacement;
      displacement_tiles = q.Quadrisect.mean_displacement_tiles;
      power_uw = power_b.Power.total_uw;
      routed_vias = vias_b;
    }
  in
  { a = outcome_a; b = outcome_b }
