(* Per-layer accounting of a traced run, done entirely from the spans,
   counters and series the library's entry points already record.

   A layer's time is the self time of its spans: a span's duration minus
   the part its direct children cover (for example [route:detail] nests
   inside [route:a] / [route:b]).  Every trace a run returns is on the one
   monotonic clock, and at jobs=1 all of them come from one domain, so
   the spans of all traces nest properly into one forest under the
   benchmark's own [bench:*] spans. *)

open Vpga_obs

type metric = { name : string; unit : string }

let m unit name = { name; unit }

(* The (design, arch) pairs of the paper sweep, as metric-name parts. *)
let slug s =
  String.map
    (fun c -> match c with 'a' .. 'z' | '0' .. '9' -> c | _ -> '_')
    (String.lowercase_ascii s)

let task_metric design arch = Printf.sprintf "task.%s.%s_s" (slug design) arch

let task_metrics =
  List.concat_map
    (fun d -> List.map (task_metric d) [ "lut_plb"; "granular_plb" ])
    [ "ALU"; "Firewire"; "FPU"; "Network switch" ]

(* Stage span -> the layer metric that owns its self time.  At Formal the
   three equivalence gates also run the SAT proof (92% of their time on
   the formal sweep), so their time is the verify layer's there and the
   simulator's otherwise. *)
let span_metric ~formal name =
  match name with
  | "map" -> Some "mapper.map_s"
  | "compact" -> Some "mapper.compact_s"
  | "buffer" -> Some "place.buffer_s"
  | "verify:input" -> Some "netlist.lint_s"
  | "verify:techmap" | "verify:compact" | "verify:buffer" ->
      Some (if formal then "verify.formal_s" else "equiv.gates_s")
  | "power:activities" -> Some "timing.activities_s"
  | "place:global" -> Some "place.global_s"
  | "place:anneal" -> Some "place.anneal_s"
  | "sta:pre" | "sta:a" | "sta:b" | "minchan:sta" -> Some "timing.sta_s"
  | "power:a" | "power:b" -> Some "timing.power_s"
  | "pack:quadrisect" -> Some "pack.quadrisect_s"
  | "pack:snap" -> Some "pack.snap_s"
  | "pack:refine" -> Some "pack.refine_s"
  | "route:a" -> Some "route.a_s"
  | "route:b" -> Some "route.b_s"
  | "route:detail" -> Some "route.detail_s"
  | "minchan:frontend" -> Some "minchan.frontend_s"
  | "minchan:probe" -> Some "minchan.probe_s"
  | "flow" -> Some "flow.self_s"
  | n when String.starts_with ~prefix:"bench:" n -> None
  | n when String.starts_with ~prefix:"verify:" n ->
      (* placement, packing, routing and track checks *)
      Some "verify.phys_s"
  | _ -> Some "trace.unmapped_s"

let self_time_metrics =
  [
    "mapper.map_s"; "mapper.compact_s"; "place.buffer_s"; "netlist.lint_s";
    "equiv.gates_s"; "verify.formal_s"; "timing.activities_s";
    "place.global_s"; "place.anneal_s"; "timing.sta_s"; "timing.power_s";
    "verify.phys_s"; "pack.quadrisect_s"; "pack.snap_s"; "pack.refine_s";
    "route.a_s"; "route.b_s"; "route.detail_s"; "minchan.frontend_s";
    "minchan.probe_s"; "flow.self_s"; "trace.unmapped_s";
  ]

(* Every per-layer metric, in report order.  The ones not derived from the
   trace (requests, recovery, GC, the two per-layer QoR figures) are
   filled in by {!Workload}. *)
let per_layer =
  List.map (m "s") self_time_metrics
  @ [
      m "Mw" "mapper.minor_mw";
      m "count" "mapper.cuts_enumerated";
      m "Mw" "equiv.minor_mw";
      m "count" "sat.solves";
      m "count" "sat.conflicts";
      m "count" "sat.propagations";
      m "count" "sat.conflicts_per_solve_p50";
      m "count" "place.anneal_moves";
      m "ratio" "place.anneal_accept_ratio";
      m "count" "pack.fits_calls";
      m "ratio" "pack.fits_hit_ratio";
      m "count" "pack.refine_moves";
      m "ratio" "pack.refine_accept_ratio";
      m "count" "route.ripup_iterations";
      m "count" "route.nets";
      m "count" "route.overflow";
      m "count" "minchan.probes";
      m "ratio" "minchan.probe_ok_ratio";
      m "tracks" "route.w_min";
      m "uW" "timing.power_uw";
      m "ratio" "cache.hit_ratio";
      m "count" "cache.hits";
      m "count" "cache.misses";
      m "bytes" "cache.bytes";
      m "ms" "request.p50_ms";
      m "ms" "request.p99_ms";
      m "ms" "request.hit_p50_ms";
      m "ms" "request.miss_p50_ms";
      m "count" "request.samples";
      m "count" "resil.retries";
      m "count" "resil.escalations";
      m "count" "resil.degraded";
      m "Mw" "gc.minor_mw";
      m "count" "gc.major_collections";
    ]
  @ List.map (m "s") task_metrics
  @ [
      m "s" "trace.overhead_s";
      m "ratio" "trace.coverage";
      m "ratio" "host.slowdown";
    ]

let spans traces =
  List.concat_map
    (fun t ->
      List.filter_map
        (function
          | Span.Complete { name; ts_ns; dur_ns; depth; attrs } ->
              Some (Trace.label t, name, ts_ns, dur_ns, depth, attrs)
          | Span.Instant _ -> None)
        (Trace.events t))
    traces
  |> Array.of_list

(* Self time per span: sort by start (longest first on ties) and walk
   with a stack of open ancestors; each span charges its duration to the
   innermost span that contains it. *)
let self_times spans =
  let n = Array.length spans in
  let order = Array.init n Fun.id in
  let start i = let _, _, ts, _, _, _ = spans.(i) in ts in
  let stop i = let _, _, ts, dur, _, _ = spans.(i) in Int64.add ts dur in
  Array.sort
    (fun i j ->
      match Int64.compare (start i) (start j) with
      | 0 -> Int64.compare (stop j) (stop i)
      | c -> c)
    order;
  let children = Array.make n 0L in
  let stack = ref [] in
  Array.iter
    (fun i ->
      let rec unwind () =
        match !stack with
        | top :: rest when Int64.compare (stop top) (stop i) < 0 ->
            stack := rest;
            unwind ()
        | _ -> ()
      in
      unwind ();
      (match !stack with
      | parent :: _ ->
          let _, _, _, dur, _, _ = spans.(i) in
          children.(parent) <- Int64.add children.(parent) dur
      | [] -> ());
      stack := i :: !stack)
    order;
  Array.mapi
    (fun i (_, _, _, dur, _, _) -> Clock.ns_to_s (Int64.sub dur children.(i)))
    spans

let label_task label =
  match String.index_opt label '/' with
  | Some i ->
      Some
        (task_metric (String.sub label 0 i)
           (String.sub label (i + 1) (String.length label - i - 1)))
  | None -> None

let ratio num den = if den > 0.0 then num /. den else 0.0

(* Linear interpolation between the closest ranks; 0 when empty. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* Per-layer metrics derived from the traces of one traced unit whose
   wall time was [wall_s]. *)
let of_traces ~formal ~wall_s traces =
  let tbl = Hashtbl.create 64 in
  let add k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  let spans = spans traces in
  let self = self_times spans in
  Array.iteri
    (fun i (label, name, _, dur, depth, attrs) ->
      (match span_metric ~formal name with
      | Some k ->
          add k self.(i);
          if k <> "trace.unmapped_s" then add "trace.coverage" (self.(i) /. wall_s)
      | None -> ());
      let minor_mw () =
        match List.assoc_opt "gc.minor_words" attrs with
        | Some (Span.Float w) -> w /. 1e6
        | _ -> 0.0
      in
      (match name with
      | "map" | "compact" -> add "mapper.minor_mw" (minor_mw ())
      | "verify:techmap" | "verify:compact" | "verify:buffer" ->
          add "equiv.minor_mw" (minor_mw ())
      | _ -> ());
      (* A task's time is its root spans' time. *)
      if depth = 0 then
        match label_task label with
        | Some k when List.mem k task_metrics -> add k (Clock.ns_to_s dur)
        | _ -> ())
    spans;
  let counter name =
    List.fold_left
      (fun acc t ->
        acc +. Option.value ~default:0.0 (List.assoc_opt name (Trace.counters t)))
      0.0 traces
  in
  let samples name =
    List.concat_map
      (fun t ->
        match List.find_opt (fun (n, _, _) -> n = name) (Trace.series t) with
        | Some (_, s, _) -> List.map snd (Array.to_list s)
        | None -> [])
      traces
  in
  List.iter
    (fun (k, c) -> add k (counter c))
    [
      ("mapper.cuts_enumerated", "cuts.enumerated");
      ("sat.solves", "sat.solves");
      ("sat.conflicts", "sat.conflicts");
      ("sat.propagations", "sat.propagations");
      ("place.anneal_moves", "anneal.moves");
      ("pack.fits_calls", "pack.fits_calls");
      ("route.ripup_iterations", "route.ripup_iterations");
      ("route.nets", "route.nets");
      ("route.overflow", "route.overflow");
      ("minchan.probes", "minchan.probes");
      ("cache.hits", "cache.hits");
      ("cache.misses", "cache.misses");
      ("cache.bytes", "cache.bytes");
    ];
  let sum name = List.fold_left ( +. ) 0.0 (samples name) in
  let refine_moves = counter "refine.region_moves" +. counter "refine.boundary_moves" in
  add "pack.refine_moves" refine_moves;
  (* accepted moves are series: one sample per region walk *)
  add "pack.refine_accept_ratio"
    (ratio (sum "refine.region_accepted" +. sum "refine.boundary_accepted") refine_moves);
  add "place.anneal_accept_ratio" (ratio (counter "anneal.accepted") (counter "anneal.moves"));
  add "pack.fits_hit_ratio" (ratio (counter "pack.fits_cache_hits") (counter "pack.fits_calls"));
  add "cache.hit_ratio"
    (ratio (counter "cache.hits") (counter "cache.hits" +. counter "cache.misses"));
  add "sat.conflicts_per_solve_p50" (percentile 50.0 (samples "sat.conflicts_per_solve"));
  add "minchan.probe_ok_ratio"
    (ratio (sum "minchan.probe_ok") (float_of_int (List.length (samples "minchan.probe_ok"))));
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
