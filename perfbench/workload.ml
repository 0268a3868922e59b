(* The benchmark's workloads, their output checks, and the measurement of
   one run.  All timing is taken here, around calls to the library's public
   entry points ([Experiments.run_tasks], [Minchan.search], [Flow.run]);
   the per-layer numbers come from the traces those calls return
   ({!Layers}).  Every workload is a closed loop with one caller at jobs=1,
   so no worker domain is spawned. *)

open Vpga_flow
module Arch = Vpga_plb.Arch
module Trace = Vpga_obs.Trace
module Clock = Vpga_obs.Clock
module Cache = Vpga_cache.Cache
module Log = Vpga_resil.Log
module Fail = Vpga_resil.Fail
module Defect = Vpga_resil.Defect

(* Flow.run's and Minchan.search's default target period. *)
let period_ps = 500.0
let archs = [ Arch.lut_plb; Arch.granular_plb ]

(* QoR of one unit of work.  On the flows, summed over every outcome
   except [crit_delay], the mean of period - top-10 slack.  On the stress
   points, means over the points that survived at W_min ([crit_delay]:
   period - WNS), so that losing a point cannot make a sum look better. *)
type qor = {
  die_area : float;
  wirelength : float;
  vias : float;
  crit_delay : float;
  survival : float;  (** share of operations that delivered a routed result *)
  power : float;
  w_min : float;
}

(* What one unit of work produced, before the harness adds its timing. *)
type outcome = {
  attempted : int;
  problems : string list;  (** one per failed operation or failed check *)
  qor : qor;
  recovery : Log.summary;
  hits : bool list;  (** cached_requests: per timed call, a repeat request? *)
  traces : Trace.t list;
}

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let qor_of_pairs ~survival pairs =
  let outs = List.concat_map (fun p -> [ p.Flow.a; p.Flow.b ]) pairs in
  let sum f = List.fold_left (fun acc o -> acc +. f o) 0.0 outs in
  {
    die_area = sum (fun o -> o.Flow.die_area);
    wirelength = sum (fun o -> o.Flow.wirelength);
    vias = sum (fun o -> float_of_int o.Flow.routed_vias);
    crit_delay = mean (List.map (fun o -> period_ps -. o.Flow.avg_top10_slack) outs);
    survival;
    power = sum (fun o -> o.Flow.power_uw);
    w_min = 0.0;
  }

let seconds_since t0 = Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t0)

(* The timed calls of one unit of work, and the reference kernel's
   samples between them ({!Reference}). *)
type meter = {
  bench : Trace.t;
  pace : bool;  (** sample the reference kernel between calls *)
  mutable ops : float list;  (** ms, newest first *)
  mutable refs : float list;  (** reference ms, newest first *)
  mutable last_ref : int64;
}

let meter ?(pace = false) bench = { bench; pace; ops = []; refs = []; last_ref = 0L }

(* The kernel runs about once per half second of the run, about 2% of
   its time.  A call cannot be interrupted, so before each call the kernel
   runs once for every half second since its last samples (a sweep's call
   takes seconds; a request, milliseconds). *)
let ref_interval_s = 0.5
let max_samples_per_call = 20

(* Run [f] as one operation: timed, and inside a [bench:<name>] span so
   the stage spans it returns nest under it in a traced run. *)
let timed m name f =
  if m.pace then begin
    let due =
      if m.refs = [] then 1
      else min max_samples_per_call (int_of_float (seconds_since m.last_ref /. ref_interval_s))
    in
    if due > 0 then begin
      (* the call before has evicted the kernel's tables: warm them *)
      ignore (Reference.sample ());
      for _ = 1 to due do
        m.refs <- Reference.sample () :: m.refs
      done;
      m.last_ref <- Clock.now_ns ()
    end
  end;
  let t0 = Clock.now_ns () in
  let r = Trace.with_span m.bench ("bench:" ^ name) f in
  m.ops <- (1000.0 *. seconds_since t0) :: m.ops;
  r

(* How much slower than nominal the host ran the kernel: the median
   sample over its nominal time, 1 at the reference pace. *)
let slowdown refs = Layers.percentile 50.0 refs /. Reference.nominal_ms

let share ok n = if n = 0 then 0.0 else float_of_int ok /. float_of_int n

let failure_problem f = "stage failure: " ^ Fail.to_string f

(* ---- checks (pure, so the tests can feed them bad inputs) ---- *)

(* The paper-stated verdicts of Section 3.2 that this substrate
   reproduces. *)
let check_headlines (h : Experiments.headline) =
  List.filter_map
    (fun (ok, what) -> if ok then None else Some ("headline: " ^ what))
    [
      (h.datapath_area_reduction > 0.0, "no datapath die-area reduction");
      (h.packing_overhead_reduction > 0.0, "no packing-overhead reduction");
      (h.firewire_reversal, "no Firewire area reversal");
      (h.slack_improvement > 0.0, "no top-10 slack improvement");
    ]

let check_not_degraded (s : Log.summary) =
  if s.degraded = 0 then []
  else [ Printf.sprintf "formal: %d degraded proof(s)" s.degraded ]

(* A repeat request must replay the job's first outcome exactly. *)
let check_repeat ~job ~(first : Flow.pair) (again : Flow.pair) =
  if compare first again = 0 then []
  else [ Printf.sprintf "request %s: repeat differs from its first outcome" job ]

(* [(design, arch, rate, w_min)] per stress point: per (design, arch) the
   mean W_min over surviving maps never falls as the defect rate rises. *)
let check_w_min_monotone points =
  let keys = List.sort_uniq compare (List.map (fun (d, a, _, _) -> (d, a)) points) in
  List.concat_map
    (fun (d, a) ->
      let means =
        List.sort_uniq compare
          (List.filter_map
             (fun (d', a', r, _) -> if (d', a') = (d, a) then Some r else None)
             points)
        |> List.filter_map (fun r ->
               match
                 List.filter_map
                   (fun (d', a', r', w) ->
                     if (d', a', r') = (d, a, r) then w else None)
                   points
               with
               | [] -> None
               | ws -> Some (r, mean (List.map float_of_int ws)))
      in
      let rec falls = function
        | (r1, w1) :: ((r2, w2) :: _ as rest) ->
            if w2 < w1 then
              [ Printf.sprintf "minchan %s/%s: mean W_min falls from %g at rate %g to %g at rate %g"
                  d a w1 r1 w2 r2 ]
            else falls rest
        | _ -> []
      in
      falls means)
    keys

(* ---- workloads ---- *)

type size = Full | Small
(** [Small] shrinks each workload to a 2-bit ALU and a short stream, for
    the benchmark's own tests. *)

type t = {
  name : string;
  scale : Experiments.scale;
  verify : Flow.verify;
  cached : bool;
  keep : string -> bool;  (** which of the scale's designs to run *)
  body :
    size ->
    (string * Vpga_netlist.Netlist.t) list ->
    seed:int ->
    meter:meter ->
    traced:bool ->
    outcome;
}

(* One [run_tasks] call per design: the operation is one design's Table
   1-2 row (both PLBs through both flows); [attempted] counts tasks. *)
let sweep ~scale ~verify ~check designs ~seed ~meter ~traced =
  let reports =
    List.concat_map
      (fun d ->
        timed meter "sweep" (fun () ->
            Experiments.run_tasks ~seed ~jobs:1 ~verify ~traced ~designs:[ d ] scale))
      designs
  in
  let pairs = List.filter_map (fun r -> Result.to_option r.Experiments.t_result) reports in
  let failures =
    List.filter_map
      (fun r ->
        match r.Experiments.t_result with
        | Ok _ -> None
        | Error f -> Some (failure_problem f))
      reports
  in
  let recovery = Experiments.recovery reports in
  {
    attempted = List.length reports;
    problems = failures @ (if failures = [] then check reports recovery else []);
    qor = qor_of_pairs ~survival:(share (List.length pairs) (List.length reports)) pairs;
    recovery;
    hits = [];
    traces = List.map (fun r -> r.Experiments.t_trace) reports;
  }

let sweep_workload ~name ~scale ~verify ~check =
  {
    name;
    scale;
    verify;
    cached = false;
    keep = (fun _ -> true);
    body = (fun size -> sweep ~scale ~verify ~check:(check size));
  }

let paper_sweep =
  sweep_workload ~name:"paper_sweep" ~scale:Experiments.Paper ~verify:Flow.Fast
    ~check:(fun size reports _ ->
      (* the verdicts compare designs, so they need all four *)
      if size = Small then []
      else check_headlines (Experiments.headlines (Experiments.rows reports)))

let formal_sweep =
  sweep_workload ~name:"formal_sweep" ~scale:Experiments.Test ~verify:Flow.Formal
    ~check:(fun _ _ recovery -> check_not_degraded recovery)

let stress_rates = [ 0.0; 0.02 ]

let minchan_stress =
  {
    name = "minchan_stress";
    scale = Experiments.Test;
    verify = Flow.Off;
    cached = false;
    keep = (fun d -> d = "ALU" || d = "Firewire");
    body =
      (fun size designs ~seed ~meter ~traced ->
        (* [Minchan.stress]'s points at jobs=1, one [search] call each so
           each point is timed: the defect-free rate runs one map, every
           other rate [maps]. *)
        let maps = if size = Small then 1 else 3 in
        let points =
          List.concat_map
            (fun (name, nl) ->
              List.concat_map
                (fun arch ->
                  List.concat_map
                    (fun rate ->
                      List.init
                        (if rate <= 0.0 then 1 else maps)
                        (fun k -> (name, nl, arch, rate, k)))
                    stress_rates)
                archs)
            designs
        in
        let runs =
          List.map
            (fun (name, nl, arch, rate, k) ->
              let defect =
                Defect.at_rate ~seed:(Minchan.map_seed ~seed name arch rate k) rate
              in
              let log = Log.create () in
              let trace =
                if traced then Trace.create ~label:(name ^ "/" ^ arch.Arch.name) ()
                else Trace.null
              in
              let r =
                timed meter "search" (fun () ->
                    try
                      Ok
                        (Minchan.search
                           ~seed:(Experiments.task_seed ~seed name arch)
                           ~period:period_ps ~log ~trace ~defect arch nl)
                    with Fail.Stage_failure f -> Error f)
              in
              ((name, arch.Arch.name, rate), r, Log.summary log, trace))
            points
        in
        let survivors =
          List.filter_map
            (fun (_, r, _, _) ->
              match r with
              | Ok ({ Minchan.w_min = Some w; metrics = Some m; _ } as s) -> Some (w, m, s)
              | _ -> None)
            runs
        in
        let avg f = mean (List.map f survivors) in
        let failures =
          List.filter_map
            (fun (_, r, _, _) ->
              match r with Error f -> Some (failure_problem f) | Ok _ -> None)
            runs
        in
        {
          attempted = List.length runs;
          problems =
            failures
            @ check_w_min_monotone
                (List.filter_map
                   (fun ((d, a, rate), r, _, _) ->
                     match r with
                     | Ok s -> Some (d, a, rate, s.Minchan.w_min)
                     | Error _ -> None)
                   runs);
          qor =
            {
              die_area = avg (fun (_, _, s) -> s.Minchan.array_area);
              wirelength = avg (fun (_, m, _) -> m.Minchan.wirelength);
              vias = avg (fun (_, m, _) -> float_of_int m.Minchan.vias);
              crit_delay = avg (fun (_, m, _) -> period_ps -. m.Minchan.wns);
              survival = share (List.length survivors) (List.length runs);
              power = 0.0;
              w_min = avg (fun (w, _, _) -> float_of_int w);
            };
          recovery =
            List.fold_left (fun acc (_, _, s, _) -> Log.add acc s) Log.zero runs;
          hits = [];
          traces = List.map (fun (_, _, _, t) -> t) runs;
        });
  }

let cached_requests =
  {
    name = "cached_requests";
    scale = Experiments.Test;
    verify = Flow.Fast;
    cached = true;
    keep = (fun _ -> true);
    body =
      (fun size designs ~seed ~meter ~traced ->
        (* 24 jobs (design x arch x 3 flow seeds) behind one cache that
           starts empty: each job's first request misses (about 2% of the
           stream), every repeat is served from the cache.  1200 requests
           leave 12 samples beyond p99, which lands in the misses. *)
        let requests = if size = Small then 12 else 1200 in
        let jobs =
          Array.of_list
            (List.concat_map
               (fun (name, nl) ->
                 List.concat_map
                   (fun arch -> List.init 3 (fun k -> (name, nl, arch, (seed * 3) + k)))
                   archs)
               designs)
        in
        let rng = Random.State.make [| seed |] in
        let cache = Cache.create () in
        let first = Hashtbl.create 32 in
        let problems = ref [] and ok = ref 0 in
        let hits = ref [] in
        let recovery = ref Log.zero and traces = ref [] in
        for _ = 1 to requests do
          let i = Random.State.int rng (Array.length jobs) in
          let name, nl, arch, fseed = jobs.(i) in
          let log = Log.create () in
          let trace =
            if traced then Trace.create ~label:(name ^ "/" ^ arch.Arch.name) ()
            else Trace.null
          in
          let r =
            timed meter "request" (fun () ->
                try
                  Ok
                    (Flow.run ~seed:fseed ~period:period_ps ~log ~trace
                       ~trace_labels:false ~cache arch nl)
                with Fail.Stage_failure f -> Error f)
          in
          hits := Hashtbl.mem first i :: !hits;
          recovery := Log.add !recovery (Log.summary log);
          traces := trace :: !traces;
          match (r, Hashtbl.find_opt first i) with
          | Error f, _ -> problems := failure_problem f :: !problems
          | Ok p, None ->
              incr ok;
              Hashtbl.add first i p
          | Ok p, Some p0 ->
              incr ok;
              let job = Printf.sprintf "%s/%s#%d" name arch.Arch.name fseed in
              problems := check_repeat ~job ~first:p0 p @ !problems
        done;
        let pairs =
          List.filter_map (Hashtbl.find_opt first) (List.init (Array.length jobs) Fun.id)
        in
        {
          attempted = requests;
          problems = List.rev !problems;
          qor = qor_of_pairs ~survival:(share !ok requests) pairs;
          recovery = !recovery;
          hits = List.rev !hits;
          traces = !traces;
        });
  }

let all = [ paper_sweep; formal_sweep; minchan_stress; cached_requests ]
let find name = List.find_opt (fun w -> w.name = name) all

(* ---- measurement ---- *)

let end_to_end =
  Layers.
    [
      m "s" "setup_s";
      m "s" "wall_s";
      m "MB" "peak_rss_mb";
      m "um2" "die_area_um2";
      m "um" "wirelength_um";
      m "count" "vias";
      m "ps" "crit_delay_ps";
      m "ratio" "survival_rate";
    ]

let percentile = Layers.percentile
let median xs = percentile 50.0 xs

(* Set-up: design generation, library characterization and the shared
   feasibility tables, i.e. everything before the first timed call. *)
let setup w size =
  let designs =
    match size with
    | Small -> [ ("ALU", Vpga_designs.Alu.build ~width:2 ()) ]
    | Full -> List.filter (fun (d, _) -> w.keep d) (Experiments.designs w.scale)
  in
  ignore (List.map Vpga_cells.Characterize.characterize Vpga_cells.Characterize.templates);
  Vpga_plb.Config.prewarm ();
  designs

type unit_run = {
  out : outcome;
  ops : float list;  (** ms per timed call, in order *)
  refs : float list;  (** reference kernel ms, when paced *)
  wall_s : float;
  minor_words : float;
  major_collections : int;
}

(* Every unit starts from a compacted heap, so repeats see the same heap. *)
let run_unit ?(pace = false) w size designs ~seed ~traced =
  Gc.compact ();
  let meter = meter ~pace (if traced then Trace.create ~label:"bench" () else Trace.null) in
  let g0 = Gc.quick_stat () in
  let t0 = Clock.now_ns () in
  let out = w.body size designs ~seed ~meter ~traced in
  let wall_s = seconds_since t0 in
  let g1 = Gc.quick_stat () in
  {
    out = { out with traces = meter.bench :: out.traces };
    ops = List.rev meter.ops;
    refs = meter.refs;
    wall_s;
    minor_words = g1.minor_words -. g0.minor_words;
    major_collections = g1.major_collections - g0.major_collections;
  }

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
      List.find_map
        (fun line ->
          Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
        (String.split_on_char '\n' status)
      |> Option.get
  | exception Sys_error _ ->
      float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

type result = {
  unit_walls : float list;  (** seconds per unit of work, in order *)
  unit_slowdowns : float list;  (** {!slowdown} per unit; [] when not paced *)
  attempted : int;
  failed : int;
  problems : string list;
  metrics : (Layers.metric * float) list;
}

(* Set-ups before each unit of work; they take milliseconds, so spreading
   them over the run keeps one noisy moment from setting the median. *)
let setups_per_unit = 20

let tally units extra =
  let attempted = List.fold_left (fun acc u -> acc + u.out.attempted) 0 units in
  let problems = List.concat_map (fun u -> u.out.problems) units @ extra in
  (attempted, min attempted (List.length problems), problems)

let with_units defs values =
  List.map
    (fun (d : Layers.metric) ->
      (d, Option.value ~default:0.0 (List.assoc_opt d.name values)))
    defs

(* One run with tracing off: repeat the workload's unit of work, each
   after [setups_per_unit] set-ups, while another unit as long as the last
   still fits in [seconds] (at least once).  Short noise only ever slows
   work down, so each timed call counts at its fastest repeat (a unit
   replays the same calls in the same order).  A phase of the host
   outlasts a run, so the times are then scaled to the reference pace by
   the run's {!slowdown}, over all the kernel samples spread through it:
   [wall_s] is the sum of the fastest repeats, [setup_s] the median
   set-up, both at that pace. *)
let measure_end_to_end w size ~seed ~seconds =
  let designs = setup w size in
  let t0 = Clock.now_ns () in
  let rec loop setups refs units =
    let m = meter ~pace:true Trace.null in
    Gc.compact ();
    for _ = 1 to setups_per_unit do
      ignore (timed m "setup" (fun () -> setup w size))
    done;
    let u = run_unit ~pace:true w size designs ~seed ~traced:false in
    let setups = m.ops @ setups and refs = u.refs @ m.refs @ refs in
    if seconds_since t0 +. u.wall_s <= seconds then loop setups refs (u :: units)
    else (setups, refs, List.rev (u :: units))
  in
  let setups, refs, units = loop [] [] [] in
  let pace = slowdown refs in
  let q = (List.hd units).out.qor in
  let unstable =
    if List.for_all (fun u -> u.out.qor = q) units then []
    else [ "QoR differs between repeats of one unit at one seed" ]
  in
  let attempted, failed, problems = tally units unstable in
  let fastest =
    List.fold_left (List.map2 Float.min) (List.hd units).ops
      (List.map (fun u -> u.ops) (List.tl units))
  in
  {
    unit_walls = List.map (fun u -> u.wall_s) units;
    unit_slowdowns = List.map (fun u -> slowdown u.refs) units;
    attempted;
    failed;
    problems;
    metrics =
      with_units end_to_end
        [
          ("setup_s", median setups /. 1000.0 /. pace);
          ("wall_s", List.fold_left ( +. ) 0.0 fastest /. 1000.0 /. pace);
          ("peak_rss_mb", peak_rss_mb ());
          ("die_area_um2", q.die_area);
          ("wirelength_um", q.wirelength);
          ("vias", q.vias);
          ("crit_delay_ps", q.crit_delay);
          ("survival_rate", q.survival);
        ];
  }

(* The traced run: one unit with tracing off, then the same unit with its
   traces on.  Self times and counters come from the traced unit; the
   quantities measured outside the traces (request latencies, recovery,
   allocation) come from the untraced one. *)
let measure_layers w size ~seed =
  let designs = setup w size in
  let host = List.init 5 (fun _ -> Reference.sample ()) in
  let u = run_unit w size designs ~seed ~traced:false in
  let t = run_unit w size designs ~seed ~traced:true in
  let attempted, failed, problems =
    tally [ u; t ] (if u.out.qor = t.out.qor then [] else [ "tracing changed the QoR" ])
  in
  let r = u.out.recovery in
  let requests hit =
    List.filter_map
      (fun (ms, h) -> if h = hit then Some ms else None)
      (if u.out.hits = [] then [] else List.combine u.ops u.out.hits)
  in
  {
    unit_walls = [ u.wall_s; t.wall_s ];
    unit_slowdowns = [];
    attempted;
    failed;
    problems;
    metrics =
      with_units Layers.per_layer
        (Layers.of_traces ~formal:(w.verify = Flow.Formal) ~wall_s:t.wall_s t.out.traces
        @ [
            ("route.w_min", u.out.qor.w_min);
            ("timing.power_uw", u.out.qor.power);
            ("request.p50_ms", median u.ops);
            ("request.p99_ms", percentile 99.0 u.ops);
            ("request.hit_p50_ms", median (requests true));
            ("request.miss_p50_ms", median (requests false));
            ("request.samples", float_of_int (List.length u.ops));
            ("resil.retries", float_of_int r.retries);
            ("resil.escalations", float_of_int r.escalations);
            ("resil.degraded", float_of_int r.degraded);
            ("gc.minor_mw", u.minor_words /. 1e6);
            ("gc.major_collections", float_of_int u.major_collections);
            ("trace.overhead_s", t.wall_s -. u.wall_s);
            ("host.slowdown", slowdown host);
          ]);
  }
