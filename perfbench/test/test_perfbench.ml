(* The benchmark's own tests: metric definitions agree with BENCHMARK.json
   and are well-formed, every workload emits every metric it defines (run
   here shrunk to [Small]), the deterministic metrics repeat exactly, and
   each output check fires on a seeded bad input. *)

open Vpga_flow
module W = Perfbench.Workload
module L = Perfbench.Layers
module Json = Vpga_obs.Json
module Log = Vpga_resil.Log
module Netlist = Vpga_netlist.Netlist

let names ms = List.map (fun (d : L.metric) -> d.name) ms

(* ---- definitions ---- *)

let valid_name s =
  let ok c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64 && String.for_all ok s && s.[0] <> '_' && s.[0] <> '.' && s.[0] <> '-'

let valid_unit s =
  let ok c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 16 && String.for_all ok s

let benchmark_json () =
  match Json.parse (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all) with
  | Ok j -> j
  | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)

let json_metrics key =
  match Json.member key (benchmark_json ()) with
  | Some (Json.Arr l) ->
      List.map
        (fun o ->
          let field k = Option.bind (Json.member k o) Json.to_str |> Option.get in
          (field "name", field "unit"))
        l
  | _ -> Alcotest.fail ("BENCHMARK.json: no " ^ key)

let json_workloads () =
  match Json.member "workloads" (benchmark_json ()) with
  | Some (Json.Arr l) ->
      List.map (fun o -> Option.get (Option.bind (Json.member "name" o) Json.to_str)) l
  | _ -> Alcotest.fail "BENCHMARK.json: no workloads"

let test_names_valid () =
  let all = W.end_to_end @ L.per_layer in
  List.iter
    (fun (d : L.metric) ->
      Alcotest.(check bool) (d.name ^ " is a valid name") true (valid_name d.name);
      Alcotest.(check bool) (d.unit ^ " is a valid unit") true (valid_unit d.unit))
    all;
  Alcotest.(check int) "names are unique"
    (List.length all)
    (List.length (List.sort_uniq compare (names all)));
  let pairs ms = List.map (fun (d : L.metric) -> (d.name, d.unit)) ms in
  Alcotest.(check (list (pair string string)))
    "BENCHMARK.json end_to_end" (pairs W.end_to_end) (json_metrics "end_to_end");
  Alcotest.(check (list (pair string string)))
    "BENCHMARK.json per_layer" (pairs L.per_layer) (json_metrics "per_layer");
  Alcotest.(check (list string)) "BENCHMARK.json workloads"
    (List.map (fun w -> w.W.name) W.all)
    (json_workloads ());
  Alcotest.(check (list string)) "a task metric per paper (design, arch)"
    (List.concat_map
       (fun (d, _) ->
         List.map (fun a -> L.task_metric d a.Vpga_plb.Arch.name) W.archs)
       (Experiments.designs Experiments.Test))
    L.task_metrics

(* ---- each workload, shrunk ---- *)

(* [test_perfbench.exe --child WORKLOAD] measures the shrunk workload in a
   fresh process, end to end and then traced, and prints the problems and
   both metric sets.  Two children at one seed repeat the way two runs of
   the benchmark do (a process's global tables start cold in both). *)
let child name =
  let w = Option.get (W.find name) in
  let e = W.measure_end_to_end w W.Small ~seed:3 ~seconds:0.0 in
  let l = W.measure_layers w W.Small ~seed:3 in
  let metrics (r : W.result) =
    Json.Obj (List.map (fun ((d : L.metric), v) -> (d.name, Json.Num v)) r.metrics)
  in
  print_string
    (Json.to_string
       (Json.Obj
          [
            ("problems", Json.Arr (List.map (fun p -> Json.Str p) (e.problems @ l.problems)));
            ("end_to_end", metrics e);
            ("per_layer", metrics l);
          ]))

let run_child name =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "--child"; name |] in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail ("child run of " ^ name ^ " failed"));
  let j = match Json.parse out with Ok j -> j | Error e -> Alcotest.fail e in
  let block k =
    match Json.member k j with
    | Some (Json.Obj kvs) -> List.map (fun (k, v) -> (k, Option.get (Json.to_float v))) kvs
    | _ -> Alcotest.fail ("child output has no " ^ k)
  in
  let problems =
    match Json.member "problems" j with
    | Some (Json.Arr ps) -> List.filter_map Json.to_str ps
    | _ -> []
  in
  (problems, block "end_to_end", block "per_layer")

(* Metrics that repeat at a fixed seed: QoR, work counters and their
   ratios exactly; allocation words to 1e-4 (a few words in a million move
   between processes, as span-duration histograms grow with the measured
   times).  The two ratios of times do not. *)
let with_unit units =
  List.filter_map
    (fun (d : L.metric) ->
      if List.mem d.unit units && not (List.mem d.name [ "trace.coverage"; "host.slowdown" ])
      then Some d.name
      else None)
    (W.end_to_end @ L.per_layer)

let exact = with_unit [ "count"; "ratio"; "bytes"; "tracks"; "uW"; "um2"; "um"; "ps" ]
let allocation = with_unit [ "Mw" ]

let test_workload w () =
  let p1, e1, l1 = run_child w.W.name in
  let _, e2, l2 = run_child w.W.name in
  Alcotest.(check (list string)) "no problems" [] p1;
  Alcotest.(check (list string)) "every end-to-end metric" (names W.end_to_end) (List.map fst e1);
  Alcotest.(check (list string)) "every per-layer metric" (names L.per_layer) (List.map fst l1);
  List.iter
    (fun (k, v) ->
      Alcotest.(check bool) (k ^ " is finite and non-zero") true (Float.is_finite v && v <> 0.0))
    e1;
  List.iter
    (fun (k, v) -> Alcotest.(check bool) (k ^ " is finite") true (Float.is_finite v))
    l1;
  Alcotest.(check (float 0.0)) "every span maps to a layer" 0.0 (List.assoc "trace.unmapped_s" l1);
  let only ks l = List.filter (fun (k, _) -> List.mem k ks) l in
  Alcotest.(check (list (pair string (float 0.0))))
    "QoR and counters repeat exactly" (only exact (e1 @ l1)) (only exact (e2 @ l2));
  List.iter2
    (fun (k, a) (_, b) ->
      Alcotest.(check (float (1e-4 *. Float.abs a))) (k ^ " repeats") a b)
    (only allocation l1) (only allocation l2)

(* ---- checks fire on bad inputs ---- *)

let good_headline =
  {
    Experiments.datapath_area_reduction = 0.3;
    fpu_area_reduction = 0.3;
    packing_overhead_reduction = 0.2;
    firewire_reversal = true;
    slack_improvement = 0.3;
    degradation_reduction = 0.1;
    displacement_reduction = 0.0;
  }

let test_check_headlines () =
  let h = good_headline in
  Alcotest.(check int) "good verdicts pass" 0 (List.length (W.check_headlines h));
  List.iter
    (fun (what, bad) ->
      Alcotest.(check int) (what ^ " fires") 1 (List.length (W.check_headlines bad)))
    [
      ("area reduction", { h with datapath_area_reduction = -0.01 });
      ("packing overhead", { h with packing_overhead_reduction = 0.0 });
      ("firewire reversal", { h with firewire_reversal = false });
      ("slack", { h with slack_improvement = -0.2 });
    ]

let test_check_repeat () =
  let p = Flow.run ~seed:5 Vpga_plb.Arch.lut_plb (Vpga_designs.Alu.build ~width:2 ()) in
  Alcotest.(check int) "identical repeat passes" 0
    (List.length (W.check_repeat ~job:"alu" ~first:p p));
  let mutated = { p with Flow.b = { p.Flow.b with Flow.routed_vias = p.Flow.b.Flow.routed_vias + 1 } } in
  Alcotest.(check int) "mutated cached outcome fires" 1
    (List.length (W.check_repeat ~job:"alu" ~first:p mutated))

let test_check_degraded () =
  Alcotest.(check int) "no degradation passes" 0 (List.length (W.check_not_degraded Log.zero));
  Alcotest.(check int) "a degraded proof fires" 1
    (List.length (W.check_not_degraded { Log.zero with Log.degraded = 1 }))

let test_check_w_min () =
  let pts ws = List.map (fun (r, w) -> ("ALU", "lut_plb", r, w)) ws in
  Alcotest.(check int) "rising W_min passes" 0
    (List.length (W.check_w_min_monotone (pts [ (0.0, Some 12); (0.05, Some 18); (0.05, Some 20) ])));
  Alcotest.(check int) "falling mean W_min fires" 1
    (List.length (W.check_w_min_monotone (pts [ (0.0, Some 12); (0.05, Some 10); (0.05, Some 13) ])));
  Alcotest.(check int) "non-survivors are left out of the mean" 0
    (List.length (W.check_w_min_monotone (pts [ (0.0, Some 12); (0.05, None); (0.05, Some 14) ])))

let test_stage_failure_counts () =
  (* An undriven flop on a primary output fails the input gate: each of
     the design's two tasks is one failed operation. *)
  let bad = Vpga_designs.Alu.build ~width:2 () in
  ignore (Netlist.output bad "bad_q" (Netlist.dff bad));
  let out =
    W.formal_sweep.body W.Small [ ("ALU", bad) ] ~seed:1
      ~meter:(W.meter Vpga_obs.Trace.null)
      ~traced:false
  in
  Alcotest.(check int) "attempted" 2 out.attempted;
  Alcotest.(check int) "failed operations" 2 (List.length out.problems);
  Alcotest.(check (float 0.0)) "nothing survived" 0.0 out.qor.survival

let () =
  if Array.length Sys.argv = 3 && Sys.argv.(1) = "--child" then child Sys.argv.(2)
  else
  Alcotest.run "perfbench"
    [
      ("definitions", [ Alcotest.test_case "metric names valid" `Quick test_names_valid ]);
      ( "checks",
        [
          Alcotest.test_case "headline verdicts" `Quick test_check_headlines;
          Alcotest.test_case "cached repeat" `Quick test_check_repeat;
          Alcotest.test_case "formal degradation" `Quick test_check_degraded;
          Alcotest.test_case "W_min monotone" `Quick test_check_w_min;
          Alcotest.test_case "stage failure is a failed operation" `Quick
            test_stage_failure_counts;
        ] );
      ( "workloads",
        List.map (fun w -> Alcotest.test_case w.W.name `Slow (test_workload w)) W.all );
    ]
