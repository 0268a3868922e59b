(* The benchmark command (built and driven by run.py):

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload from this single process at jobs=1 and prints, last,
   one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones, measured with tracing
   off; with --trace 1 the per-layer ones, from a traced run.  Before it
   come one "problem: ..." line per failed operation or check and a
   "manifest {...}" line with the run's settings. *)

module Json = Vpga_obs.Json
module W = Perfbench.Workload

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match W.find !workload with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload '" ^ !workload ^ "'; one of: "
          ^ String.concat ", " (List.map (fun w -> w.W.name) W.all));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace expects 0 or 1"; exit 2);
  let r =
    if !trace = 1 then W.measure_layers w W.Full ~seed:!seed
    else W.measure_end_to_end w W.Full ~seed:!seed ~seconds:!seconds
  in
  List.iter (fun p -> print_endline ("problem: " ^ p)) r.problems;
  let floats fmt l = String.concat " " (List.map (Printf.sprintf fmt) l) in
  print_endline ("unit walls (s): " ^ floats "%.3f" r.unit_walls);
  if r.unit_slowdowns <> [] then
    print_endline ("host slowdown per unit: " ^ floats "%.3f" r.unit_slowdowns);
  let str s = Json.Str s and num n = Json.Num n in
  print_endline
    ("manifest "
    ^ Json.to_string
        (Json.Obj
           [
             ("workload", str w.name);
             ("seed", num (float_of_int !seed));
             ("seconds", num !seconds);
             ("trace", num (float_of_int !trace));
             ("jobs", num 1.0);
             ("cache", str (if w.cached then "memory" else "none"));
             ( "verify",
               str
                 (match w.verify with
                 | Vpga_flow.Flow.Off -> "off"
                 | Fast -> "fast"
                 | Formal -> "formal") );
             ( "scale",
               str (match w.scale with Vpga_flow.Experiments.Test -> "test" | Paper -> "paper") );
             ("ocaml_version", str Sys.ocaml_version);
           ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (r.problems = []));
            ("attempted", num (float_of_int r.attempted));
            ("failed", num (float_of_int r.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun ((d : Perfbench.Layers.metric), v) ->
                     (d.name, Json.Obj [ ("value", num v); ("unit", str d.unit) ]))
                   r.metrics) );
          ]))
