(* Tests for the cell library, logical-effort characterization and the
   power model. *)

module Cell = Vpga_cells.Cell
module Characterize = Vpga_cells.Characterize
module Library = Vpga_cells.Library
module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind
module Config = Vpga_plb.Config
module Power = Vpga_timing.Power
module Sta = Vpga_timing.Sta

let test_templates_characterize () =
  List.iter
    (fun t ->
      let c = Characterize.characterize t in
      Alcotest.(check string) "name preserved" t.Characterize.t_name c.Cell.name;
      Alcotest.(check bool) "positive area" true (c.Cell.area > 0.0);
      Alcotest.(check bool) "positive cap" true (c.Cell.input_cap > 0.0);
      Alcotest.(check bool) "positive intrinsic" true (c.Cell.intrinsic > 0.0);
      Alcotest.(check bool) "positive resistance" true (c.Cell.resistance > 0.0))
    Characterize.templates

let test_find () =
  List.iter
    (fun name ->
      Alcotest.(check string) name name (Characterize.find name).Cell.name)
    [ "inv"; "buf"; "nd2wi"; "nd3wi"; "mux2"; "xoa"; "lut3"; "dff" ];
  Alcotest.check_raises "unknown cell" Not_found (fun () ->
      ignore (Characterize.find "nonsense"))

let test_delay_model () =
  let mux = Characterize.find "mux2" in
  (* linear and monotone in load *)
  let d0 = Cell.delay mux ~load:0.0 in
  let d10 = Cell.delay mux ~load:10.0 in
  let d20 = Cell.delay mux ~load:20.0 in
  Alcotest.(check (float 1e-9)) "intrinsic at zero load" mux.Cell.intrinsic d0;
  Alcotest.(check (float 1e-9)) "linearity" (d10 -. d0) (d20 -. d10);
  Alcotest.(check bool) "monotone" true (d20 > d10 && d10 > d0)

let test_relative_speeds () =
  let fo4 n = Characterize.fo4 (Characterize.find n) in
  (* the paper's central premise: the LUT3 is much slower than the simple
     gates when computing simple functions *)
  Alcotest.(check bool) "lut3 slowest" true
    (List.for_all
       (fun n -> fo4 "lut3" > fo4 n)
       [ "inv"; "nd2wi"; "nd3wi"; "mux2"; "xoa" ]);
  Alcotest.(check bool) "lut3 at least 1.5x a mux" true
    (fo4 "lut3" > 1.5 *. fo4 "mux2");
  (* the XOA is sized up: stronger drive than the plain mux *)
  let xoa = Characterize.find "xoa" and mux = Characterize.find "mux2" in
  Alcotest.(check bool) "xoa drives harder" true
    (xoa.Cell.resistance < mux.Cell.resistance)

let test_dff_seq () =
  match (Characterize.find "dff").Cell.sequential with
  | Some s ->
      Alcotest.(check bool) "setup positive" true (s.Cell.setup > 0.0);
      Alcotest.(check bool) "clk-q positive" true (s.Cell.clk_to_q > 0.0)
  | None -> Alcotest.fail "dff not sequential"

let test_libraries () =
  Alcotest.(check bool) "lut library has the LUT" true
    (Library.mem Library.lut_plb "lut3");
  Alcotest.(check bool) "granular has no LUT" false
    (Library.mem Library.granular_plb "lut3");
  Alcotest.(check bool) "granular has xoa" true
    (Library.mem Library.granular_plb "xoa");
  Alcotest.(check bool) "both have dff" true
    (Library.mem Library.lut_plb "dff" && Library.mem Library.granular_plb "dff");
  Alcotest.(check bool) "areas positive" true
    (Library.total_area Library.lut_plb > 0.0);
  Alcotest.check_raises "find outside library" Not_found (fun () ->
      ignore (Library.find Library.granular_plb "lut3"))

let test_via_counts () =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Config.name c ^ " has vias")
        true
        (Config.via_count c > 0))
    Config.all;
  (* multi-cell configurations program more vias than single-cell ones *)
  Alcotest.(check bool) "xoandmx > mx" true
    (Config.via_count Config.Xoandmx > Config.via_count Config.Mx)

(* --- Power ----------------------------------------------------------------- *)

let mapped_design () =
  Vpga_mapper.Compact.run Vpga_plb.Arch.granular_plb
    (Vpga_designs.Alu.build ~width:6 ())

let test_activities () =
  let nl = mapped_design () in
  let a = Power.activities ~cycles:128 ~seed:3 nl in
  Alcotest.(check int) "one entry per node" (Netlist.size nl) (Array.length a);
  Alcotest.(check bool) "activities in [0,1]" true
    (Array.for_all (fun x -> x >= 0.0 && x <= 1.0) a);
  (* random inputs toggle about half the time *)
  let inputs = Netlist.inputs nl in
  let mean =
    List.fold_left (fun acc i -> acc +. a.(i)) 0.0 inputs
    /. float_of_int (List.length inputs)
  in
  Alcotest.(check bool)
    (Printf.sprintf "input activity ~0.5 (%.2f)" mean)
    true
    (mean > 0.35 && mean < 0.65);
  (* deterministic for a fixed seed *)
  let b = Power.activities ~cycles:128 ~seed:3 nl in
  Alcotest.(check bool) "deterministic" true (a = b)

(* Activity digests of the flow's buffered netlists (seed 1, so the flow's
   [seed + 7] = 8), all four Test-scale designs on both PLBs.  They pin the
   exact random stream: one [Random.State.bool] per primary input per cycle,
   in input order, simulated on lane 0. *)
let activity_goldens =
  [
    ("ALU", "lut", "a52df13e68b67c7950eb8590b0c848cc");
    ("ALU", "granular", "727d7e40d232dfd9e5e6c3382af631e1");
    ("Firewire", "lut", "f249532999145b4aed68f71e3526d7ae");
    ("Firewire", "granular", "39f0260990294d5de0a5f57e47e3a24a");
    ("FPU", "lut", "bd958855a36afc82f79bb5bf729027bb");
    ("FPU", "granular", "6830e08dfa0c0fdac6bfb3ba9596fe63");
    ("Network switch", "lut", "fb2dbc5da6ffbfa93d1ae9087cadc3d4");
    ("Network switch", "granular", "fb2dbc5da6ffbfa93d1ae9087cadc3d4");
  ]

let test_activities_golden () =
  let module Experiments = Vpga_flow.Experiments in
  let archs =
    [ ("lut", Vpga_plb.Arch.lut_plb); ("granular", Vpga_plb.Arch.granular_plb) ]
  in
  List.iter
    (fun (design, arch, expect) ->
      let nl = List.assoc design (Experiments.designs Experiments.Test) in
      let buffered =
        Vpga_place.Buffering.insert ~max_fanout:8
          (Vpga_mapper.Compact.run (List.assoc arch archs) nl)
      in
      let a = Power.activities ~seed:8 buffered in
      let digest =
        Digest.to_hex
          (Digest.string
             (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a))))
      in
      Alcotest.(check string) (design ^ "/" ^ arch) expect digest)
    activity_goldens

let test_power_estimate () =
  let nl = mapped_design () in
  let activities = Power.activities ~cycles:128 ~seed:3 nl in
  let p = Power.estimate ~activities nl in
  Alcotest.(check bool) "positive dynamic" true (p.Power.dynamic_uw > 0.0);
  Alcotest.(check bool) "positive leakage" true (p.Power.leakage_uw > 0.0);
  Alcotest.(check (float 1e-6)) "total = dyn + leak"
    (p.Power.dynamic_uw +. p.Power.leakage_uw)
    p.Power.total_uw;
  (* slower clock -> less dynamic power, same leakage *)
  let p2 = Power.estimate ~period:1000.0 ~activities nl in
  Alcotest.(check bool) "dynamic scales with f" true
    (p2.Power.dynamic_uw < p.Power.dynamic_uw);
  Alcotest.(check (float 1e-6)) "leakage unchanged" p.Power.leakage_uw
    p2.Power.leakage_uw;
  (* wire load adds power *)
  let p3 = Power.estimate ~wire:(fun _ -> (30.0, 0.1)) ~activities nl in
  Alcotest.(check bool) "wire cap adds power" true
    (p3.Power.dynamic_uw > p.Power.dynamic_uw)

let test_power_lut_costs_more () =
  (* same design, both architectures: the LUT-based mapping burns more
     capacitance and area, hence more power *)
  let nl = Vpga_designs.Alu.build ~width:6 () in
  let power arch =
    let mapped = Vpga_mapper.Compact.run arch nl in
    let activities = Power.activities ~cycles:128 ~seed:3 mapped in
    (Power.estimate ~activities mapped).Power.total_uw
  in
  Alcotest.(check bool) "granular uses less power" true
    (power Vpga_plb.Arch.granular_plb < power Vpga_plb.Arch.lut_plb)

let test_sta_pin_cap () =
  let nl = mapped_design () in
  Array.iter
    (fun node ->
      match node.Netlist.kind with
      | Kind.Mapped _ | Kind.Dff | Kind.Output ->
          Alcotest.(check bool) "positive pin cap" true (Sta.pin_cap node > 0.0)
      | _ -> ())
    (Netlist.nodes nl)

let () =
  Alcotest.run "vpga_cells"
    [
      ( "characterize",
        [
          Alcotest.test_case "templates" `Quick test_templates_characterize;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "delay model" `Quick test_delay_model;
          Alcotest.test_case "relative speeds" `Quick test_relative_speeds;
          Alcotest.test_case "dff" `Quick test_dff_seq;
        ] );
      ( "library",
        [
          Alcotest.test_case "membership" `Quick test_libraries;
          Alcotest.test_case "via counts" `Quick test_via_counts;
        ] );
      ( "power",
        [
          Alcotest.test_case "activities" `Quick test_activities;
          Alcotest.test_case "activities golden" `Quick test_activities_golden;
          Alcotest.test_case "estimate" `Quick test_power_estimate;
          Alcotest.test_case "lut costs more" `Quick test_power_lut_costs_more;
          Alcotest.test_case "pin caps" `Quick test_sta_pin_cap;
        ] );
    ]
