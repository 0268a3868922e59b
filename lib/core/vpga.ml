module Bfun = Vpga_logic.Bfun
module Gates = Vpga_logic.Gates
module S3 = Vpga_logic.S3
module Npn = Vpga_logic.Npn
module Kind = Vpga_netlist.Kind
module Netlist = Vpga_netlist.Netlist
module Levelize = Vpga_netlist.Levelize
module Simulate = Vpga_netlist.Simulate
module Equiv = Vpga_netlist.Equiv
module Stats = Vpga_netlist.Stats
module Cell = Vpga_cells.Cell
module Characterize = Vpga_cells.Characterize
module Library = Vpga_cells.Library
module Maxflow = Vpga_maxflow.Maxflow
module Aig = Vpga_aig.Aig
module Cut = Vpga_aig.Cut
module Flowmap = Vpga_mapper.Flowmap
module Techmap = Vpga_mapper.Techmap
module Compact = Vpga_mapper.Compact
module Arch = Vpga_plb.Arch
module Config = Vpga_plb.Config
module Packer = Vpga_plb.Packer
module Full_adder = Vpga_plb.Full_adder
module Placement = Vpga_place.Placement
module Global_place = Vpga_place.Global
module Anneal = Vpga_place.Anneal
module Buffering = Vpga_place.Buffering
module Quadrisect = Vpga_pack.Quadrisect
module Refine = Vpga_pack.Refine
module Grid = Vpga_route.Grid
module Router = Vpga_route.Router
module Pathfinder = Vpga_route.Pathfinder
module Detail = Vpga_route.Detail
module Sta = Vpga_timing.Sta
module Power = Vpga_timing.Power
module Wordgen = Vpga_designs.Wordgen
module Alu = Vpga_designs.Alu
module Fpu = Vpga_designs.Fpu
module Netswitch = Vpga_designs.Netswitch
module Firewire = Vpga_designs.Firewire
module Pool = Vpga_par.Pool
module Obs = Vpga_obs
module Trace = Vpga_obs.Trace
module Flow = Vpga_flow.Flow
module Minchan = Vpga_flow.Minchan
module Experiments = Vpga_flow.Experiments
module Report = Vpga_flow.Report
module Export = Vpga_flow.Export
module Diag = Vpga_verify.Diag
module Lint = Vpga_verify.Lint
module Dataflow = Vpga_dataflow.Dataflow
module Analysis = Vpga_analysis.Analysis
module Ternary = Vpga_analysis.Ternary
module Constprop = Vpga_analysis.Constprop
module Xprop = Vpga_analysis.Xprop
module Redund = Vpga_analysis.Redund
module Fanout_analysis = Vpga_analysis.Fanout
module Simplify = Vpga_analysis.Simplify
module Ownership = Vpga_analysis.Ownership
module Sat = Vpga_verify.Sat
module Cnf = Vpga_verify.Cnf
module Sweep = Vpga_verify.Sweep
module Cec = Vpga_verify.Cec
module Phys = Vpga_verify.Phys
module Fail = Vpga_resil.Fail
module Policy = Vpga_resil.Policy
module Recovery = Vpga_resil.Log
module Retry = Vpga_resil.Retry
module Defect = Vpga_resil.Defect

module Cache = Vpga_cache.Cache

module Cachekey = Vpga_cache.Key
module Cacheenc = Vpga_cache.Enc
module Stagekey = Vpga_flow.Stagekey

let classify_functions () = S3.census ()

let run_flow ?seed ?period ?verify ?policy ?trace ?jobs ?analyze ?cache arch
    nl =
  Flow.run ?seed ?period ?verify ?policy ?trace ?jobs ?analyze ?cache arch nl

let compare_architectures ?seed ?period ?verify nl =
  ( Flow.run ?seed ?period ?verify Arch.lut_plb nl,
    Flow.run ?seed ?period ?verify Arch.granular_plb nl )
