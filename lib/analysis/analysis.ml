(* Public facade of the static analysis subsystem: a generic worklist
   dataflow engine, a call-graph/thread-structure builder, the
   interprocedural lockset pass, the thread-escape pass, and the race-audit
   report consumed by `dvrun lint`, the farm's lint jobs and the explorer's
   conflict oracle. *)

module Json = Json
module Dataflow = Dataflow
module Prog = Prog
module Callgraph = Callgraph
module Lockset = Lockset
module Mhp = Mhp
module Lockorder = Lockorder
module Escape = Escape
module Report = Report

(* One-call entry point: full audit of a program. *)
let run = Report.build
