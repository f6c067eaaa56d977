(* The explorer's static conflict oracle: the race audit's branch points,
   resolved to executable program points.

   `dvrun lint` already computes, for every field with at least one
   conflicting access pair, the set of access sites involved — the
   (site, field) "branch points" a systematic explorer must enumerate
   (Report.branch_points). This module turns those site strings
   ("Class.method:source-pc") into per-method bitmaps over *compiled* pcs,
   so the controlled scheduler can ask, one array index per retired
   instruction, "did this instruction touch a conflict site?".

   Compiled pcs only exist after the JIT runs, so [for_entry] compiles
   every method on a scratch VM; [Rt.compiled.k_src_pc] maps compiled pcs
   back to the source pcs the analysis named. Method uids are assigned at
   link time from the program's declaration order, and the canonical
   compiled stream depends on neither the VM nor the register tier, so the
   bitmaps are valid for every VM of the program. They are read-only once
   built: every schedule, and every farm shard, reads the same array.

   Time sensitivity: the segment-commutation argument behind DPOR pruning
   (see Control) breaks when a program reads the environment clock — the
   clock ticks per instruction, so even a pure spin segment changes what a
   *later* clock read in another thread returns. If the program contains
   any time-observing instruction we mark the oracle time-sensitive and
   the scheduler treats every segment as conflicting (pruning off, search
   still bounded). *)

module Report = Analysis.Report

type t = {
  n_sites : int; (* distinct "Class.method:srcpc" branch points *)
  time_sensitive : bool;
  bitmaps : bool array array;
      (* per method uid, over compiled pcs: a conflict site? [||] for a
         method that does not compile (it never runs) *)
}

let time_sensitive_instr (ins : Bytecode.Instr.t) =
  match ins with
  | Bytecode.Instr.Sleep | Bytecode.Instr.Timedwait
  | Bytecode.Instr.Currenttime ->
    true
  | _ -> false

let program_time_sensitive (p : Bytecode.Decl.program) =
  List.exists
    (fun (c : Bytecode.Decl.cdecl) ->
      List.exists
        (fun (m : Bytecode.Decl.mdecl) ->
          Array.exists time_sensitive_instr m.Bytecode.Decl.m_code)
        c.Bytecode.Decl.cd_methods)
    p.Bytecode.Decl.classes

(* One static audit per exploration: [Analysis.run] takes well under a
   millisecond per registry program. *)
let for_entry (e : Workloads.Registry.entry) : t =
  let sites = Hashtbl.create 16 in
  List.iter
    (fun (site, _field) -> Hashtbl.replace sites site ())
    (Report.branch_points (Analysis.run e.program));
  let vm =
    Vm.create
      ~config:{ Vm.Rt.default_config with Vm.Rt.regir = false }
      ~natives:e.natives e.program
  in
  let bitmap (m : Vm.Rt.rmethod) =
    match Vm.Compile.compile vm m with
    | exception (Vm.Verify.Error _ | Vm.Compile.Error _) -> [||]
    | c ->
      let key =
        vm.Vm.Rt.classes.(m.Vm.Rt.rm_cid).Vm.Rt.rc_name ^ "." ^ m.Vm.Rt.rm_name
      in
      Array.map
        (fun src -> Hashtbl.mem sites (key ^ ":" ^ string_of_int src))
        c.Vm.Rt.k_src_pc
  in
  {
    n_sites = Hashtbl.length sites;
    time_sensitive = program_time_sensitive e.program;
    bitmaps = Array.map bitmap vm.Vm.Rt.methods;
  }
