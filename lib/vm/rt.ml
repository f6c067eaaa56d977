(* Central runtime representation of the virtual machine: resolved
   instructions, loaded classes and methods with reference maps, threads,
   monitors, the scheduler, and the instrumentation hook points that DejaVu
   and the baseline replay schemes attach to.

   Memory model: the heap is one [int array] per semispace. Addresses are
   word indices into the current semispace; address 0 is null. Every object
   has a three-word header [class_id; monitor_id; length] followed by its
   slots. There are no tag bits: reference identification is type-accurate,
   via class field maps for heap objects and per-pc reference maps (computed
   by the verifier) for thread stacks — exactly the Jalapeño discipline the
   paper relies on. *)

type cmp = Bytecode.Instr.cmp

type bin = Badd | Bsub | Bmul | Bdiv | Brem | Band | Bor | Bxor | Bshl | Bshr

type cstate = Registered | Initialized

type elemkind = Not_array | Arr_int | Arr_ref

(* Resolved ("compiled") instructions. Branch targets are compiled-code
   indices; names are resolved to ids/slots. Call, spawn, and string-load
   operands carry the resolved record itself rather than an index, so the
   dispatcher's hot loop never re-derives them per visit — the type group
   below is mutually recursive for exactly this reason. *)
type cinstr =
  | KConst of int
  | KStr of rclass * int (* owning class, interned-string index *)
  | KNull
  | KLoad of int
  | KStore of int
  | KDup
  | KPop
  | KSwap
  | KBin of bin
  | KNeg
  | KIf of cmp * int
  | KIfz of cmp * int
  | KIfnull of int
  | KIfnonnull of int
  | KIfrefeq of int
  | KIfrefne of int
  | KGoto of int
  | KNew of int (* class id *)
  | KGetfield of int * Bytecode.Instr.ty (* absolute slot offset, field type *)
  | KPutfield of int * Bytecode.Instr.ty
  | KGetstatic of int * int * Bytecode.Instr.ty (* declaring cid, globals index *)
  | KPutstatic of int * int * Bytecode.Instr.ty
  | KNewarray of Bytecode.Instr.ty (* element type *)
  | KAload
  | KAstore
  | KArraylength
  | KCheckcast of int (* class id *)
  | KInstanceof of int
  | KInvokestatic of rmethod (* pre-resolved callee *)
  | KInvokevirtual of int * int * int (* declaring cid, vtable slot, nargs *)
  | KRet
  | KRetv
  | KThrow
  | KMonitorenter
  | KMonitorexit
  | KWait
  | KTimedwait
  | KNotify
  | KNotifyall
  | KSpawnstatic of rmethod (* pre-resolved thread body *)
  | KSpawnvirtual of int * int * int
  | KSleep
  | KJoin
  | KInterrupt
  | KCurrenttime
  | KReadinput
  | KNative of int (* native id *)
  | KPrint
  | KPrints
  | KHalt
  | KNop
  | KYield (* yield point, injected by the method compiler *)

(* Reference map: which local slots / operand-stack slots hold references at
   a given pc. [map_stack] covers the prefix up to [map_depth]. *)
and refmap = { map_locals : bool array; map_stack : bool array; map_depth : int }

(* Register IR, produced by the post-verify lowering pass in [Vm.Regir] and
   executed by [Interp.exec_region]. Operands are explicit frame slots:
   slot [i] is local [i] for i < nlocals and operand-stack depth
   [i - nlocals] otherwise, addressed as one flat window at
   [t_fp + frame_header_words]. The stack tier's push/pop traffic becomes
   direct slot reads/writes; [t_sp]/[t_pc] are stored only at the points
   where canonical execution could observe them (faults, allocations,
   hooks, region exits), with the canonical fault-time values carried in
   the instruction ([pc], [fsp] = sp as a slot index).

   A region covers a maximal straight-line run of canonical instructions
   (no barrier — branch target, handler boundary, yield point — past the
   entry) and is segmented at every instruction that can fault, allocate,
   or run a hook: each segment pays its logical-clock ticks in one
   [RTick]/[Env.tick_batch] call (same PRNG draws as that many single
   ticks), then performs the canonical operand-stack WRITES of the segment
   — elided only when a later write in the same fault-free run overwrites
   the slot before any possible observation — and ends with the faulting /
   terminal operation. Pure ops read through the lowering's copy
   propagation; risky and terminal ops read their canonical stack slots,
   which the all-slots-live barrier before them guarantees are
   materialized. *)
and rop =
  | RTick of int (* batched logical-clock ticks for the next segment *)
  (* pure segment body: cannot fault, allocate, or run hooks *)
  | RConst of int * int (* dst, value *)
  | RMove of int * int (* dst, src *)
  | RStr of int * rclass * int (* dst, owning class, interned index *)
  | RBin of bin * int * int * int (* op, dst, src a, src b; never div/rem *)
  | RBinC of bin * int * int * int (* op, dst, src a, constant b *)
  | RBinCL of bin * int * int * int (* op, dst, constant a, src b *)
  | RNeg of int * int (* dst, src *)
  | RSwapMem of int * int (* exchange two materialized slots *)
  | RInstanceof of int * int * int (* dst, class id, src *)
  | RPrint of int (* src *)
  (* risky segment finals: [pc] is the canonical pc, [fsp]-style operands
     are slot indices (abs sp = fp + header + slot), stored before the
     effect so faults, GC scans, and hooks see the canonical frame *)
  | RDivRem of bin * int * int (* op (div/rem), pc, dst slot (b at dst+1) *)
  | RGetfield of int * int * int (* field slot, pc, obj/dst slot *)
  | RPutfield of int * int * int (* field slot, pc, obj slot (v at obj+1) *)
  | RGetstatic of int * int * int * int (* cid, globals index, pc, dst slot *)
  | RPutstatic of int * int * int * int (* cid, globals index, pc, v slot *)
  | RNewobj of int * int * int (* cid, pc, dst slot *)
  | RNewarray of bool * int * int (* elem_ref, pc, len/dst slot *)
  | RAload of int * int (* pc, arr/dst slot (idx at arr+1) *)
  | RAstore of int * int (* pc, arr slot (idx at arr+1, v at arr+2) *)
  | RArraylength of int * int (* pc, arr/dst slot *)
  | RCheckcast of int * int * int (* cid, pc, obj slot (sp stays above) *)
  | RPrints of int * int (* pc, string slot *)
  | RYield of int * int
    (* yield point: next pc, sp slot. Segment-final like a risky op — its
       tick is paid by the preceding [RTick], so the preemption bit the
       yieldpoint hook reads reflects exactly the ticks a canonical
       execution would have latched by this yield. The region continues
       past it unless the hook switches threads or ends the run. *)
  | RMonEnter of int * int
    (* monitorenter: next pc, obj slot. Segment-final like a yield (the
       scheduler may park the thread), but the region continues on the
       uncontended fast path — the monitor is free or already owned, so
       nothing has switched and nothing has touched the frame. *)
  | RMonExit of int * int
    (* monitorexit: next pc, obj slot. Releasing never parks the current
       thread (a handoff only readies the next owner), so the region
       always continues. *)
  (* terminals: exit the region, storing the canonical pc/sp *)
  | RIf of cmp * int * int * int (* cmp, target, fall pc, a slot (b at a+1) *)
  | RIfz of cmp * int * int * int (* cmp, target, fall pc, a slot *)
  | RGoto of int * int (* target, exit sp slot *)
  | RRet of int * int (* pc, exit sp slot *)
  | RRetv of int * int (* pc, result slot *)
  | RCallStatic of rmethod * int * int (* callee, pc, entry sp slot *)
  | RCallVirtual of int * int * int * int * int
    (* declaring cid, vtable slot, nargs, pc, entry sp slot *)
  | REnd of int * int (* fall-through exit: next pc, exit sp slot *)

and region = {
  r_n : int; (* canonical instructions covered (fuel / tick budget) *)
  r_ops : rop array;
}

and rhandler = {
  k_from : int; (* compiled pcs *)
  k_upto : int;
  k_target : int;
  k_catch : int; (* class id, -1 catches all *)
}

and compiled = {
  k_code : cinstr array; (* canonical stream: verifier, observers, debugger *)
  k_regions : region option array;
      (* register-IR tier, indexed by entry pc ([None] mid-region or when
         the tier is disabled). Lives inside [compiled], so snapshot
         rollback of [rm_compiled] un-installs the register tier with the
         method; re-execution re-installs both from [rm_cache] and re-pays
         the compile clock charge. *)
  k_handlers : rhandler array;
  k_maps : refmap array; (* one per compiled pc *)
  k_max_stack : int;
  k_src_pc : int array; (* compiled pc -> source pc *)
  k_lines : (int * int) array; (* compiled pc -> source line table *)
}

and rmethod = {
  uid : int;
  rm_cid : int;
  rm_name : string;
  rm_static : bool;
  rm_nargs : int;
  rm_args : Bytecode.Instr.ty array;
  rm_nlocals : int;
  rm_ret : Bytecode.Instr.ty option;
  rm_decl : Bytecode.Decl.mdecl;
  mutable rm_compiled : compiled option; (* lazily compiled on first call *)
  mutable rm_cache : compiled option;
      (* the last body this VM compiled for the method; snapshot restore
         resets [rm_compiled] but leaves this, so a re-execution installs
         it again instead of recompiling *)
}

and rclass = {
  cid : int;
  rc_name : string;
  rc_super : int; (* -1 for Object *)
  rc_depth : int;
  rc_display : int array; (* ancestors by depth; display.(rc_depth) = cid *)
  rc_fields : (string * Bytecode.Instr.ty) array; (* flattened instance fields *)
  rc_field_index : (string, int) Hashtbl.t;
  rc_statics : (string * Bytecode.Instr.ty) array;
  rc_statics_base : int; (* offset into globals *)
  rc_vtable : int array; (* vslot -> method uid *)
  rc_vslot_of : (string, int) Hashtbl.t;
  rc_method_of : (string, int) Hashtbl.t; (* declared methods: name -> uid *)
  rc_string_lits : string array; (* literal pool gathered at registration *)
  mutable rc_strings : int array; (* interned addrs, filled at class init *)
  mutable rc_state : cstate;
  rc_elem : elemkind;
}

let returns m = m.rm_ret <> None

type tstate =
  | Ready
  | Running
  | Blocked (* waiting to enter a monitor *)
  | Waiting (* in a wait set *)
  | Timed_waiting (* in a wait set with a timeout *)
  | Sleeping
  | Joining of int
  | Terminated

let string_of_tstate = function
  | Ready -> "ready"
  | Running -> "running"
  | Blocked -> "blocked"
  | Waiting -> "waiting"
  | Timed_waiting -> "timed-waiting"
  | Sleeping -> "sleeping"
  | Joining t -> "joining(" ^ string_of_int t ^ ")"
  | Terminated -> "terminated"

(* Frame layout, relative to the frame pointer (offsets within the thread's
   stack array data area):
     fp+0  caller method uid (-1 in a thread's base frame)
     fp+1  caller resume pc
     fp+2  caller fp
     fp+3.. locals, then the operand stack up to sp. *)
let frame_header_words = 3

(* Raised by runtime services to signal a Java-level exception by class name;
   the interpreter converts it into a heap object and unwinds. *)
exception Vm_exception of string

type thread = {
  tid : int;
  t_name : string;
  mutable t_stack : int; (* heap address of the stack array object *)
  mutable t_fp : int; (* offset into the stack array's data area *)
  mutable t_sp : int;
  mutable t_pc : int; (* compiled pc in t_meth *)
  mutable t_meth : rmethod;
  mutable t_state : tstate;
  mutable t_wake : int; (* wall-clock deadline for sleep / timed wait *)
  mutable t_interrupted : bool;
  mutable t_wait_mon : int; (* monitor id while in a wait set, else -1 *)
  mutable t_saved_count : int; (* monitor recursion count across wait/block *)
  mutable t_joiners : int list;
  mutable t_exc : int; (* in-flight exception object during unwinding *)
}

type monitor = {
  m_id : int;
  mutable m_owner : int; (* tid, -1 when free *)
  mutable m_count : int;
  m_entryq : int Queue.t; (* tids blocked on monitorenter *)
  mutable m_waitset : int list; (* tids in wait order *)
}

type status =
  | Running_
  | Finished (* every thread terminated *)
  | Halted of int (* Halt executed *)
  | Deadlocked
  | Fatal of string (* OutOfMemory, internal invariant broken, ... *)

type clock_reason =
  | Capp (* application Currenttime *)
  | Csched (* scheduler's periodic read for sleep / timed wait *)
  | Cidle of int (* idle advance to the earliest wake time *)

type native_outcome = {
  no_result : int option;
  no_callbacks : (int * int array) list; (* method uid, int args *)
}

type obs = {
  o_tid : int;
  o_uid : int; (* method uid *)
  o_pc : int;
  o_tag : int; (* small instruction tag for digesting *)
}

type stats = {
  mutable n_instr : int;
  mutable n_yield : int;
  mutable n_switch : int;
  mutable n_preempt_req : int;
  mutable n_gc : int;
  mutable n_alloc_words : int;
  mutable n_alloc_objects : int;
  mutable n_compiled_methods : int;
  mutable n_classes_initialized : int;
  mutable n_stack_grows : int;
  mutable n_clock_reads : int;
  mutable n_input_reads : int;
  mutable n_native_calls : int;
  mutable n_monitor_ops : int;
  mutable n_exceptions : int;
  mutable n_regir_instr : int; (* canonical instrs retired via register regions *)
  mutable n_regir_mon : int; (* monitor ops executed inside register regions *)
  mutable n_regir_inline : int;
      (* always 0: the VM has no call splicing. Kept only so the frozen
         perfbench harness, which reads it, still compiles *)
}

let fresh_stats () =
  {
    n_instr = 0;
    n_yield = 0;
    n_switch = 0;
    n_preempt_req = 0;
    n_gc = 0;
    n_alloc_words = 0;
    n_alloc_objects = 0;
    n_compiled_methods = 0;
    n_classes_initialized = 0;
    n_stack_grows = 0;
    n_clock_reads = 0;
    n_input_reads = 0;
    n_native_calls = 0;
    n_monitor_ops = 0;
    n_exceptions = 0;
    n_regir_instr = 0;
    n_regir_mon = 0;
    n_regir_inline = 0;
  }

type native = {
  nat_id : int;
  nat_name : string;
  nat_arity : int;
  nat_returns : bool;
  nat_fn : t -> int array -> native_outcome;
}

(* Instrumentation hook points. The default ("live") hooks consult the
   environment directly; DejaVu's record and replay modes replace them —
   this stands in for the paper's cross-optimized instrumentation being
   compiled into the VM's inner loop. *)
and hooks = {
  mutable h_yieldpoint : t -> unit;
  mutable h_clock : t -> clock_reason -> int;
  mutable h_input : t -> int;
  mutable h_native : t -> native -> int array -> native_outcome;
  mutable h_observe : (t -> int -> int -> int -> int -> unit) option;
      (* the one per-instruction hook: tid, method uid, pc, instruction
         tag, unboxed (no event record per instruction). Regions report
         a segment's events before its effects, so an observer may read
         only its arguments and static method data (observer.mli) *)
  mutable h_heap_read : (t -> int -> int -> unit) option; (* addr, slot *)
  mutable h_heap_write : (t -> int -> int -> unit) option;
  mutable h_switch : (t -> int -> int -> unit) option; (* from tid, to tid *)
  mutable h_pick : (t -> int -> int) option;
      (* dispatch override: given the scheduler's FIFO choice, return the
         tid that must run instead (must be Ready). Used by replay schemes
         that do NOT replay the thread package and therefore have to steer
         it externally (Russinovich-Cogswell style). *)
  mutable h_spawn : (t -> int -> unit) option; (* new thread's tid *)
  mutable h_lock : (t -> bool -> int -> int -> unit) option;
      (* monitor ownership transition: acquired?, monitor id, tid — fires
         only on the free->owned and owned->free edges, never on recursive
         re-entry/exit, so listeners see lock *release points* and *acquire
         points* in the JMM sense *)
  mutable h_hb : (t -> int -> int -> unit) option;
      (* cross-thread happens-before edge established outside monitors:
         from tid, to tid (join completion, interrupt delivery) *)
}

and config = {
  heap_words : int; (* words per semispace *)
  stack_init : int; (* initial thread-stack words (data area) *)
  stack_max : int; (* max thread-stack words *)
  stack_slack : int; (* eager-growth threshold, see DejaVu symmetry *)
  instr_limit : int; (* safety valve; Fatal when exceeded *)
  fuse : bool;
      (* no effect: the VM has no superinstruction fusion. Kept only so
         the frozen perfbench harness, which sets it, still compiles *)
  regir : bool; (* register-IR tier in the compiler (k_regions) *)
  env_cfg : Env.config;
}

and t = {
  cfg : config;
  program : Bytecode.Decl.program;
  env : Env.t;
  (* heap *)
  mutable heap : int array; (* current semispace *)
  mutable heap_alt : int array;
  mutable hp : int; (* bump pointer; starts above 0 so 0 stays null *)
  mutable gc_threshold : int;
  (* temp roots: addresses held by the interpreter across allocations *)
  mutable temp_roots : int array;
  mutable n_temps : int;
  (* pinned roots: long-lived addresses registered by instrumentation
     (e.g. DejaVu's trace buffer); the GC keeps them up to date *)
  mutable pinned_roots : int array;
  mutable n_pinned : int;
  (* statics *)
  globals : int array;
  global_refs : bool array;
  nglobals : int;
  (* classes and methods, fully registered at boot, initialized lazily *)
  classes : rclass array;
  class_of_name : (string, int) Hashtbl.t;
  methods : rmethod array;
  (* natives *)
  natives_by_id : native array;
  native_id_of : (string, int) Hashtbl.t;
  (* monitors *)
  mutable monitors : monitor array;
  mutable n_monitors : int;
  (* threads and scheduling *)
  mutable threads : thread array;
  mutable n_threads : int;
  readyq : int Queue.t;
  mutable current : int; (* tid, -1 before boot *)
  mutable sleepers : (int * int) list; (* (wake, tid), sorted *)
  mutable live_threads : int;
  mutable status : status;
  mutable preempt_pending : bool; (* the "preemptive hardware bit" *)
  mutable env_ticks : bool;
      (* each executed instruction ticks the environment clock and its
         timer. Replay switches it off ([Replayer.attach_io]): the replay
         hooks never read the timer, so [Env.ticks], [timer_fires] and
         [n_preempt_req] stay 0 there. [Vm.install_live_hooks] switches it
         back on. Not snapshotted: a mode, like the hooks. *)
  (* output *)
  output : Buffer.t;
  hooks : hooks;
  stats : stats;
}

let cur vm = vm.threads.(vm.current)

let the_class vm cid = vm.classes.(cid)

let class_id vm name =
  match Hashtbl.find_opt vm.class_of_name name with
  | Some cid -> cid
  | None -> invalid_arg ("unknown class " ^ name)

let the_method vm uid = vm.methods.(uid)

(* The callee of a virtual call or spawn through vtable slot [vslot] on a
   receiver of class [cid]: the one vtable walk. The verifier's check that
   the receiver is a subclass of the call site's class keeps [vslot] in
   range. *)
let virtual_target vm cid vslot =
  vm.methods.(vm.classes.(cid).rc_vtable.(vslot))

(* O(1) subtype test via the class display. *)
let is_subclass vm ~sub ~sup =
  let s = vm.classes.(sub) and p = vm.classes.(sup) in
  p.rc_depth <= s.rc_depth && s.rc_display.(p.rc_depth) = sup

(* Least common ancestor of two classes (Object in the worst case). *)
let lca vm a b =
  let ca = vm.classes.(a) and cb = vm.classes.(b) in
  let d = ref (min ca.rc_depth cb.rc_depth) in
  while ca.rc_display.(!d) <> cb.rc_display.(!d) do
    decr d
  done;
  ca.rc_display.(!d)

let compiled m =
  match m.rm_compiled with
  | Some c -> c
  | None -> invalid_arg ("method not compiled: " ^ m.rm_name)

(* All wall-clock reads route through this wrapper so the read count is
   visible in the stats regardless of which hooks are installed. *)
let read_clock (vm : t) reason =
  vm.stats.n_clock_reads <- vm.stats.n_clock_reads + 1;
  vm.hooks.h_clock vm reason

let default_config =
  {
    heap_words = 1 lsl 20;
    stack_init = 256;
    stack_max = 1 lsl 16;
    stack_slack = 48;
    instr_limit = 200_000_000;
    fuse = true;
    regir = true;
    env_cfg = Env.default_config;
  }

(* Small instruction tag used by observers to digest the event stream. *)
let tag_of_cinstr = function
  | KConst _ -> 1
  | KStr _ -> 2
  | KNull -> 3
  | KLoad _ -> 4
  | KStore _ -> 5
  | KDup -> 6
  | KPop -> 7
  | KSwap -> 8
  | KBin _ -> 9
  | KNeg -> 10
  | KIf _ -> 11
  | KIfz _ -> 12
  | KIfnull _ -> 13
  | KIfnonnull _ -> 14
  | KGoto _ -> 15
  | KNew _ -> 16
  | KGetfield _ -> 17
  | KPutfield _ -> 18
  | KGetstatic _ -> 19
  | KPutstatic _ -> 20
  | KNewarray _ -> 21
  | KAload -> 22
  | KAstore -> 23
  | KArraylength -> 24
  | KCheckcast _ -> 49
  | KInstanceof _ -> 50
  | KIfrefeq _ -> 51
  | KIfrefne _ -> 52
  | KInvokestatic _ -> 25
  | KInvokevirtual _ -> 26
  | KRet -> 27
  | KRetv -> 28
  | KThrow -> 29
  | KMonitorenter -> 30
  | KMonitorexit -> 31
  | KWait -> 32
  | KTimedwait -> 33
  | KNotify -> 34
  | KNotifyall -> 35
  | KSpawnstatic _ -> 36
  | KSpawnvirtual _ -> 37
  | KSleep -> 38
  | KJoin -> 39
  | KInterrupt -> 40
  | KCurrenttime -> 41
  | KReadinput -> 42
  | KNative _ -> 43
  | KPrint -> 44
  | KPrints -> 45
  | KHalt -> 46
  | KNop -> 47
  | KYield -> 48

(* Branch target carried by a canonical instruction, if any — the
   region lowering uses this to find the barriers no region may span. *)
let target_of_cinstr = function
  | KIf (_, t) | KIfz (_, t) | KIfnull t | KIfnonnull t | KIfrefeq t
  | KIfrefne t | KGoto t ->
    Some t
  | _ -> None
