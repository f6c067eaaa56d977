(* The bytecode interpreter: frame management on heap-allocated stacks,
   lazy class initialization, lazy method compilation, exception unwinding,
   and the yield-point hook through which all thread switching happens.

   Invariants the collector relies on:
     - pc advances only after an instruction's effects are complete, so the
       reference map at the stored pc always describes the live frame;
     - within one instruction, a reference is never popped into an OCaml
       local before a possible allocation (only integers are);
     - a heap address held across an allocation goes through the temp-root
       stack. *)

exception Fatal of string

let fatal fmt = Fmt.kstr (fun s -> raise (Fatal s)) fmt

(* --- operand stack ---------------------------------------------------- *)

(* Operand-stack traffic uses the unchecked accessors: the slots are below
   the capacity [ensure_stack] reserved at frame push (header + locals +
   the verifier's max_stack bound), so the bounds check would be pure
   per-instruction overhead. *)
let push (vm : Rt.t) (t : Rt.thread) v =
  Layout.stack_set_u vm t t.t_sp v;
  t.t_sp <- t.t_sp + 1

let pop (vm : Rt.t) (t : Rt.thread) =
  t.t_sp <- t.t_sp - 1;
  Layout.stack_get_u vm t t.t_sp

let peek (vm : Rt.t) (t : Rt.thread) k =
  Layout.stack_get_u vm t (t.t_sp - 1 - k)

let npe () = raise (Rt.Vm_exception "NullPointerException")

let[@inline] check_null v = if v = 0 then npe ()

(* --- stacks and frames ------------------------------------------------ *)

(* Words a frame for [c] needs above the current sp. *)
let frame_need (m : Rt.rmethod) (c : Rt.compiled) =
  Rt.frame_header_words + m.rm_nlocals + c.k_max_stack

(* Grow the current thread's stack to hold at least [need] more words above
   sp. Allocates, so the old stack may move; contents are copied and the
   thread's stack pointer fields stay valid (they are offsets). *)
let grow_stack (vm : Rt.t) (t : Rt.thread) ~need =
  let old_cap = Layout.stack_capacity vm t in
  let want = t.t_sp + need in
  let new_cap = max (old_cap * 2) want in
  if new_cap > vm.cfg.stack_max then
    raise (Rt.Vm_exception "StackOverflowError");
  let new_stack = Heap.alloc_stack_array vm ~len:new_cap in
  (* t.t_stack was updated by the GC if one ran during the allocation *)
  let old_abs = t.t_stack + Layout.header_words in
  let new_abs = new_stack + Layout.header_words in
  Array.blit vm.heap old_abs vm.heap new_abs t.t_sp;
  t.t_stack <- new_stack;
  vm.stats.n_stack_grows <- vm.stats.n_stack_grows + 1

let ensure_stack (vm : Rt.t) (t : Rt.thread) ~need =
  if t.t_sp + need > Layout.stack_capacity vm t then grow_stack vm t ~need

(* Push an activation frame for [callee] on the current thread.
   [resume_pc] is where the *caller* continues; [explicit_args], when given,
   supplies the arguments directly (thread start, callbacks, clinit);
   otherwise the top [rm_nargs] operand-stack slots move into the callee's
   locals. Stack growth happens before the arguments are popped so they stay
   scannable. *)
let push_frame (vm : Rt.t) (callee : Rt.rmethod) ~resume_pc
    ?explicit_args () =
  let c = Compile.compile vm callee in
  let t = Rt.cur vm in
  ensure_stack vm t ~need:(frame_need callee c + vm.cfg.stack_slack);
  let nargs = callee.rm_nargs in
  let fp =
    match explicit_args with
    | Some _ -> t.t_sp
    | None -> t.t_sp - nargs
  in
  (* the top [nargs] operand slots become the callee's first locals. On
     the implicit path they are moved up in place, highest-indexed first
     so no source slot (fp+i) is overwritten before it is read (its
     destination fp+header+i sits exactly header words above it) — the
     per-call transient array this replaces was the interpreter's only
     allocation on the invoke path. Nothing here allocates, so the slots
     stay scannable throughout. *)
  (match explicit_args with
  | None ->
    for i = nargs - 1 downto 0 do
      Layout.stack_set vm t
        (fp + Rt.frame_header_words + i)
        (Layout.stack_get vm t (fp + i))
    done
  | Some a ->
    if Array.length a <> nargs then
      fatal "bad explicit arg count for %s" callee.rm_name;
    for i = 0 to nargs - 1 do
      Layout.stack_set vm t (fp + Rt.frame_header_words + i) a.(i)
    done);
  Layout.stack_set vm t fp t.t_meth.uid;
  Layout.stack_set vm t (fp + 1) resume_pc;
  Layout.stack_set vm t (fp + 2) t.t_fp;
  for i = nargs to callee.rm_nlocals - 1 do
    Layout.stack_set vm t (fp + Rt.frame_header_words + i) 0
  done;
  t.t_fp <- fp;
  t.t_sp <- fp + Rt.frame_header_words + callee.rm_nlocals;
  t.t_meth <- callee;
  t.t_pc <- 0

(* Pop the current frame; push [result] in the caller if given. A return
   from a thread's base frame terminates the thread. *)
let do_return (vm : Rt.t) ~result =
  let t = Rt.cur vm in
  let fp = t.t_fp in
  let caller_uid = Layout.stack_get vm t fp in
  if caller_uid < 0 then Sched.terminate_current vm
  else begin
    let resume_pc = Layout.stack_get vm t (fp + 1) in
    let caller_fp = Layout.stack_get vm t (fp + 2) in
    t.t_meth <- vm.methods.(caller_uid);
    t.t_pc <- resume_pc;
    t.t_fp <- caller_fp;
    t.t_sp <- fp;
    match result with Some v -> push vm t v | None -> ()
  end

(* --- class initialization --------------------------------------------- *)

(* Lazily initialize a class: intern its string literals (heap side effects
   at a point determined by execution — the class-loading symmetry concern
   of the paper) and queue its <clinit> to run before the current
   instruction re-executes. Returns false when frames were pushed (or the
   state may have changed): the caller must NOT advance pc, so the faulting
   instruction re-executes once initializers complete. *)
let rec ensure_initialized (vm : Rt.t) cid : bool =
  let rc = vm.classes.(cid) in
  match rc.rc_state with
  | Rt.Initialized -> true
  | Rt.Registered ->
    rc.rc_state <- Rt.Initialized;
    vm.stats.n_classes_initialized <- vm.stats.n_classes_initialized + 1;
    let n = Array.length rc.rc_string_lits in
    rc.rc_strings <- Array.make n 0;
    for i = 0 to n - 1 do
      rc.rc_strings.(i) <- Heap.alloc_string vm rc.rc_string_lits.(i)
    done;
    (match Hashtbl.find_opt rc.rc_method_of Bytecode.Decl.clinit_name with
    | Some uid ->
      let t = Rt.cur vm in
      push_frame vm vm.methods.(uid) ~resume_pc:t.t_pc ()
    | None -> ());
    (* superclass initializers run first: pushed later = executed earlier *)
    if rc.rc_super >= 0 then ignore (ensure_initialized vm rc.rc_super);
    false

(* --- exceptions -------------------------------------------------------- *)

(* Unwind the current thread with exception object [exc]: find the nearest
   covering handler whose catch class matches, clearing the operand stack;
   an uncaught exception terminates the thread with a note in the program
   output (deterministic, hence replayed). *)
let raise_exception (vm : Rt.t) exc =
  vm.stats.n_exceptions <- vm.stats.n_exceptions + 1;
  let t = Rt.cur vm in
  let exc_cid = Layout.class_of vm exc in
  let rec unwind () =
    let c = Rt.compiled t.t_meth in
    let matching =
      Array.to_seq c.k_handlers
      |> Seq.filter (fun (h : Rt.rhandler) ->
             t.t_pc >= h.k_from && t.t_pc < h.k_upto
             && (h.k_catch < 0
                || Rt.is_subclass vm ~sub:exc_cid ~sup:h.k_catch))
      |> Seq.uncons
    in
    match matching with
    | Some (h, _) ->
      t.t_sp <- t.t_fp + Rt.frame_header_words + t.t_meth.rm_nlocals;
      push vm t exc;
      t.t_pc <- h.k_target
    | None ->
      let fp = t.t_fp in
      let caller_uid = Layout.stack_get vm t fp in
      if caller_uid < 0 then begin
        Buffer.add_string vm.output
          (Fmt.str "!! thread %d (%s) died: uncaught %s\n" t.tid t.t_name
             vm.classes.(exc_cid).rc_name);
        Sched.terminate_current vm
      end
      else begin
        let resume_pc = Layout.stack_get vm t (fp + 1) in
        let caller_fp = Layout.stack_get vm t (fp + 2) in
        t.t_meth <- vm.methods.(caller_uid);
        (* resume_pc - 1 is the invoke site, which handler ranges cover *)
        t.t_pc <- resume_pc - 1;
        t.t_fp <- caller_fp;
        t.t_sp <- fp;
        unwind ()
      end
  in
  unwind ()

let throw_by_name (vm : Rt.t) name =
  let cid = Rt.class_id vm name in
  (* builtin exception classes have no fields, literals, or <clinit>; the
     allocation is the only side effect *)
  let exc = Heap.alloc_object vm cid in
  raise_exception vm exc

(* --- threads ----------------------------------------------------------- *)

let thread_stack_size (vm : Rt.t) (m : Rt.rmethod) (c : Rt.compiled) =
  max vm.cfg.stack_init (frame_need m c + vm.cfg.stack_slack)

(* Create a thread whose base frame runs [meth] with [args] (plain words;
   any references among them must be supplied via operand-stack peeks, see
   KSpawn below). Returns the new tid. *)
let create_thread (vm : Rt.t) ~name (meth : Rt.rmethod) ~stack_addr
    ~(args : int array) =
  let tid = vm.n_threads in
  if tid >= Array.length vm.threads then begin
    let bigger = Array.make (2 * Array.length vm.threads) vm.threads.(0) in
    Array.blit vm.threads 0 bigger 0 vm.n_threads;
    vm.threads <- bigger
  end;
  let t =
    {
      Rt.tid;
      t_name = name;
      t_stack = stack_addr;
      t_fp = 0;
      t_sp = 0;
      t_pc = 0;
      t_meth = meth;
      t_state = Rt.Ready;
      t_wake = 0;
      t_interrupted = false;
      t_wait_mon = -1;
      t_saved_count = 0;
      t_joiners = [];
      t_exc = 0;
    }
  in
  vm.threads.(tid) <- t;
  vm.n_threads <- vm.n_threads + 1;
  vm.live_threads <- vm.live_threads + 1;
  (* base frame *)
  Layout.stack_set vm t 0 (-1);
  Layout.stack_set vm t 1 0;
  Layout.stack_set vm t 2 0;
  for i = 0 to meth.rm_nlocals - 1 do
    Layout.stack_set vm t
      (Rt.frame_header_words + i)
      (if i < Array.length args then args.(i) else 0)
  done;
  t.t_fp <- 0;
  t.t_sp <- Rt.frame_header_words + meth.rm_nlocals;
  (match vm.hooks.h_spawn with Some f -> f vm tid | None -> ());
  tid

(* --- native calls ------------------------------------------------------ *)

(* Execute (or, under replay, regenerate) a native call: the result is
   pushed first, then callback frames are stacked so that callbacks run in
   order before control returns behind the call site (paper section 2.5). *)
let do_native (vm : Rt.t) (t : Rt.thread) nid pc =
  let nat = vm.natives_by_id.(nid) in
  vm.stats.n_native_calls <- vm.stats.n_native_calls + 1;
  let args = Array.init nat.nat_arity (fun i -> peek vm t (nat.nat_arity - 1 - i)) in
  let outcome = vm.hooks.h_native vm nat args in
  t.t_sp <- t.t_sp - nat.nat_arity;
  t.t_pc <- pc + 1;
  (match (nat.nat_returns, outcome.no_result) with
  | true, Some v -> push vm t v
  | false, None -> ()
  | true, None -> fatal "native %s produced no result" nat.nat_name
  | false, Some _ -> fatal "native %s produced an unexpected result" nat.nat_name);
  (* push callback frames last-to-first so the first callback runs first;
     uninitialized callback classes get their <clinit> queued on top *)
  List.iter
    (fun (uid, cargs) ->
      let cb = vm.methods.(uid) in
      if cb.rm_nargs <> Array.length cargs then
        fatal "native %s: callback %s arity mismatch" nat.nat_name cb.rm_name;
      push_frame vm cb ~resume_pc:t.t_pc ~explicit_args:cargs ();
      ignore (ensure_initialized vm cb.rm_cid))
    (List.rev outcome.no_callbacks)

(* --- the dispatcher ---------------------------------------------------- *)

let[@inline] binop (op : Rt.bin) a b =
  match op with
  | Badd -> a + b
  | Bsub -> a - b
  | Bmul -> a * b
  | Bdiv ->
    if b = 0 then raise (Rt.Vm_exception "ArithmeticException") else a / b
  | Brem ->
    if b = 0 then raise (Rt.Vm_exception "ArithmeticException") else a mod b
  | Band -> a land b
  | Bor -> a lor b
  | Bxor -> a lxor b
  | Bshl -> a lsl (b land 63)
  | Bshr -> a asr (b land 63)

let check_bounds vm arr idx =
  if idx < 0 || idx >= Layout.len_of vm arr then
    raise (Rt.Vm_exception "ArrayIndexOutOfBoundsException")

(* Execute [ins], fetched from [pc] of thread [t]. Stat accounting and the
   per-instruction hooks/clock are the caller's job: [exec_batch] amortizes
   them over a run-until-yield segment. *)
let dispatch (vm : Rt.t) (t : Rt.thread) pc ins =
  match (ins : Rt.cinstr) with
  | KConst n ->
    push vm t n;
    t.t_pc <- pc + 1
  | KStr (owner, idx) ->
    push vm t owner.rc_strings.(idx);
    t.t_pc <- pc + 1
  | KNull ->
    push vm t 0;
    t.t_pc <- pc + 1
  | KLoad i ->
    push vm t (Layout.stack_get_u vm t (t.t_fp + Rt.frame_header_words + i));
    t.t_pc <- pc + 1
  | KStore i ->
    let v = pop vm t in
    Layout.stack_set_u vm t (t.t_fp + Rt.frame_header_words + i) v;
    t.t_pc <- pc + 1
  | KDup ->
    push vm t (peek vm t 0);
    t.t_pc <- pc + 1
  | KPop ->
    ignore (pop vm t);
    t.t_pc <- pc + 1
  | KSwap ->
    let a = pop vm t in
    let b = pop vm t in
    push vm t a;
    push vm t b;
    t.t_pc <- pc + 1
  | KBin op ->
    let b = pop vm t in
    let a = pop vm t in
    push vm t (binop op a b);
    t.t_pc <- pc + 1
  | KNeg ->
    push vm t (-pop vm t);
    t.t_pc <- pc + 1
  | KIf (cmp, target) ->
    let b = pop vm t in
    let a = pop vm t in
    t.t_pc <- (if Bytecode.Instr.eval_cmp cmp a b then target else pc + 1)
  | KIfz (cmp, target) ->
    let a = pop vm t in
    t.t_pc <- (if Bytecode.Instr.eval_cmp cmp a 0 then target else pc + 1)
  | KIfnull target ->
    t.t_pc <- (if pop vm t = 0 then target else pc + 1)
  | KIfnonnull target ->
    t.t_pc <- (if pop vm t <> 0 then target else pc + 1)
  | KIfrefeq target ->
    let b = pop vm t in
    let a = pop vm t in
    t.t_pc <- (if a = b then target else pc + 1)
  | KIfrefne target ->
    let b = pop vm t in
    let a = pop vm t in
    t.t_pc <- (if a <> b then target else pc + 1)
  | KGoto target -> t.t_pc <- target
  | KNew cid ->
    if ensure_initialized vm cid then begin
      push vm t (Heap.alloc_object vm cid);
      t.t_pc <- pc + 1
    end
  | KGetfield (slot, _) ->
    let obj = pop vm t in
    check_null obj;
    (match vm.hooks.h_heap_read with Some f -> f vm obj slot | None -> ());
    push vm t vm.heap.(obj + slot);
    t.t_pc <- pc + 1
  | KPutfield (slot, _) ->
    let v = pop vm t in
    let obj = pop vm t in
    check_null obj;
    (match vm.hooks.h_heap_write with Some f -> f vm obj slot | None -> ());
    vm.heap.(obj + slot) <- v;
    t.t_pc <- pc + 1
  | KGetstatic (cid, slot, _) ->
    if ensure_initialized vm cid then begin
      (match vm.hooks.h_heap_read with Some f -> f vm (-1) slot | None -> ());
      push vm t vm.globals.(slot);
      t.t_pc <- pc + 1
    end
  | KPutstatic (cid, slot, _) ->
    if ensure_initialized vm cid then begin
      let v = pop vm t in
      (match vm.hooks.h_heap_write with Some f -> f vm (-1) slot | None -> ());
      vm.globals.(slot) <- v;
      t.t_pc <- pc + 1
    end
  | KNewarray ty ->
    let len = pop vm t in
    if len < 0 then raise (Rt.Vm_exception "NegativeArraySizeException");
    push vm t (Heap.alloc_array vm ~elem_ref:(Bytecode.Instr.is_ref_ty ty) ~len);
    t.t_pc <- pc + 1
  | KAload ->
    let idx = pop vm t in
    let arr = pop vm t in
    check_null arr;
    check_bounds vm arr idx;
    (match vm.hooks.h_heap_read with
    | Some f -> f vm arr (Layout.header_words + idx)
    | None -> ());
    push vm t (Layout.get vm arr idx);
    t.t_pc <- pc + 1
  | KAstore ->
    let v = pop vm t in
    let idx = pop vm t in
    let arr = pop vm t in
    check_null arr;
    check_bounds vm arr idx;
    (match vm.hooks.h_heap_write with
    | Some f -> f vm arr (Layout.header_words + idx)
    | None -> ());
    Layout.set vm arr idx v;
    t.t_pc <- pc + 1
  | KArraylength ->
    let arr = pop vm t in
    check_null arr;
    push vm t (Layout.len_of vm arr);
    t.t_pc <- pc + 1
  | KCheckcast cid ->
    let obj = peek vm t 0 in
    if obj <> 0 && not (Rt.is_subclass vm ~sub:(Layout.class_of vm obj) ~sup:cid)
    then raise (Rt.Vm_exception "ClassCastException");
    t.t_pc <- pc + 1
  | KInstanceof cid ->
    let obj = pop vm t in
    push vm t
      (if obj <> 0 && Rt.is_subclass vm ~sub:(Layout.class_of vm obj) ~sup:cid
       then 1
       else 0);
    t.t_pc <- pc + 1
  | KInvokestatic callee ->
    if ensure_initialized vm callee.rm_cid then
      push_frame vm callee ~resume_pc:(pc + 1) ()
  | KInvokevirtual (_, vslot, nargs) ->
    let receiver = peek vm t (nargs - 1) in
    check_null receiver;
    let callee = Rt.virtual_target vm (Layout.class_of vm receiver) vslot in
    push_frame vm callee ~resume_pc:(pc + 1) ()
  | KRet -> do_return vm ~result:None
  | KRetv ->
    let v = pop vm t in
    do_return vm ~result:(Some v)
  | KThrow ->
    let exc = pop vm t in
    check_null exc;
    raise_exception vm exc
  | KMonitorenter ->
    let obj = pop vm t in
    check_null obj;
    t.t_pc <- pc + 1;
    Sched.monitor_enter vm obj
  | KMonitorexit ->
    let obj = pop vm t in
    check_null obj;
    Sched.monitor_exit vm obj;
    t.t_pc <- pc + 1
  | KWait ->
    let obj = pop vm t in
    check_null obj;
    Sched.check_owned vm obj;
    t.t_pc <- pc + 1;
    Sched.do_wait vm obj ~timeout_ms:None
  | KTimedwait ->
    let ms = pop vm t in
    let obj = pop vm t in
    check_null obj;
    Sched.check_owned vm obj;
    t.t_pc <- pc + 1;
    Sched.do_wait vm obj ~timeout_ms:(Some ms)
  | KNotify ->
    let obj = pop vm t in
    check_null obj;
    Sched.do_notify vm obj ~all:false;
    t.t_pc <- pc + 1
  | KNotifyall ->
    let obj = pop vm t in
    check_null obj;
    Sched.do_notify vm obj ~all:true;
    t.t_pc <- pc + 1
  | KSpawnstatic callee ->
    if ensure_initialized vm callee.rm_cid then begin
      let cc = Compile.compile vm callee in
      let stack_addr =
        Heap.alloc_stack_array vm ~len:(thread_stack_size vm callee cc)
      in
      (* args still live on this thread's operand stack across the
         allocation above; copy them now *)
      let nargs = callee.rm_nargs in
      let args = Array.init nargs (fun i -> peek vm t (nargs - 1 - i)) in
      t.t_sp <- t.t_sp - nargs;
      let tid =
        create_thread vm
          ~name:(Fmt.str "thread-%d" vm.n_threads)
          callee ~stack_addr ~args
      in
      Sched.ready vm tid;
      push vm t tid;
      t.t_pc <- pc + 1
    end
  | KSpawnvirtual (_, vslot, nargs) ->
    let receiver = peek vm t (nargs - 1) in
    check_null receiver;
    let callee = Rt.virtual_target vm (Layout.class_of vm receiver) vslot in
    let cc = Compile.compile vm callee in
    let stack_addr =
      Heap.alloc_stack_array vm ~len:(thread_stack_size vm callee cc)
    in
    let args = Array.init nargs (fun i -> peek vm t (nargs - 1 - i)) in
    t.t_sp <- t.t_sp - nargs;
    let tid =
      create_thread vm
        ~name:(Fmt.str "thread-%d" vm.n_threads)
        callee ~stack_addr ~args
    in
    Sched.ready vm tid;
    push vm t tid;
    t.t_pc <- pc + 1
  | KSleep ->
    let ms = pop vm t in
    t.t_pc <- pc + 1;
    Sched.do_sleep vm ms
  | KJoin ->
    let tid = pop vm t in
    if tid < 0 || tid >= vm.n_threads then npe ();
    t.t_pc <- pc + 1;
    Sched.do_join vm tid
  | KInterrupt ->
    let tid = pop vm t in
    if tid < 0 || tid >= vm.n_threads then npe ();
    Sched.do_interrupt vm tid;
    t.t_pc <- pc + 1
  | KCurrenttime ->
    push vm t (Rt.read_clock vm Rt.Capp);
    t.t_pc <- pc + 1
  | KReadinput ->
    vm.stats.n_input_reads <- vm.stats.n_input_reads + 1;
    push vm t (vm.hooks.h_input vm);
    t.t_pc <- pc + 1
  | KNative nid -> do_native vm t nid pc
  | KPrint ->
    let v = pop vm t in
    Buffer.add_string vm.output (string_of_int v);
    Buffer.add_char vm.output '\n';
    t.t_pc <- pc + 1
  | KPrints ->
    let s = pop vm t in
    check_null s;
    Buffer.add_string vm.output (Layout.string_value vm s);
    t.t_pc <- pc + 1
  | KHalt -> vm.status <- Rt.Halted 0
  | KNop -> t.t_pc <- pc + 1
  | KYield ->
    vm.stats.n_yield <- vm.stats.n_yield + 1;
    t.t_pc <- pc + 1;
    vm.hooks.h_yieldpoint vm

(* Advance the environment clock for [n] executed instructions and latch
   any timer fire into the preemption bit: one stub call, the same draws
   and fire count as [n] single ticks. Inlined into the dispatch loop
   (n = 1, once per stack-tier instruction) and into [tick_segment]. A
   replaying VM ([env_ticks] off) does nothing here: its switches come
   from the trace, so the timer has no reader. *)
let[@inline] clock_batch (vm : Rt.t) n =
  if vm.env_ticks then begin
    (* open-coded [Env.tick_batch] fast path: strictly inside the
       precomputed horizon a tick is two counter bumps, and this duplicate
       keeps it free of the cross-module call (semantically identical —
       [tick_batch] runs the very same branch first) *)
    let e = vm.env in
    if e.Env.h_valid && e.Env.h_pending + n < e.Env.h_count then begin
      e.Env.h_pending <- e.Env.h_pending + n;
      e.Env.ticks <- e.Env.ticks + n
    end
    else
      let fires = Env.tick_batch e n in
      if fires > 0 then begin
        vm.preempt_pending <- true;
        vm.stats.n_preempt_req <- vm.stats.n_preempt_req + fires
      end
  end

(* --- the register tier -------------------------------------------------- *)

(* Open the tick segment at op [i] of a region: report its [n] canonical
   pcs to an attached observer, in order, then pay their ticks. The
   segment starts at the region entry (still in [t_pc]) or right after
   the previous segment's final op — the lowering closes every segment
   with one, and only a risky, yield or monitor final lets the region
   go on. *)
let tick_segment (vm : Rt.t) (t : Rt.thread) (ops : Rt.rop array) i n =
  (match vm.hooks.h_observe with
  | Some f ->
    let pc =
      if i = 0 then t.t_pc
      else
        match ops.(i - 1) with
        | Rt.RDivRem (_, pc, _) | RGetfield (_, pc, _) | RPutfield (_, pc, _)
        | RGetstatic (_, _, pc, _) | RPutstatic (_, _, pc, _) | RAload (pc, _)
        | RAstore (pc, _) | RInstr (pc, _) -> pc + 1
        | RYield (npc, _) | RMonEnter (npc, _) | RMonExit (npc, _) -> npc
        | _ -> fatal "region tick not after a segment end"
    in
    let meth = t.t_meth in
    let code = (Rt.compiled meth).k_code in
    for p = pc to pc + n - 1 do
      f vm t.tid meth.uid p (Rt.tag_of_cinstr code.(p))
    done
  | None -> ());
  clock_batch vm n

(* Execute one lowered region of the current method ([code] is its
   canonical stream, [regions] its region table) on thread [t], then
   *chain*: when the region ends in a same-frame control transfer (branch,
   goto, fall-through) whose target opens another region that still fits
   in the remaining fuel, keep executing there without a round trip
   through the outer dispatch loop. Chains terminate because every region
   pays at least two ticks into [executed] before its terminal runs, so
   the fuel guard in [chain] is strictly decreasing. Regions that end in a
   call or return never chain — those change the method, and [regions]
   indexes the current method only. The caller has checked that the first
   region fits the remaining fuel.
   [RTick n] also serves an attached observer ([tick_segment]): it reports
   the segment's [n] canonical pcs before the tick and the segment's
   effects — the stack tier's exact events. Unobserved, that costs one
   hook test per tick.

   Frame slots are addressed through a cached absolute base into the heap
   array; both caches are refreshed after anything that can allocate (GC
   may move the stack array or replace the heap in a semispace flip).
   Within a fault-free segment [t_pc]/[t_sp] are deliberately stale —
   nothing can observe them — and every op that can fault, allocate, or
   run a hook stores its canonical pc and fault-time sp first, so
   unwinding, GC stack scans, and heap hooks see exactly the frame the
   stack tier would have shown them. [RTick n] pays the clock for the
   next [n] canonical instructions in one stub call *before* their
   effects; that reordering is unobservable because ticks never read
   guest memory and the covered instructions cannot fault before their
   own (already-paid) tick. An [ensure_initialized] bail leaves pc at the
   faulting instruction with its tick and [executed] slot already paid —
   the same accounting as the stack tier's failed attempt — and the next
   outer iteration re-enters through clinit frames.

   [RInstr (pc, sp)] hands one canonical instruction to the stack tier:
   it stores pc and sp (the lowering materialized every slot before it)
   and calls [dispatch] on [code.(pc)] — the one executor of str, neg,
   swap, instanceof, new, newarray, arraylength, checkcast, prints, calls
   and returns. The region continues only if the instruction fell through
   ([t_pc] = pc + 1) on the same thread while the VM is still [Running_],
   and then re-reads the heap/base caches, since the instruction may have
   allocated. Anything else — a fault, a class-init bail, a call or a
   return — leaves the thread where dispatch left it. A return can land
   on pc + 1 of its caller by coincidence, but a call or return is always
   the region's last op ([Regir.check]), so nothing runs after it.

   [RYield] runs the yield-point hook in-region. Its canonical pc/sp are
   stored first (the preceding flush materialized every slot), so a hook
   that switches threads leaves this thread exactly where the stack tier
   would: execution bails out and the outer loop picks up the new thread.
   When the hook returns with the same thread still current, the region
   continues — but the hook may have grown this thread's stack or run a
   collection even without switching (a same-thread re-pick still runs
   the instrumentation's eager stack growth), so the heap/base caches are
   recomputed unconditionally. *)
let exec_region (vm : Rt.t) (t : Rt.thread) (r0 : Rt.region)
    (code : Rt.cinstr array) (regions : Rt.region option array) ~fuel executed =
  let rec run_region (r : Rt.region) =
    let ops = r.Rt.r_ops in
    let nops = Array.length ops in
    (* sp value for a slot index; constant across the region (no frame
       push/pop until a terminal ends it) *)
    let fbase = t.t_fp + Rt.frame_header_words in
    (* Tail-recursive so the heap array and absolute slot base stay in
       registers — no refs or closures on this path (no flambda). The ops
       that may allocate or move the stack ([RInstr], yield, monitor ops)
       re-enter with fresh [heap]/[base] parameters; heap hooks never
       allocate in the guest heap, so they keep the cache. *)
    let rec go i (heap : int array) base =
    if i < nops then
      match Array.unsafe_get ops i with
      | Rt.RTick n ->
        executed := !executed + n;
        tick_segment vm t ops i n;
        go (i + 1) heap base
      | Rt.RConst (d, v) ->
        Array.unsafe_set heap (base + d) v;
        go (i + 1) heap base
      | Rt.RMove (d, s) ->
        Array.unsafe_set heap (base + d) (Array.unsafe_get heap (base + s));
        go (i + 1) heap base
      | Rt.RBin (op, d, a, b) ->
        Array.unsafe_set heap (base + d)
          (binop op
             (Array.unsafe_get heap (base + a))
             (Array.unsafe_get heap (base + b)));
        go (i + 1) heap base
      | Rt.RBinC (op, d, a, c) ->
        Array.unsafe_set heap (base + d)
          (binop op (Array.unsafe_get heap (base + a)) c);
        go (i + 1) heap base
      | Rt.RBinCL (op, d, c, b) ->
        Array.unsafe_set heap (base + d)
          (binop op c (Array.unsafe_get heap (base + b)));
        go (i + 1) heap base
      | Rt.RPrint s ->
        Buffer.add_string vm.output
          (string_of_int (Array.unsafe_get heap (base + s)));
        Buffer.add_char vm.output '\n';
        go (i + 1) heap base
      | Rt.RDivRem (op, pc, d) ->
        t.t_pc <- pc;
        t.t_sp <- fbase + d;
        let b = Array.unsafe_get heap (base + d + 1) in
        Array.unsafe_set heap (base + d)
          (binop op (Array.unsafe_get heap (base + d)) b);
        go (i + 1) heap base
      | Rt.RGetfield (slot, pc, os) ->
        t.t_pc <- pc;
        t.t_sp <- fbase + os;
        let obj = Array.unsafe_get heap (base + os) in
        check_null obj;
        (match vm.hooks.h_heap_read with Some f -> f vm obj slot | None -> ());
        Array.unsafe_set heap (base + os) vm.heap.(obj + slot);
        go (i + 1) heap base
      | Rt.RPutfield (slot, pc, os) ->
        t.t_pc <- pc;
        t.t_sp <- fbase + os;
        let v = Array.unsafe_get heap (base + os + 1) in
        let obj = Array.unsafe_get heap (base + os) in
        check_null obj;
        (match vm.hooks.h_heap_write with Some f -> f vm obj slot | None -> ());
        vm.heap.(obj + slot) <- v;
        go (i + 1) heap base
      | Rt.RGetstatic (cid, g, pc, d) ->
        t.t_pc <- pc;
        t.t_sp <- fbase + d;
        (* true means already initialized: nothing allocated, caches hold *)
        if ensure_initialized vm cid then begin
          (match vm.hooks.h_heap_read with Some f -> f vm (-1) g | None -> ());
          Array.unsafe_set heap (base + d) vm.globals.(g);
          go (i + 1) heap base
        end
      | Rt.RPutstatic (cid, g, pc, vs) ->
        t.t_pc <- pc;
        t.t_sp <- fbase + vs + 1;
        if ensure_initialized vm cid then begin
          let v = Array.unsafe_get heap (base + vs) in
          t.t_sp <- fbase + vs;
          (match vm.hooks.h_heap_write with
          | Some f -> f vm (-1) g
          | None -> ());
          vm.globals.(g) <- v;
          go (i + 1) heap base
        end
      | Rt.RAload (pc, a) ->
        t.t_pc <- pc;
        t.t_sp <- fbase + a;
        let idx = Array.unsafe_get heap (base + a + 1) in
        let arr = Array.unsafe_get heap (base + a) in
        check_null arr;
        check_bounds vm arr idx;
        (match vm.hooks.h_heap_read with
        | Some f -> f vm arr (Layout.header_words + idx)
        | None -> ());
        Array.unsafe_set heap (base + a) (Layout.get vm arr idx);
        go (i + 1) heap base
      | Rt.RAstore (pc, a) ->
        t.t_pc <- pc;
        t.t_sp <- fbase + a;
        let v = Array.unsafe_get heap (base + a + 2) in
        let idx = Array.unsafe_get heap (base + a + 1) in
        let arr = Array.unsafe_get heap (base + a) in
        check_null arr;
        check_bounds vm arr idx;
        (match vm.hooks.h_heap_write with
        | Some f -> f vm arr (Layout.header_words + idx)
        | None -> ());
        Layout.set vm arr idx v;
        go (i + 1) heap base
      | Rt.RYield (npc, ss) ->
        vm.stats.n_yield <- vm.stats.n_yield + 1;
        t.t_pc <- npc;
        t.t_sp <- fbase + ss;
        vm.hooks.h_yieldpoint vm;
        (match vm.status with
        | Rt.Running_ when vm.current = t.tid ->
          go (i + 1) vm.heap (t.t_stack + Layout.header_words + fbase)
        | _ -> ())
      | Rt.RMonEnter (npc, os) ->
        (* canonical order: null check faults at the monitorenter pc with
           the object already popped; pc advances before the scheduler
           runs, so a contended park resumes past the instruction (the
           exiting owner hands the monitor over). The region continues
           only on the uncontended path — same guard as a yield. *)
        t.t_pc <- npc - 1;
        t.t_sp <- fbase + os;
        let obj = Array.unsafe_get heap (base + os) in
        check_null obj;
        t.t_pc <- npc;
        vm.stats.n_regir_mon <- vm.stats.n_regir_mon + 1;
        Sched.monitor_enter vm obj;
        (match vm.status with
        | Rt.Running_ when vm.current = t.tid ->
          go (i + 1) vm.heap (t.t_stack + Layout.header_words + fbase)
        | _ -> ())
      | Rt.RMonExit (npc, os) ->
        (* release may raise IllegalMonitorState (canonical frames are in
           place) and may ready the next owner, but never parks the
           current thread: the region always continues *)
        t.t_pc <- npc - 1;
        t.t_sp <- fbase + os;
        let obj = Array.unsafe_get heap (base + os) in
        check_null obj;
        vm.stats.n_regir_mon <- vm.stats.n_regir_mon + 1;
        Sched.monitor_exit vm obj;
        t.t_pc <- npc;
        go (i + 1) vm.heap (t.t_stack + Layout.header_words + fbase)
      | Rt.RIf (cmp, target, fall, a) ->
        let b = Array.unsafe_get heap (base + a + 1) in
        let x = Array.unsafe_get heap (base + a) in
        t.t_sp <- fbase + a;
        let pc' = if Bytecode.Instr.eval_cmp cmp x b then target else fall in
        t.t_pc <- pc';
        chain pc'
      | Rt.RIfz (cmp, target, fall, a) ->
        let x = Array.unsafe_get heap (base + a) in
        t.t_sp <- fbase + a;
        let pc' = if Bytecode.Instr.eval_cmp cmp x 0 then target else fall in
        t.t_pc <- pc';
        chain pc'
      | Rt.RGoto (target, ss) ->
        t.t_sp <- fbase + ss;
        t.t_pc <- target;
        chain target
      | Rt.RInstr (pc, ss) ->
        t.t_pc <- pc;
        t.t_sp <- fbase + ss;
        dispatch vm t pc (Array.unsafe_get code pc);
        (match vm.status with
        | Rt.Running_ when t.t_pc = pc + 1 && vm.current = t.tid ->
          go (i + 1) vm.heap (t.t_stack + Layout.header_words + fbase)
        | _ -> ())
      | Rt.REnd (next_pc, ss) ->
        t.t_pc <- next_pc;
        t.t_sp <- fbase + ss;
        chain next_pc
    in
    go 0 vm.heap (t.t_stack + Layout.header_words + fbase)
  and chain pc =
    match Array.unsafe_get regions pc with
    | Some r when fuel - !executed >= r.Rt.r_n -> run_region r
    | _ -> ()
  in
  run_region r0

(* The errors that end a run [Fatal] instead of escaping it: the heap is
   exhausted, a method fails to verify or compile (each is checked when
   first compiled, [main] at boot included), or an interpreter invariant
   breaks. Anything else (a replay divergence, a cancellation) re-raises. *)
let end_fatal (vm : Rt.t) = function
  | Heap.Out_of_memory -> vm.status <- Rt.Fatal "OutOfMemoryError"
  | Verify.Error msg -> vm.status <- Rt.Fatal ("verify: " ^ msg)
  | Compile.Error msg -> vm.status <- Rt.Fatal ("compile: " ^ msg)
  | Fatal msg -> vm.status <- Rt.Fatal msg
  | e -> raise e

(* The batched hot path: run up to [fuel] instructions before returning.

   The outer loop re-reads everything a dispatch segment depends on — the
   current thread, its compiled body, and the observer — then a tight
   inner loop dispatches until the segment dies: a call, return, or unwind
   changes the method; a yield point or blocking operation switches
   threads; the machine leaves Running_; or the fuel runs out. Yield points
   that do NOT switch (the overwhelmingly common case: one per guest loop
   iteration vs. one switch per scheduling quantum) stay inside the loop.

   Each step runs a register region when one starts at the pc and fits the
   remaining fuel — same ticks, PRNG draws, instruction counts and observer
   events as its instructions (DESIGN.md sections 7 and 10) — otherwise
   the canonical instruction: observe, clock, dispatch. Pcs without a
   region (excluded instructions, and region interiors reached when a
   region no longer fits or left off part-way at a switch or class init)
   run one instruction at a time. [n_instr] is committed in one batched
   store per call, including the faulting instruction when an exception
   unwinds. An observer attached mid-segment is seen at the latest at the
   next segment boundary (stock instrumentation attaches before the run). *)
let exec_batch (vm : Rt.t) ~fuel =
  let executed = ref 0 in
  let commit () = vm.stats.n_instr <- vm.stats.n_instr + !executed in
  try
    while vm.status = Rt.Running_ && !executed < fuel do
      let tid = vm.current in
      let t = vm.threads.(tid) in
      let meth = t.t_meth in
      let comp = Rt.compiled meth in
      let code = comp.k_code and regions = comp.k_regions in
      let observe = vm.hooks.h_observe in
      let live = ref true in
      while !live do
        let pc = t.t_pc in
        (match Array.unsafe_get regions pc with
        | Some r when fuel - !executed >= r.Rt.r_n ->
          let before = !executed in
          exec_region vm t r code regions ~fuel executed;
          vm.stats.n_regir_instr <-
            vm.stats.n_regir_instr + (!executed - before)
        | _ ->
          let ins = code.(pc) in
          incr executed;
          (match observe with
          | Some f -> f vm tid meth.uid pc (Rt.tag_of_cinstr ins)
          | None -> ());
          clock_batch vm 1;
          dispatch vm t pc ins);
        if
          vm.current <> tid || t.t_meth != meth
          || vm.status <> Rt.Running_ || !executed >= fuel
        then live := false
      done
    done;
    commit ()
  with
  | Rt.Vm_exception name ->
    commit ();
    throw_by_name vm name
  | e ->
    (* keep the count exact; divergence signals etc. propagate *)
    commit ();
    end_fatal vm e

(* One instruction of the current thread: the batched loop with one unit of
   fuel. No region fits (every region retires at least two instructions),
   so the instruction takes the canonical path with the same hooks, clock
   tick, exception conversion and [n_instr] accounting as a full run. *)
let step (vm : Rt.t) = exec_batch vm ~fuel:1

(* Create the main thread and queue main-class initialization. [main] is
   compiled here, outside [exec_batch], so its verify and compile errors
   end the run [Fatal] through the same rule as every other method's. *)
let boot (vm : Rt.t) =
  try
    let main_cid = Rt.class_id vm vm.program.main_class in
    let main_uid =
      match Hashtbl.find_opt vm.classes.(main_cid).rc_method_of "main" with
      | Some uid -> uid
      | None -> fatal "no main method in %s" vm.program.main_class
    in
    let main = vm.methods.(main_uid) in
    let cc = Compile.compile vm main in
    let stack_addr =
      Heap.alloc_stack_array vm ~len:(thread_stack_size vm main cc)
    in
    let tid = create_thread vm ~name:"main" main ~stack_addr ~args:[||] in
    Sched.ready vm tid;
    Sched.dispatch vm;
    ignore (ensure_initialized vm main_cid);
    vm.status <- Rt.Running_
  with e -> end_fatal vm e

let run ?limit (vm : Rt.t) =
  let limit = match limit with Some l -> l | None -> vm.cfg.instr_limit in
  while vm.status = Rt.Running_ && vm.stats.n_instr < limit do
    exec_batch vm ~fuel:(limit - vm.stats.n_instr)
  done;
  if vm.status = Rt.Running_ then
    vm.status <- Rt.Fatal (Fmt.str "instruction limit (%d) exceeded" limit)

(* Run at most [fuel] more instructions, leaving the status Running_ when
   the budget elapses mid-program: the job server's cooperative
   deadline/cancellation checks slot between slices. The caller enforces
   any overall instruction limit. *)
let run_slice (vm : Rt.t) ~fuel =
  let stop = vm.stats.n_instr + fuel in
  while vm.status = Rt.Running_ && vm.stats.n_instr < stop do
    exec_batch vm ~fuel:(stop - vm.stats.n_instr)
  done
