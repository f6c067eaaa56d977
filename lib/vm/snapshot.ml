(* Whole-machine checkpoints: a deep copy of every piece of mutable VM
   state, restorable in place (the Rt.t record identity is preserved so
   installed hook closures stay valid).

   This is the mechanism behind checkpoint-accelerated time travel in the
   debugger — the replay-platform rendition of the checkpoint/re-execute
   reverse debuggers the paper discusses in section 5 (Igor, Recap, PPD,
   Boothe): instead of forking processes, a deterministic replayer only
   needs periodic snapshots plus re-execution from the nearest one.

   It is also the reset mechanism behind the farm's warm shards: a baseline
   saved immediately after Vm.create is restored between jobs (plus a hook
   reinstall and an Env reseed — see Vm.reset), which replaces the per-job
   cold boot with a blit of the 4-word creation heap prefix.

   Compiled code is split by the checkpoint line. Methods compiled BEFORE
   the save stay compiled across a restore — keeping the code cache warm
   (with its register regions and inline caches) is the point of a
   checkpoint, and neither warm regions nor warm IC contents is VM-visible.
   Methods compiled AFTER the save are rolled back to uncompiled: the
   compiler charges the virtual clock, so a live re-execution from the
   checkpoint must re-pay exactly the charges the first execution paid
   after that point, or the timelines diverge.
   Class initialization state IS rolled back: it has heap side effects. *)

type thread_snap = {
  s_tid : int;
  s_name : string;
  s_stack : int;
  s_fp : int;
  s_sp : int;
  s_pc : int;
  s_meth : Rt.rmethod;
  s_state : Rt.tstate;
  s_wake : int;
  s_interrupted : bool;
  s_wait_mon : int;
  s_saved_count : int;
  s_joiners : int list;
  s_exc : int;
}

type monitor_snap = {
  s_owner : int;
  s_count : int;
  s_entryq : int list;
  s_waitset : int list;
}

type env_snap = {
  s_rng : Prng.t;
  s_input_rng : Prng.t;
  s_now : int;
  s_next_timer : int;
  s_inputs : int list;
  s_input_count : int;
  s_ticks : int;
  s_timer_fires : int;
}

type t = {
  c_heap : int array;
  c_hp : int;
  c_temp_roots : int array;
  c_n_temps : int;
  c_pinned_roots : int array;
  c_n_pinned : int;
  c_globals : int array;
  c_class_states : (Rt.cstate * int array) array; (* rc_state, rc_strings *)
  c_monitors : monitor_snap array;
  c_n_monitors : int;
  c_threads : thread_snap array;
  c_n_threads : int;
  c_readyq : int list;
  c_current : int;
  c_sleepers : (int * int) list;
  c_live_threads : int;
  c_status : Rt.status;
  c_preempt_pending : bool;
  c_output : string;
  c_env : env_snap;
  c_compiled : bool array; (* per uid: was the method compiled at save time? *)
  c_stats : Rt.stats;
  c_words : int; (* rough memory footprint of this checkpoint *)
}

let snap_thread (t : Rt.thread) : thread_snap =
  {
    s_tid = t.tid;
    s_name = t.t_name;
    s_stack = t.t_stack;
    s_fp = t.t_fp;
    s_sp = t.t_sp;
    s_pc = t.t_pc;
    s_meth = t.t_meth;
    s_state = t.t_state;
    s_wake = t.t_wake;
    s_interrupted = t.t_interrupted;
    s_wait_mon = t.t_wait_mon;
    s_saved_count = t.t_saved_count;
    s_joiners = t.t_joiners;
    s_exc = t.t_exc;
  }

let copy_stats (s : Rt.stats) : Rt.stats =
  {
    Rt.n_instr = s.n_instr;
    n_yield = s.n_yield;
    n_switch = s.n_switch;
    n_preempt_req = s.n_preempt_req;
    n_gc = s.n_gc;
    n_alloc_words = s.n_alloc_words;
    n_alloc_objects = s.n_alloc_objects;
    n_compiled_methods = s.n_compiled_methods;
    n_classes_initialized = s.n_classes_initialized;
    n_stack_grows = s.n_stack_grows;
    n_clock_reads = s.n_clock_reads;
    n_input_reads = s.n_input_reads;
    n_native_calls = s.n_native_calls;
    n_monitor_ops = s.n_monitor_ops;
    n_exceptions = s.n_exceptions;
    n_regir_instr = s.n_regir_instr;
    n_regir_mon = s.n_regir_mon;
    n_regir_inline = s.n_regir_inline;
  }

let save (vm : Rt.t) : t =
  (* materialize the environment's deferred ticks first: the snapshot
     copies now/next_timer/rng by value, and must capture the exact state
     an eager clock would hold here *)
  Env.sync vm.env;
  let c_heap = Array.sub vm.heap 0 vm.hp in
  {
    c_heap;
    c_hp = vm.hp;
    c_temp_roots = Array.sub vm.temp_roots 0 vm.n_temps;
    c_n_temps = vm.n_temps;
    c_pinned_roots = Array.sub vm.pinned_roots 0 vm.n_pinned;
    c_n_pinned = vm.n_pinned;
    c_globals = Array.copy vm.globals;
    c_class_states =
      Array.map
        (fun (c : Rt.rclass) -> (c.rc_state, Array.copy c.rc_strings))
        vm.classes;
    c_monitors =
      Array.init vm.n_monitors (fun i ->
          let m = vm.monitors.(i) in
          {
            s_owner = m.m_owner;
            s_count = m.m_count;
            s_entryq = List.of_seq (Queue.to_seq m.m_entryq);
            s_waitset = m.m_waitset;
          });
    c_n_monitors = vm.n_monitors;
    c_threads = Array.init vm.n_threads (fun i -> snap_thread vm.threads.(i));
    c_n_threads = vm.n_threads;
    c_readyq = List.of_seq (Queue.to_seq vm.readyq);
    c_current = vm.current;
    c_sleepers = vm.sleepers;
    c_live_threads = vm.live_threads;
    c_status = vm.status;
    c_preempt_pending = vm.preempt_pending;
    c_output = Buffer.contents vm.output;
    c_env =
      {
        s_rng = Prng.copy vm.env.rng;
        s_input_rng = Prng.copy vm.env.input_rng;
        s_now = vm.env.now;
        s_next_timer = vm.env.next_timer;
        s_inputs = vm.env.inputs;
        s_input_count = vm.env.input_count;
        s_ticks = vm.env.ticks;
        s_timer_fires = vm.env.timer_fires;
      };
    c_compiled =
      Array.map (fun (m : Rt.rmethod) -> m.rm_compiled <> None) vm.methods;
    c_stats = copy_stats vm.stats;
    c_words = vm.hp + vm.nglobals + (vm.n_threads * 16) + vm.n_monitors * 8;
  }

(* Restore in place. The [vm] must be the instance [save] ran on (same
   program image and configuration). *)
let restore (vm : Rt.t) (c : t) =
  Array.blit c.c_heap 0 vm.heap 0 c.c_hp;
  vm.hp <- c.c_hp;
  vm.n_temps <- c.c_n_temps;
  Array.blit c.c_temp_roots 0 vm.temp_roots 0 c.c_n_temps;
  vm.n_pinned <- c.c_n_pinned;
  Array.blit c.c_pinned_roots 0 vm.pinned_roots 0 c.c_n_pinned;
  Array.blit c.c_globals 0 vm.globals 0 (Array.length c.c_globals);
  Array.iteri
    (fun i (state, strings) ->
      vm.classes.(i).rc_state <- state;
      vm.classes.(i).rc_strings <- Array.copy strings)
    c.c_class_states;
  (* monitors: restore the saved prefix; later-created monitors revert to
     free (their objects are gone from the restored heap anyway) *)
  for i = 0 to vm.n_monitors - 1 do
    let m = vm.monitors.(i) in
    if i < c.c_n_monitors then begin
      let s = c.c_monitors.(i) in
      m.m_owner <- s.s_owner;
      m.m_count <- s.s_count;
      Queue.clear m.m_entryq;
      List.iter (fun tid -> Queue.add tid m.m_entryq) s.s_entryq;
      m.m_waitset <- s.s_waitset
    end
    else begin
      m.m_owner <- -1;
      m.m_count <- 0;
      Queue.clear m.m_entryq;
      m.m_waitset <- []
    end
  done;
  vm.n_monitors <- c.c_n_monitors;
  (* threads: restore the saved prefix in place *)
  for i = 0 to c.c_n_threads - 1 do
    let t = vm.threads.(i) in
    let s = c.c_threads.(i) in
    t.t_stack <- s.s_stack;
    t.t_fp <- s.s_fp;
    t.t_sp <- s.s_sp;
    t.t_pc <- s.s_pc;
    t.t_meth <- s.s_meth;
    t.t_state <- s.s_state;
    t.t_wake <- s.s_wake;
    t.t_interrupted <- s.s_interrupted;
    t.t_wait_mon <- s.s_wait_mon;
    t.t_saved_count <- s.s_saved_count;
    t.t_joiners <- s.s_joiners;
    t.t_exc <- s.s_exc
  done;
  vm.n_threads <- c.c_n_threads;
  Queue.clear vm.readyq;
  List.iter (fun tid -> Queue.add tid vm.readyq) c.c_readyq;
  vm.current <- c.c_current;
  vm.sleepers <- c.c_sleepers;
  vm.live_threads <- c.c_live_threads;
  vm.status <- c.c_status;
  vm.preempt_pending <- c.c_preempt_pending;
  Buffer.clear vm.output;
  Buffer.add_string vm.output c.c_output;
  (* the restored fields ARE the truth: drop any deferred ticks and the
     cached horizon rather than materializing them over the old timeline *)
  Env.forget vm.env;
  Prng.restore vm.env.rng ~from:c.c_env.s_rng;
  Prng.restore vm.env.input_rng ~from:c.c_env.s_input_rng;
  vm.env.now <- c.c_env.s_now;
  vm.env.next_timer <- c.c_env.s_next_timer;
  vm.env.inputs <- c.c_env.s_inputs;
  vm.env.input_count <- c.c_env.s_input_count;
  vm.env.ticks <- c.c_env.s_ticks;
  vm.env.timer_fires <- c.c_env.s_timer_fires;
  (* methods compiled after the save point revert to uncompiled so the
     re-execution re-pays their compile-time clock charges on schedule;
     nothing compiled at save time can be un-compiled here, so no restored
     thread frame loses the body it is executing *)
  Array.iteri
    (fun k (m : Rt.rmethod) ->
      if not c.c_compiled.(k) then m.rm_compiled <- None)
    vm.methods;
  let s = c.c_stats in
  let d = vm.stats in
  d.n_instr <- s.n_instr;
  d.n_yield <- s.n_yield;
  d.n_switch <- s.n_switch;
  d.n_preempt_req <- s.n_preempt_req;
  d.n_gc <- s.n_gc;
  d.n_alloc_words <- s.n_alloc_words;
  d.n_alloc_objects <- s.n_alloc_objects;
  d.n_compiled_methods <- s.n_compiled_methods;
  d.n_classes_initialized <- s.n_classes_initialized;
  d.n_stack_grows <- s.n_stack_grows;
  d.n_clock_reads <- s.n_clock_reads;
  d.n_input_reads <- s.n_input_reads;
  d.n_native_calls <- s.n_native_calls;
  d.n_monitor_ops <- s.n_monitor_ops;
  d.n_exceptions <- s.n_exceptions;
  d.n_regir_instr <- s.n_regir_instr;
  d.n_regir_mon <- s.n_regir_mon;
  d.n_regir_inline <- s.n_regir_inline

let words (c : t) = c.c_words
