(* Public facade of the virtual-machine substrate: building a VM from a
   bytecode program, running it, and inspecting the result. The submodules
   are re-exported for the replay engine, the baselines, the remote
   reflection layer, and the debugger, all of which hook into VM internals
   the way DejaVu's instrumentation is compiled into Jalapeño. *)

module Prng = Prng
module Env = Env
module Rt = Rt
module Layout = Layout
module Frames = Frames
module Verify = Verify
module Link = Link
module Compile = Compile
module Regir = Regir
module Gc = Gc
module Heap = Heap
module Sched = Sched
module Interp = Interp
module Native = Native
module Observer = Observer
module Digest_state = Digest_state
module Snapshot = Snapshot
module Kdisasm = Kdisasm

type t = Rt.t

let dummy_thread (meth : Rt.rmethod) : Rt.thread =
  {
    Rt.tid = -1;
    t_name = "<none>";
    t_stack = 0;
    t_fp = 0;
    t_sp = 0;
    t_pc = 0;
    t_meth = meth;
    t_state = Rt.Terminated;
    t_wake = 0;
    t_interrupted = false;
    t_wait_mon = -1;
    t_saved_count = 0;
    t_joiners = [];
    t_exc = 0;
  }

(* Live-mode hooks: consult the environment directly. Record/replay modes
   (lib/core) and the baseline schemes (lib/baselines) replace these. *)
let live_hooks () : Rt.hooks =
  {
    Rt.h_yieldpoint =
      (fun vm ->
        if vm.Rt.preempt_pending then begin
          vm.Rt.preempt_pending <- false;
          Sched.perform_thread_switch vm
        end);
    h_clock =
      (fun vm reason ->
        match reason with
        | Rt.Cidle earliest -> Env.idle_until vm.Rt.env earliest
        | Rt.Capp | Rt.Csched -> Env.read_clock vm.Rt.env);
    h_input = (fun vm -> Env.read_input vm.Rt.env);
    h_native = (fun vm nat args -> nat.Rt.nat_fn vm args);
    h_observe = None;
    h_heap_read = None;
    h_heap_write = None;
    h_switch = None;
    h_pick = None;
    h_spawn = None;
    h_lock = None;
    h_hb = None;
  }

(* Put the hooks record back in live mode, field by field: [Rt.t.hooks] is
   an immutable field holding a record of mutable closures, and sessions
   (recorder, replayer, baselines, observers) mutate those fields in place.
   Snapshots deliberately do not cover hooks, so a VM being reset for reuse
   must have them reinstalled explicitly. The environment clock goes back
   on too: a replay switched it off, and the next job on a warm VM may
   record. *)
let install_live_hooks (vm : Rt.t) =
  let h = live_hooks () in
  let hk = vm.Rt.hooks in
  hk.Rt.h_yieldpoint <- h.Rt.h_yieldpoint;
  hk.h_clock <- h.h_clock;
  hk.h_input <- h.h_input;
  hk.h_native <- h.h_native;
  hk.h_observe <- None;
  hk.h_heap_read <- None;
  hk.h_heap_write <- None;
  hk.h_switch <- None;
  hk.h_pick <- None;
  hk.h_spawn <- None;
  hk.h_lock <- None;
  hk.h_hb <- None;
  vm.Rt.env_ticks <- true

let create ?(config = Rt.default_config) ?(natives = []) ?(inputs = [])
    (program : Bytecode.Decl.program) : t =
  let image = Link.build program in
  let env = Env.create ~inputs config.env_cfg in
  let specs = Native.stock @ natives in
  let native_id_of = Hashtbl.create 16 in
  List.iteri (fun i (s : Native.spec) -> Hashtbl.replace native_id_of s.name i) specs;
  let natives_by_id =
    Array.of_list
      (List.mapi
         (fun i s ->
           Native.resolve image.i_methods image.i_class_of_name
             image.i_classes i s)
         specs)
  in
  let global_refs = Array.make (max 1 image.i_nglobals) false in
  Array.iter
    (fun (c : Rt.rclass) ->
      Array.iteri
        (fun i (_, ty) ->
          global_refs.(c.rc_statics_base + i) <- Bytecode.Instr.is_ref_ty ty)
        c.rc_statics)
    image.i_classes;
  let dummy =
    dummy_thread
      (if Array.length image.i_methods > 0 then image.i_methods.(0)
       else invalid_arg "program has no methods")
  in
  let vm : Rt.t =
    {
      cfg = config;
      program;
      env;
      (* the semispace is a semantic size (the allocator's exhaustion check
         and GC trigger use [config.heap_words]); the backing array starts
         small and [Heap] doubles it on demand, so VM start-up does not pay
         for zeroing megabytes most runs never touch *)
      heap = Array.make (min config.heap_words 16384) 0;
      (* the GC to-space materializes at the first collection — most short
         runs never collect, and eagerly zeroing a second semispace here
         would dominate VM start-up *)
      heap_alt = [||];
      hp = Gc.heap_start;
      gc_threshold = 0;
      temp_roots = Array.make 16 0;
      n_temps = 0;
      pinned_roots = Array.make 4 0;
      n_pinned = 0;
      globals = Array.make (max 1 image.i_nglobals) 0;
      global_refs;
      nglobals = image.i_nglobals;
      classes = image.i_classes;
      class_of_name = image.i_class_of_name;
      methods = image.i_methods;
      natives_by_id;
      native_id_of;
      monitors =
        Array.init 8 (fun i ->
            {
              Rt.m_id = i;
              m_owner = -1;
              m_count = 0;
              m_entryq = Queue.create ();
              m_waitset = [];
            });
      n_monitors = 1 (* id 0 is reserved for "none" *);
      threads = Array.make 4 dummy;
      n_threads = 0;
      readyq = Queue.create ();
      current = -1;
      sleepers = [];
      live_threads = 0;
      status = Rt.Running_;
      preempt_pending = false;
      env_ticks = true;
      output = Buffer.create 256;
      hooks = live_hooks ();
      stats = Rt.fresh_stats ();
    }
  in
  vm

(* Reset a VM to a baseline snapshot for reuse (the farm's warm shards).
   [Snapshot.restore] brings back every snapshotted piece of mutable state
   — including the PRNG positions and counters captured at save time — but
   not the hooks, so those are reinstalled in live mode; a [seed] re-points
   both environment streams as if the VM had been created under that seed.

   For a baseline saved immediately after [create] (nothing run, nothing
   drawn), restore + reseed is state-identical to a fresh [create] under
   the new seed: the heap prefix up to [hp], roots, globals, class states,
   monitors, threads, scheduler queues, environment counters, and stats all
   revert to creation values; stale heap words beyond [hp] are invisible
   (the bump allocator zero-fills every allocation and the state digest
   stops at [hp]); methods compiled meanwhile are un-installed so a reused
   VM re-pays the same compile-time clock charges a cold boot pays (from
   the methods' code caches: the bodies are not compiled again). *)
let reset ?seed (vm : t) (baseline : Snapshot.t) =
  Snapshot.restore vm baseline;
  install_live_hooks vm;
  match seed with None -> () | Some s -> Env.reseed vm.Rt.env s

let boot = Interp.boot

let step = Interp.step

let run ?limit (vm : t) =
  if vm.Rt.n_threads = 0 then boot vm;
  Interp.run ?limit vm;
  vm.Rt.status

(* Cooperative slice: run at most [fuel] more instructions, returning
   Running_ if the program has not finished — the replay farm interleaves
   deadline and cancellation checks between slices. *)
let run_slice ?(fuel = 100_000) (vm : t) =
  if vm.Rt.n_threads = 0 then boot vm;
  Interp.run_slice vm ~fuel;
  vm.Rt.status

let output (vm : t) = Buffer.contents vm.Rt.output

let status (vm : t) = vm.Rt.status

let stats (vm : t) = vm.Rt.stats

let digest = Digest_state.digest

let string_of_status = function
  | Rt.Running_ -> "running"
  | Rt.Finished -> "finished"
  | Rt.Halted c -> Fmt.str "halted(%d)" c
  | Rt.Deadlocked -> "deadlocked"
  | Rt.Fatal m -> "fatal: " ^ m

(* Run a program from scratch with a given seed — the everyday entry point. *)
let execute ?(config = Rt.default_config) ?natives ?inputs ?seed ?limit program
    =
  let config =
    match seed with
    | None -> config
    | Some s -> { config with Rt.env_cfg = { config.Rt.env_cfg with Env.seed = s } }
  in
  let vm = create ~config ?natives ?inputs program in
  let st = run ?limit vm in
  (vm, st)
