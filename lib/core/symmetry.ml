(* Symmetric side effects (paper section 2.4). DejaVu cannot replay its own
   instrumentation, so every side effect the instrumentation has on the VM
   must occur identically in record and replay modes:

   - allocation: the event ring lives in the VM heap, allocated at session
     attach in both modes (Ring.create) and written at the same execution
     points in both modes;
   - loading/compilation: record-only and replay-only code paths are both
     exercised ("compiled") at initialization by the I/O warm-up below,
     mirroring DejaVu pre-loading its classes and forcing both the input
     and output methods to be compiled by writing and re-reading a file;
   - stack overflow: before the instrumentation drives a thread switch it
     eagerly grows the runtime stack when headroom falls below a threshold,
     so stack-growth points cannot differ between modes;
   - logical clock: yield points executed while the instrumentation runs are
     not counted (the liveclock flag in Figure 2). *)

(* Save a small trace and load it back, through the same [Trace.Writer]
   and [Trace.Reader] code recording and replay use: both the write path
   and the read path of the trace I/O get exercised during initialization
   in BOTH modes, so neither mode performs first-use work the other does
   not. Memoized per process — first-use compilation only exists once, and
   the warm-up has no VM-visible effects (it runs before the session's ring
   is allocated), so repeating the file round-trip on every attach would
   only tax session setup with host I/O. *)
let warmup_once () =
  let path = Filename.temp_file "dejavu" ".warmup" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Trace.save path
        {
          Trace.program_digest = "warmup";
          switches = [| 1; 2; 3 |];
          legacy_clocks = [||];
          inputs = [| 7 |];
          legacy_natives = [||];
          picks = [||];
          clocks = [| 42 lsl 2 |];
          natives = [||];
        };
      let rt = Trace.load path in
      assert (rt.Trace.program_digest = "warmup"))

(* Not a [Lazy.t]: shard domains attach sessions concurrently, and forcing
   a shared suspension from two domains raises (RacyLazy/Undefined). A
   mutex-guarded run-once flag gives the same memoization domain-safely. *)
let warmup_done = ref false

let warmup_mutex = Mutex.create ()

let warmup_io () =
  Mutex.protect warmup_mutex (fun () ->
      if not !warmup_done then begin
        warmup_once ();
        warmup_done := true
      end)

(* Eager stack growth before instrumentation-driven work on the current
   thread (paper: "eagerly growing the runtime activation stack ... when
   available stack space falls below a heuristically determined value"). *)
let ensure_headroom (vm : Vm.Rt.t) =
  if vm.current >= 0 then begin
    let t = Vm.Rt.cur vm in
    if t.t_state <> Vm.Rt.Terminated then
      Vm.Interp.ensure_stack vm t ~need:vm.cfg.stack_slack
  end
