(* Instruction-counting baseline (paper section 2.3: "a straightforward
   counting of instructions executed by each thread will work, but the
   overhead is prohibitive").

   Identical to DejaVu except that switch points are identified by the
   retired-instruction count instead of the yield-point count: a counter is
   bumped on EVERY instruction (the prohibitive part), and replay compares
   against the recorded target on every instruction. Preemption still takes
   effect at the next yield point, so the identified positions coincide
   with DejaVu's — only the identification cost differs. The deltas fill
   the trace's switches section, where DejaVu keeps its yield-point deltas.

   The counter rides the per-instruction observer hook, chained after any
   observer already attached (attach the event-digest observer first).
   Regions deliver a segment's events before its effects, so the count
   seen at a yield point always includes the yield instruction itself,
   exactly as on the stack tier. *)

(* Run [f] once per instruction, after the observer already attached. *)
let chain_observer (vm : Vm.Rt.t) f =
  vm.hooks.h_observe <-
    (match vm.hooks.h_observe with
    | None -> Some (fun _vm _tid _uid _pc _tag -> f ())
    | Some g ->
      Some
        (fun vm tid uid pc tag ->
          g vm tid uid pc tag;
          f ()))

let attach_record (vm : Vm.Rt.t) =
  let session = Dejavu.Session.for_record vm (Dejavu.Trace.new_tapes ()) in
  Dejavu.Recorder.attach_io vm session;
  (* retired instructions since the last recorded switch *)
  let icount = ref 0 in
  chain_observer vm (fun () -> incr icount);
  vm.hooks.h_yieldpoint <-
    (fun vm ->
      if vm.preempt_pending then begin
        vm.preempt_pending <- false;
        Dejavu.Tape.push session.switches !icount;
        icount := 0;
        Vm.Sched.perform_thread_switch vm
      end);
  session

let attach_replay (vm : Vm.Rt.t) (trace : Dejavu.Trace.t) =
  Dejavu.Replayer.check_header vm ~program_digest:trace.program_digest;
  let session = Dejavu.Session.for_replay vm (Dejavu.Trace.tapes trace) in
  Dejavu.Replayer.attach_io vm session;
  (* the icount value of the next switch, -1 past the last *)
  let next_target () =
    match Dejavu.Tape.read_opt session.switches with Some d -> d | None -> -1
  in
  let icount = ref 0 and fire = ref false and target = ref (next_target ()) in
  chain_observer vm (fun () ->
      incr icount;
      if !icount = !target then fire := true);
  vm.hooks.h_yieldpoint <-
    (fun vm ->
      if !fire then begin
        fire := false;
        icount := 0;
        target := next_target ();
        Vm.Sched.perform_thread_switch vm
      end);
  session

let roundtrip ?natives ?seed program =
  Dejavu.roundtrip_with ~attach_record ~attach_replay ?natives ?seed program
