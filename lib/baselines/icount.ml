(* Instruction-counting baseline (paper section 2.3: "a straightforward
   counting of instructions executed by each thread will work, but the
   overhead is prohibitive").

   Identical to DejaVu except that switch points are identified by the
   retired-instruction count instead of the yield-point count: a counter is
   bumped on EVERY instruction (the prohibitive part), and replay compares
   against the recorded target on every instruction. Preemption still takes
   effect at the next yield point, so the identified positions coincide
   with DejaVu's — only the identification cost differs.

   The counter rides the per-instruction observer hook, chained after any
   observer already attached (attach the event-digest observer first).
   Regions deliver a segment's events before its effects, so the count
   seen at a yield point always includes the yield instruction itself,
   exactly as on the stack tier. *)

type mode = Record | Replay

type t = {
  vm : Vm.Rt.t;
  mode : mode;
  session : Dejavu.Session.t;
  deltas : Dejavu.Tape.t; (* retired instructions between switches *)
  mutable icount : int; (* instructions since the last recorded switch *)
  mutable fire : bool; (* replay: the countdown expired *)
  mutable target : int; (* replay: icount value of the next switch *)
}

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

let attach_record (vm : Vm.Rt.t) : t =
  let session = Dejavu.Session.for_record vm (Dejavu.Trace.new_tapes ()) in
  Dejavu.Recorder.attach_io vm session;
  let b =
    {
      vm;
      mode = Record;
      session;
      deltas = Dejavu.Tape.create "icount";
      icount = 0;
      fire = false;
      target = -1;
    }
  in
  chain_observer vm (fun () -> b.icount <- b.icount + 1);
  vm.hooks.h_yieldpoint <-
    (fun vm ->
      if vm.preempt_pending then begin
        vm.preempt_pending <- false;
        Dejavu.Tape.push b.deltas b.icount;
        b.icount <- 0;
        Vm.Sched.perform_thread_switch vm
      end);
  b

exception Divergence = Dejavu.Session.Divergence

let attach_replay (vm : Vm.Rt.t) (trace : Dejavu.Trace.t)
    (deltas : int array) : t =
  Dejavu.Replayer.check_digest vm trace;
  let session = Dejavu.Session.for_replay vm (Dejavu.Trace.tapes trace) in
  Dejavu.Replayer.attach_io vm session;
  let b =
    {
      vm;
      mode = Replay;
      session;
      deltas = Dejavu.Tape.of_array "icount" deltas;
      icount = 0;
      fire = false;
      target = -1;
    }
  in
  b.target <- (match Dejavu.Tape.read_opt b.deltas with Some d -> d | None -> -1);
  chain_observer vm (fun () ->
      b.icount <- b.icount + 1;
      if b.icount = b.target then b.fire <- true);
  vm.hooks.h_yieldpoint <-
    (fun vm ->
      if b.fire then begin
        b.fire <- false;
        b.icount <- 0;
        b.target <-
          (match Dejavu.Tape.read_opt b.deltas with Some d -> d | None -> -1);
        Vm.Sched.perform_thread_switch vm
      end);
  b

let deltas_array (b : t) = Dejavu.Tape.to_array b.deltas

type sizes = { trace_words : int; n_switches : int }

let sizes (b : t) : sizes =
  let io =
    Dejavu.Tape.length b.session.clocks
    + Dejavu.Tape.length b.session.inputs
    + Dejavu.Tape.length b.session.natives
  in
  {
    trace_words = Dejavu.Tape.length b.deltas + io;
    n_switches = Dejavu.Tape.length b.deltas;
  }
