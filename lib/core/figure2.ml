(* The paper's Figure 2, verbatim: the symmetric yield-point instrumentation
   for record mode (A) and replay mode (B). Note how closely the two sides
   mirror each other — that similarity is the accuracy argument.

   Record (A):                          Replay (B):
     if liveclock:                        if liveclock:
       liveclock = false                    liveclock = false
       nyp++                                nyp--
       if preemptiveHardwareBit:            if nyp == 0:
         recordThreadSwitch(nyp)              nyp = replayThreadSwitch()
         nyp = 0                              threadSwitchBitSet = true
         threadSwitchBitSet = true
       liveclock = true                     liveclock = true
     if threadSwitchBitSet:               if threadSwitchBitSet:
       threadSwitchBitSet = false           threadSwitchBitSet = false
       performThreadSwitch()                performThreadSwitch()

   The preemptive hardware bit (set by the timer interrupt) is honoured only
   in record mode; replay switches purely on the logical clock. In replay
   the timer does not even run ([Replayer.attach_io] switches the
   environment's per-instruction tick off), so the bit stays clear. *)

let perform_switch (s : Session.t) =
  s.switch_bit <- false;
  s.switches_done <- s.switches_done + 1;
  (* symmetric eager stack growth before instrumentation-driven work *)
  Symmetry.ensure_headroom s.vm;
  Vm.Sched.perform_thread_switch s.vm

let record (s : Session.t) (vm : Vm.Rt.t) =
  s.yieldpoints_seen <- s.yieldpoints_seen + 1;
  if s.liveclock then begin
    s.liveclock <- false;
    s.nyp <- s.nyp + 1;
    if vm.preempt_pending then begin
      (* preemption required by the system clock *)
      Trace.Tape.push s.switches s.nyp;
      s.nyp <- 0;
      vm.preempt_pending <- false;
      s.switch_bit <- true
    end;
    s.liveclock <- true
  end;
  if s.switch_bit then perform_switch s

(* replayThreadSwitch(): the yield points until the next recorded switch,
   or never once the schedule is spent *)
let next_switch (s : Session.t) =
  match Trace.Tape.read_opt s.switches with Some d -> d | None -> max_int

let replay (s : Session.t) (_vm : Vm.Rt.t) =
  s.yieldpoints_seen <- s.yieldpoints_seen + 1;
  if s.liveclock then begin
    s.liveclock <- false;
    s.nyp <- s.nyp - 1;
    if s.nyp = 0 then begin
      (* the recorded run switched at this yield point *)
      s.nyp <- next_switch s;
      s.switch_bit <- true
    end;
    s.liveclock <- true
  end;
  if s.switch_bit then perform_switch s
