(* Replay mode: deterministic operations re-execute; non-deterministic
   operations are systematically replaced by the retrieval of their recorded
   results. The environment's clock, timer, input, and native code never
   run: [attach_io] switches off the per-instruction clock tick, so a
   replayed instruction pays no jittered clock step and raises no
   preemption request (every replay scheme takes its switches from the
   trace). Each retrieval checks that the event kind the program is asking
   for matches what the recording said comes next — any mismatch is a
   divergence, which (given symmetric instrumentation) indicates the
   program or platform changed between record and replay. *)

exception Divergence = Session.Divergence

(* Stop the environment clock and install the clock/input/native
   substitution; yield-point instrumentation is installed separately (see
   Recorder.attach_io). [Vm.install_live_hooks] starts the clock again.
   Clock reads and native outcomes are decoded in the layout of the
   section the session found them in, legacy or compact. *)
let attach_io (vm : Vm.Rt.t) (s : Session.t) =
  vm.env_ticks <- false;
  vm.hooks.h_clock <-
    (fun vm reason ->
      let expect = Trace.tag_of_reason reason in
      let tag, v =
        try Trace.read_clock s.clock_layout s.clocks ~prev:s.clock_prev
        with Trace.End_of_tape _ ->
          Session.divergence_at vm "clock read (%s) beyond the recorded trace"
            (Trace.reason_name expect)
      in
      if tag <> expect then
        Session.divergence_at vm
          "clock read reason mismatch: recorded %s, got %s"
          (Trace.reason_name tag) (Trace.reason_name expect);
      s.clock_prev <- v;
      Ring.put s.ring v;
      v);
  vm.hooks.h_input <-
    (fun vm ->
      let v =
        try Trace.Tape.read s.inputs
        with Trace.End_of_tape _ ->
          Session.divergence_at vm "input read beyond the recorded trace"
      in
      Ring.put s.ring v;
      v);
  vm.hooks.h_native <-
    (fun vm nat _args ->
      let nat_id, outcome =
        try Trace.read_native s.native_layout s.natives
        with Trace.End_of_tape _ ->
          Session.divergence_at vm "native call %s beyond the recorded trace"
            nat.nat_name
      in
      if nat_id <> nat.nat_id then
        Session.divergence_at vm
          "native mismatch: recorded id %d, executing %s" nat_id nat.nat_name;
      (* the interpreter pushes each callback's frame unchecked *)
      let malformed fmt = Fmt.kstr (fun s -> raise (Trace.Format_error s)) fmt in
      List.iter
        (fun (uid, args) ->
          if uid < 0 || uid >= Array.length vm.methods then
            malformed "callback uid %d out of range" uid;
          let cb = vm.methods.(uid) in
          if cb.rm_nargs <> Array.length args then
            malformed "callback %s given %d arguments" cb.rm_name
              (Array.length args))
        outcome.no_callbacks;
      Ring.put s.ring nat.nat_id;
      outcome)

let check_header (vm : Vm.Rt.t) ~program_digest =
  let own_digest = Bytecode.Decl.digest vm.program in
  if program_digest <> own_digest then
    Session.divergence
      "trace was recorded for a different program (digest %s, expected %s)"
      program_digest own_digest

(* Re-drive recorded dispatch overrides. A trace with a picks section was
   recorded under a controlled scheduler whose [h_pick] steered dispatch
   away from FIFO order; replay must install the same overrides or the
   thread package — ordinary replayed state everywhere else — would pick
   different threads and diverge immediately. The consultation points align
   because dispatch consults [h_pick] at deterministic places and the
   recorder pushed one value per consultation. Traces without picks leave
   the hook uninstalled, preserving the record/replay hook symmetry of
   ordinary recordings. *)
let attach_picks (vm : Vm.Rt.t) (s : Session.t) =
  if Trace.Tape.remaining s.picks > 0 then
    vm.hooks.h_pick <-
      Some
        (fun vm _fifo ->
          match Trace.Tape.read_opt s.picks with
          | Some want -> want
          | None ->
            Session.divergence_at vm
              "dispatch override beyond the recorded schedule")

(* The one attach: reject a foreign header, then install the hooks over
   the seven tapes, a trace's arrays in memory or the reader's
   chunk-refilled views (O(chunk) replay-side trace memory). *)
let attach_tapes (vm : Vm.Rt.t) ~program_digest tapes : Session.t =
  check_header vm ~program_digest;
  let s = Session.for_replay vm tapes in
  attach_io vm s;
  attach_picks vm s;
  (* nyp counts down to the first recorded switch *)
  s.nyp <- Figure2.next_switch s;
  vm.hooks.h_yieldpoint <- Figure2.replay s;
  s

let attach vm (trace : Trace.t) =
  attach_tapes vm ~program_digest:trace.program_digest (Trace.tapes trace)

let attach_stream vm r =
  attach_tapes vm
    ~program_digest:(Trace.Reader.program_digest r)
    (Trace.Reader.tapes r)

let check_complete (s : Session.t) = Session.leftovers s
