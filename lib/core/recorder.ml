(* Record mode: the live hooks are wrapped so that every non-deterministic
   operation's result is captured on its tape while execution proceeds
   exactly as it would have live. Deterministic operations — including every
   synchronization outcome and scheduler decision — are deliberately NOT
   recorded: replaying the thread package reproduces them for free (the
   paper's cross-optimization payoff). *)

(* Install the clock/input/native capture only (every replay scheme needs
   this part — the paper's footnote 7); the yield-point instrumentation is
   installed separately so baseline schemes can substitute their own. Clock
   reads and native outcomes go to the compact sections, each clock entry
   coded against the session's previous clock value. *)
let attach_io (vm : Vm.Rt.t) (s : Session.t) =
  vm.hooks.h_clock <-
    (fun vm reason ->
      let v =
        match reason with
        | Vm.Rt.Cidle earliest -> Vm.Env.idle_until vm.env earliest
        | Vm.Rt.Capp | Vm.Rt.Csched -> Vm.Env.read_clock vm.env
      in
      Trace.push_clock s.clocks ~prev:s.clock_prev
        (Trace.tag_of_reason reason)
        v;
      s.clock_prev <- v;
      Ring.put s.ring v;
      v);
  vm.hooks.h_input <-
    (fun vm ->
      let v = Vm.Env.read_input vm.env in
      Trace.Tape.push s.inputs v;
      Ring.put s.ring v;
      v);
  vm.hooks.h_native <-
    (fun vm nat args ->
      let outcome = nat.nat_fn vm args in
      Trace.push_native s.natives nat.nat_id outcome;
      Ring.put s.ring nat.nat_id;
      outcome)

(* The one attach: in-memory and streamed recordings differ only in the
   tapes, fresh growable ones or the writer's sink-wired buffers (which
   hold O(buffer) trace memory no matter how long the run is). *)
let attach_tapes (vm : Vm.Rt.t) tapes : Session.t =
  let s = Session.for_record vm tapes in
  attach_io vm s;
  vm.hooks.h_yieldpoint <- Figure2.record s;
  s

let attach vm = attach_tapes vm (Trace.new_tapes ())

let attach_stream vm w = attach_tapes vm (Trace.Writer.tapes w)

(* The header stamp: the program digest. *)
let stamp (s : Session.t) = Bytecode.Decl.digest s.vm.program

let finish s = Session.to_trace s (stamp s)

(* Seal a streamed recording into its destination file (temp file + atomic
   rename inside the writer). On any error the writer is aborted, so a
   cancelled or crashed recording never leaves a partial trace behind. *)
let finish_stream s w =
  match
    Trace.Writer.finish w ~program_digest:(stamp s)
  with
  | sizes -> sizes
  | exception e ->
    Trace.Writer.abort w;
    raise e
