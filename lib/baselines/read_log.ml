(* Recap / PPD baseline (Pan & Linton 1988; Miller & Choi 1988).

   These systems "capture the effect of every read of shared memory
   locations, which is quite expensive" (paper, section 5): the recorded
   trace holds the *value* of every shared read so replay can substitute it
   without caring about the schedule at all. One word per read — the worst
   trace-size profile of the schemes compared.

   Recording side, plus the non-reproducible-event tapes every scheme
   needs. *)

type t = {
  vm : Vm.Rt.t;
  session : Dejavu.Session.t;
  values : Dejavu.Tape.t; (* one word per shared read *)
  mutable n_reads : int;
}

let attach (vm : Vm.Rt.t) : t =
  let session = Dejavu.Session.for_record vm (Dejavu.Trace.new_tapes ()) in
  Dejavu.Recorder.attach_io vm session;
  let b =
    { vm; session; values = Dejavu.Tape.create "read-values"; n_reads = 0 }
  in
  vm.hooks.h_heap_read <-
    Some
      (fun vm addr slot ->
        b.n_reads <- b.n_reads + 1;
        let v = if addr < 0 then vm.globals.(slot) else vm.heap.(addr + slot) in
        Dejavu.Tape.push b.values v);
  b

type sizes = { trace_words : int; n_reads : int }

let sizes (b : t) : sizes =
  let io =
    Dejavu.Tape.length b.session.clocks
    + Dejavu.Tape.length b.session.inputs
    + Dejavu.Tape.length b.session.natives
  in
  { trace_words = Dejavu.Tape.length b.values + io; n_reads = b.n_reads }
