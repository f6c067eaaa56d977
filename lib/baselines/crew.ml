(* Instant Replay baseline (LeBlanc & Mellor-Crummey, IEEE TC 1987).

   Instant Replay logs *critical events*: every access to a shared object,
   as a (object, access-sequence-number) pair, so that replay can enforce
   per-object access orders without logging data values. Thread switches are
   NOT logged — the schedule is free as long as object access orders hold.

   This module implements the recording side, which is what determines the
   overhead and trace-size comparison the paper makes in section 5 ("a
   major drawback of such approaches is the overhead, in time and
   particularly in space"). Like every scheme, it must additionally log the
   non-reproducible events (wall clock, input, natives) — footnote 7 — so
   those tapes are attached too.

   Objects are identified by a stable per-object id (we reuse the VM's
   monitor-id slot, which survives GC); every static slot counts as its own
   shared object. *)

type t = {
  vm : Vm.Rt.t;
  session : Dejavu.Session.t; (* the non-reproducible-event tapes *)
  accesses : Dejavu.Tape.t; (* flattened (object id, seq) pairs *)
  mutable obj_counters : int array; (* per-object access counters *)
  static_counters : int array; (* per-static-slot access counters *)
  mutable n_reads : int;
  mutable n_writes : int;
}

(* Statics are identified by the negated slot; heap objects by their stable
   monitor id. *)
let oid_of (b : t) addr slot =
  if addr < 0 then -(slot + 2)
  else (Vm.Sched.monitor_of_object b.vm addr).m_id

let bump b oid =
  let seq =
    if oid < 0 then begin
      let slot = -oid - 2 in
      let seq = b.static_counters.(slot) in
      b.static_counters.(slot) <- seq + 1;
      seq
    end
    else begin
      if oid >= Array.length b.obj_counters then begin
        let bigger =
          Array.make (max (2 * Array.length b.obj_counters) (oid + 1)) 0
        in
        Array.blit b.obj_counters 0 bigger 0 (Array.length b.obj_counters);
        b.obj_counters <- bigger
      end;
      let seq = b.obj_counters.(oid) in
      b.obj_counters.(oid) <- seq + 1;
      seq
    end
  in
  Dejavu.Tape.push b.accesses oid;
  Dejavu.Tape.push b.accesses seq

let attach (vm : Vm.Rt.t) : t =
  let session = Dejavu.Session.for_record vm (Dejavu.Trace.new_tapes ()) in
  Dejavu.Recorder.attach_io vm session;
  let b =
    {
      vm;
      session;
      accesses = Dejavu.Tape.create "crew-accesses";
      obj_counters = Array.make 1024 0;
      static_counters = Array.make (max 1 vm.nglobals) 0;
      n_reads = 0;
      n_writes = 0;
    }
  in
  vm.hooks.h_heap_read <-
    Some
      (fun _vm addr slot ->
        b.n_reads <- b.n_reads + 1;
        bump b (oid_of b addr slot));
  vm.hooks.h_heap_write <-
    Some
      (fun _vm addr slot ->
        b.n_writes <- b.n_writes + 1;
        bump b (oid_of b addr slot));
  b

type sizes = { trace_words : int; n_reads : int; n_writes : int }

(* Trace size: the access tape plus the shared non-reproducible tapes. *)
let sizes (b : t) : sizes =
  let io =
    Dejavu.Tape.length b.session.clocks
    + Dejavu.Tape.length b.session.inputs
    + Dejavu.Tape.length b.session.natives
  in
  {
    trace_words = Dejavu.Tape.length b.accesses + io;
    n_reads = b.n_reads;
    n_writes = b.n_writes;
  }
