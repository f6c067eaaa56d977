(* Shared state of a DejaVu session (record or replay): the logical clock
   (nyp + liveclock of Figure 2), the per-kind tapes, and the symmetric
   event ring. *)

exception Divergence of string

let divergence fmt = Fmt.kstr (fun s -> raise (Divergence s)) fmt

(* Divergence with the current execution position appended, so a replay
   against edited code reports *where* behaviour first departed from the
   recording. *)
let divergence_at (vm : Vm.Rt.t) fmt =
  Fmt.kstr
    (fun s ->
      let where =
        if vm.current >= 0 then begin
          let t = Vm.Rt.cur vm in
          if t.t_state <> Vm.Rt.Terminated then
            Fmt.str " (at %s.%s pc %d, thread %d, %d instructions in)"
              vm.classes.(t.t_meth.rm_cid).rc_name t.t_meth.rm_name t.t_pc
              t.tid vm.stats.n_instr
          else ""
        end
        else ""
      in
      raise (Divergence (s ^ where)))
    fmt

type mode = Record | Replay

type t = {
  vm : Vm.Rt.t;
  mode : mode;
  ring : Ring.t;
  sections : Trace.Tape.t array; (* all seven tapes, in section order *)
  switches : Trace.Tape.t; (* the schedule: Figure-2 deltas, or a baseline
                              scheme's own encoding *)
  clocks : Trace.Tape.t; (* the section clock reads go to or come from *)
  clock_layout : Trace.layout;
  mutable clock_prev : int; (* the last clock value: the compact delta base *)
  inputs : Trace.Tape.t;
  natives : Trace.Tape.t; (* the section native outcomes go to or come from *)
  native_layout : Trace.layout;
  picks : Trace.Tape.t; (* dispatch overrides; empty unless a controlled
                           scheduler drove the recording *)
  mutable nyp : int; (* yield points since the last thread switch *)
  mutable liveclock : bool;
  mutable switch_bit : bool; (* the software thread-switch bit *)
  mutable yieldpoints_seen : int;
  mutable switches_done : int;
}

(* The one record constructor and the one replay constructor. Each takes
   the seven tapes in section order: fresh growable ones or a trace's
   arrays in memory, the writer's sink-wired buffers or the reader's
   chunk-refilled views on file. A recording writes clock reads and native
   outcomes in the compact sections; a replay reads each kind from the
   section that holds it, and a trace with one kind in both is malformed.
   Everything downstream — Figure 2, the I/O hooks, leftover accounting —
   is tape-agnostic. *)
let create vm mode (tapes : Trace.Tape.t array) =
  let (clock_layout, clocks), (native_layout, natives) =
    match mode with
    | Record ->
      (* sections 5 and 6: the compact clock and native sections *)
      ((Trace.Compact, tapes.(5)), (Trace.Compact, tapes.(6)))
    | Replay -> (Trace.clock_source tapes, Trace.native_source tapes)
  in
  (* symmetric initialization: same allocation, same warm-up, both modes *)
  Symmetry.warmup_io ();
  let ring = Ring.create vm () in
  {
    vm;
    mode;
    ring;
    sections = tapes;
    switches = tapes.(0);
    clocks;
    clock_layout;
    clock_prev = 0;
    inputs = tapes.(2);
    natives;
    native_layout;
    picks = tapes.(4);
    nyp = 0;
    liveclock = true;
    switch_bit = false;
    yieldpoints_seen = 0;
    switches_done = 0;
  }

let for_record vm tapes = create vm Record tapes

let for_replay vm tapes = create vm Replay tapes

let streaming (s : t) = Array.exists Trace.Tape.is_streaming s.sections

let to_trace (s : t) program_digest : Trace.t =
  Trace.of_sections program_digest (Array.map Trace.Tape.to_array s.sections)

(* --- session checkpoints (for checkpoint-accelerated time travel) ------ *)

(* The instrumentation state that must roll back together with a VM
   snapshot: tape cursors (replay) / tape lengths (record), the clock delta
   base, the Figure-2 logical clock, and the ring position. *)
type snap = {
  sn_rd : int array; (* per-tape read cursors *)
  sn_len : int array; (* per-tape lengths (record mode appends) *)
  sn_clock_prev : int;
  sn_nyp : int;
  sn_liveclock : bool;
  sn_switch_bit : bool;
  sn_ring_pos : int;
  sn_ring_writes : int;
  sn_yieldpoints_seen : int;
  sn_switches_done : int;
}

(* Checkpoints cut tape cursors/lengths backwards, which a flushed sink or a
   consumed refill chunk cannot honour — the time-travel debugger keeps to
   materialized sessions. *)
let check_not_streaming what s =
  if streaming s then
    invalid_arg (what ^ ": streaming sessions do not support checkpoints")

let snapshot (s : t) : snap =
  check_not_streaming "Session.snapshot" s;
  {
    sn_rd = Array.map (fun (t : Trace.Tape.t) -> t.rd) s.sections;
    sn_len = Array.map (fun (t : Trace.Tape.t) -> t.len) s.sections;
    sn_clock_prev = s.clock_prev;
    sn_nyp = s.nyp;
    sn_liveclock = s.liveclock;
    sn_switch_bit = s.switch_bit;
    sn_ring_pos = s.ring.pos;
    sn_ring_writes = s.ring.writes;
    sn_yieldpoints_seen = s.yieldpoints_seen;
    sn_switches_done = s.switches_done;
  }

let restore (s : t) (c : snap) =
  check_not_streaming "Session.restore" s;
  Array.iteri
    (fun i (t : Trace.Tape.t) ->
      t.rd <- c.sn_rd.(i);
      t.len <- c.sn_len.(i))
    s.sections;
  s.clock_prev <- c.sn_clock_prev;
  s.nyp <- c.sn_nyp;
  s.liveclock <- c.sn_liveclock;
  s.switch_bit <- c.sn_switch_bit;
  s.ring.pos <- c.sn_ring_pos;
  s.ring.writes <- c.sn_ring_writes;
  s.yieldpoints_seen <- c.sn_yieldpoints_seen;
  s.switches_done <- c.sn_switches_done

(* Leftover trace data after a replay signals a divergence (or a truncated
   run); returns human-readable warnings. *)
let leftovers (s : t) : string list =
  List.filter_map
    (fun tape ->
      let r = Trace.Tape.remaining tape in
      if r > 0 then Some (Fmt.str "%d unconsumed %s words" r tape.Trace.Tape.name)
      else None)
    (Array.to_list s.sections)
