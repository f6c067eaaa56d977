(** Shared state of a DejaVu session (record or replay): the logical clock
    ([nyp] + [liveclock] of Figure 2), the per-kind tapes, and the
    symmetric event ring. *)

(** Raised when a replayed execution asks for an event that does not match
    the recording (wrong kind, wrong native, exhausted tape, or a trace
    recorded for a different program). *)
exception Divergence of string

val divergence : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Like {!divergence}, appending the current execution position (class,
    method, pc, thread, instruction count) so a replay against edited code
    reports where behaviour first departed from the recording. *)
val divergence_at : Vm.Rt.t -> ('a, Format.formatter, unit, 'b) format4 -> 'a

type mode = Record | Replay

type t = {
  vm : Vm.Rt.t;
  mode : mode;
  ring : Ring.t;
  sections : Trace.Tape.t array;  (** all seven tapes, in section order *)
  switches : Trace.Tape.t;
      (** the schedule: Figure-2 deltas, or a baseline scheme's own
          encoding *)
  clocks : Trace.Tape.t;
      (** the section clock reads go to (record: the compact one) or come
          from (replay: the one holding them) *)
  clock_layout : Trace.layout;
  mutable clock_prev : int;
      (** the last clock value, the compact entries' delta base: rolled
          back by {!restore} with the tape cursors *)
  inputs : Trace.Tape.t;
  natives : Trace.Tape.t;
      (** the section native outcomes go to or come from, as [clocks] *)
  native_layout : Trace.layout;
  picks : Trace.Tape.t;
      (** dispatch overrides; empty unless a controlled scheduler drove the
          recording *)
  mutable nyp : int;  (** yield points since the last thread switch *)
  mutable liveclock : bool;
  mutable switch_bit : bool;  (** the software thread-switch bit *)
  mutable yieldpoints_seen : int;
  mutable switches_done : int;
}

(** The record-mode session over seven tapes in section order:
    {!Trace.new_tapes} for an in-memory recording, [Trace.Writer.tapes] to
    stream into a file. Clock reads and native outcomes go to the compact
    sections. Symmetric initialization (warm-up I/O, ring allocation). *)
val for_record : Vm.Rt.t -> Trace.Tape.t array -> t

(** The replay-mode session over seven tapes in section order:
    {!Trace.tapes} of a trace in memory, [Trace.Reader.tapes] to stream
    from a file. Each kind is read from the section that holds it
    ({!Trace.clock_source}); raises [Trace.Format_error] when a kind has
    data in both its legacy and its compact section. Same initialization
    as {!for_record}; the scheme that reads the switches tape primes its
    own clock from it. *)
val for_replay : Vm.Rt.t -> Trace.Tape.t array -> t

(** True when any tape is sink- or refill-wired; such sessions refuse
    {!snapshot}/{!restore} (checkpoints cannot rewind flushed data). *)
val streaming : t -> bool

(** Freeze a (record) session's tapes into a trace stamped with the given
    program digest. *)
val to_trace : t -> string -> Trace.t

(** Session state that must roll back together with a VM snapshot
    (checkpoint-accelerated time travel). *)
type snap

val snapshot : t -> snap

val restore : t -> snap -> unit

(** Human-readable warnings about unconsumed trace words after a replay. *)
val leftovers : t -> string list
