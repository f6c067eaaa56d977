(** Trace representation and codec.

    Following the paper (footnote 7: wall-clock logging "need be done
    independently of thread switch information in all replay schemes"), a
    trace holds one tape per non-deterministic event kind, one section
    each on disk, in this order:

    + switches: yield-point deltas ([nyp]) between preemptive thread
      switches (Figure 2);
    + legacy clocks: (reason, value) pairs, one per wall-clock read;
    + inputs: external input values;
    + legacy natives: native-call outcomes, four words or more each;
    + picks: dispatch-override decisions, recorded only under a
      controlled scheduler;
    + clocks: compact clock entries;
    + natives: compact native entries.

    The first four sections are always written; a trailing run of empty
    ones among the last three is left out, so a trace with no picks, clock
    read or native call keeps the original 4-section DJVU2 layout byte for
    byte. New recordings write clock reads and native outcomes in the
    compact sections only ({!push_clock}, {!push_native}) and leave the
    legacy ones empty; traces of older builds hold them in the legacy
    sections and still replay. Replay decodes each kind in the layout of
    the section that holds its data ({!clock_source}, {!native_source}).

    A compact clock entry is one word [(d lsl 2) lor tag]: [d] is the value
    minus the previous clock value of the same session (0 before the first
    read) and [tag] the reason, 0-2. Tag 3 is an escape, written when [d]
    falls outside +-2^59: the next two words hold the tag and the absolute
    value. A compact native entry is a header word [(nat_id lsl 2) lor
    has_result lor (has_callbacks lsl 1)], the result word if there is a
    result, and, only if there are callbacks, their count and the callbacks
    [(uid; nargs; args...)*].

    Tapes are flat integer sequences; the file format is a zigzag-varint
    stream with a header carrying the program's structural digest so a
    trace cannot be replayed against the wrong code. The header's second
    field, a race-audit stamp in traces of older builds, is written empty
    and ignored on read: a trace depends only on the program and the VM.

    Codec contract: {!to_bytes} is the reference encoder, value by value
    through {!put_varint}; {!Writer} is the one file writer (also behind
    {!save}), with its own bulk encoder of each flushed chunk, so comparing
    the two compares two encoders; {!Reader} is the one decoder (also
    behind {!of_bytes} and {!load}). *)

(** Raised when a replay consumes past the end of a tape; the payload is
    the tape name. *)
exception End_of_tape of string

(** Raised on a malformed trace by every decoder: {!of_bytes}, {!load},
    {!Reader.open_file} and the reader's tape refills, and {!get_varint}. *)
exception Format_error of string

(** Growable integer sequences with an independent read cursor. A tape can
    also be wired to a streaming side: a {e sink} drains full buffers during
    recording ({!Writer}), a {e refill} loads chunks on demand during replay
    ({!Reader}); in both cases resident memory stays bounded by the
    chunk/buffer size rather than the event count. *)
module Tape : sig
  type t = {
    name : string;
    mutable data : int array;
    mutable len : int;
    mutable rd : int;  (** read cursor (replay) *)
    mutable base : int;
        (** elements flushed to a sink / consumed by refills before
            [data.(0)] *)
    mutable pending : int;
        (** elements still held by the refill source beyond [data] *)
    mutable sink : (int array -> int -> unit) option;
    mutable refill : (t -> bool) option;
  }

  val create : string -> t

  val of_array : string -> int array -> t

  (** Fixed-capacity buffer drained through the sink whenever it fills. *)
  val with_sink : string -> cap:int -> (int array -> int -> unit) -> t

  (** Chunk-refilled tape; [pending] is the source's total element count so
      {!remaining} stays exact. The refill returns false at end of stream. *)
  val of_refill : string -> pending:int -> (t -> bool) -> t

  (** True when the tape has a sink or refill attached; such tapes do not
      support {!to_array} or session checkpointing. *)
  val is_streaming : t -> bool

  (** Drain the buffered prefix through the sink (no-op otherwise). *)
  val flush : t -> unit

  val push : t -> int -> unit

  (** Read the next word; raises {!End_of_tape}. *)
  val read : t -> int

  val read_opt : t -> int option

  (** Unread elements, including those a refill has not yet loaded. *)
  val remaining : t -> int

  (** Total elements ever pushed (including flushed ones). *)
  val length : t -> int

  val to_array : t -> int array
end

type t = {
  program_digest : string;
  switches : int array;
  legacy_clocks : int array;
      (** section 1: flattened (reason, value) pairs, as builds before the
          compact sections wrote them; empty in new recordings *)
  inputs : int array;
  legacy_natives : int array;
      (** section 3: flattened legacy native records [id; has_result;
          result?; n_callbacks; (uid; nargs; args...)*]; empty in new
          recordings *)
  picks : int array;
      (** dispatch-override decisions — one tid per [h_pick] consultation —
          recorded only under a controlled scheduler; empty otherwise *)
  clocks : int array;  (** section 5: compact clock entries *)
  natives : int array;  (** section 6: compact native entries *)
}

(** Encode a clock-read reason (0 app, 1 scheduler, 2 idle advance). *)
val tag_of_reason : Vm.Rt.clock_reason -> int

val reason_name : int -> string

(** How a section codes clock reads or native outcomes. *)
type layout = Legacy | Compact

(** [push_clock tape ~prev tag v] appends the compact entry of a clock read
    of reason [tag] returning [v], [prev] being the session's previous
    clock value (0 before the first read). The one clock encoder. *)
val push_clock : Tape.t -> prev:int -> int -> int -> unit

(** [read_clock layout tape ~prev] reads one clock read back as [(tag,
    value)]; [prev] is only used by the compact layout. The one clock
    decoder. Raises {!Format_error} on a malformed escape and
    {!End_of_tape} when the entry runs past the tape. *)
val read_clock : layout -> Tape.t -> prev:int -> int * int

(** Append the compact entry of a native outcome. The one native
    encoder. *)
val push_native : Tape.t -> int -> Vm.Rt.native_outcome -> unit

(** Read one native outcome back as [(nat_id, outcome)]. The one native
    decoder. Raises {!Format_error} on a bad legacy [has_result] flag, a
    negative callback arity, or a callback count below 0 (legacy) or 1
    (compact, where the count is present only if there are callbacks), and
    {!End_of_tape} when the entry runs past the tape. *)
val read_native : layout -> Tape.t -> int * Vm.Rt.native_outcome

(** [clock_source tapes] is the layout of the clock reads in [tapes], the
    seven tapes in section order, and the tape that holds them: the
    compact section unless only the legacy one holds data. Raises
    {!Format_error} when both do. *)
val clock_source : Tape.t array -> layout * Tape.t

(** {!clock_source} for native outcomes. *)
val native_source : Tape.t array -> layout * Tape.t

type sizes = {
  n_switches : int;
  n_clock_reads : int;  (** clock reads, in either layout *)
  n_inputs : int;
  n_native_words : int;  (** words of native outcomes, in either layout *)
  n_picks : int;
  total_words : int;
  total_bytes : int;  (** size of the serialized form *)
}

(** Zigzag-varint primitives (exposed for the property tests and the
    server's wire protocol). [put_varint] is the reference encoder of one
    value. *)
val put_varint : Buffer.t -> int -> unit

(** [get_varint s pos] decodes the varint at [pos], returning it and the
    position after it; raises {!Format_error} on a truncated, oversized
    (a 10th group) or non-canonical encoding, and [Invalid_argument] on a
    negative [pos]. It is the decoder the {!Reader} uses, fast path
    included. *)
val get_varint : string -> int -> int * int

(** Encoded byte size of one value, without producing the bytes. *)
val varint_size : int -> int

(** Seven fresh growable tapes, in section order: an in-memory recording. *)
val new_tapes : unit -> Tape.t array

(** The trace's sections as readable tapes, in section order: an
    in-memory replay. *)
val tapes : t -> Tape.t array

(** The trace of a digest and seven section arrays in section order. *)
val of_sections : string -> int array array -> t

(** The reference encoder. {!Writer} writes the same bytes. *)
val to_bytes : t -> string

(** Decode a whole trace held in memory (a drained {!Reader}). *)
val of_bytes : string -> t

(** Byte size of the serialized form, computed arithmetically (no buffer is
    materialized). Always equals [String.length (to_bytes t)]. *)
val encoded_size : t -> int

(** Write a trace file through {!Writer}: temp file + atomic rename, so a
    crash mid-write never leaves a truncated trace under the final name. *)
val save : string -> t -> unit

(** Read a whole trace file (a drained {!Reader}). *)
val load : string -> t

val sizes : t -> sizes

val pp_sizes : Format.formatter -> sizes -> unit

(** Incremental trace encoder: each tape's bounded buffer drains, one bulk
    encode per flushed chunk, into an in-memory byte buffer of
    varint-encoded elements; a stream whose
    buffer passes [16 * buf_words] bytes spills it to one shared scratch
    file, [path ^ ".spill"], opened on the first spill. {!Writer.finish}
    writes the DJVU2 header and sections into [path ^ ".tmp"] (opened by
    {!Writer.create}) and renames it into place, so a trace that never
    spills costs one file and one rename. Output is byte-identical to
    {!to_bytes} of the materialized trace; recorder-side memory stays
    constant in the event count. *)
module Writer : sig
  type t

  val default_buf_words : int

  (** [create ?buf_words path] opens a writer targeting [path] and creates
      [path ^ ".tmp"] at once, so an unwritable destination raises
      [Sys_error] naming [path] here, leaving nothing; so does a [path]
      that exists but is not a regular file, which the final rename would
      replace. Scratch files live next to [path] (same filesystem, so the
      final rename is atomic). *)
  val create : ?buf_words:int -> string -> t

  (** The seven sink-wired tapes, in section order. A trailing run of
      empty optional sections is left out of the file, mirroring
      {!to_bytes}. *)
  val tapes : t -> Tape.t array

  (** High-water mark of words buffered in memory across all tapes. *)
  val peak_buffered_words : t -> int

  (** Flush tails, write the final file, atomic-rename it into place,
      remove the spill file if any; returns the trace statistics (tracked
      incrementally — the trace is never materialized). *)
  val finish : t -> program_digest:string -> sizes

  (** Discard a recording: close and remove all scratch state. Idempotent;
      never leaves a partial trace under the destination name. *)
  val abort : t -> unit
end

(** The one trace decoder, bounded in memory. It reads a file, or a string
    in memory for {!of_bytes}: it parses the header and locates each
    section's byte range in one pass over 64 KiB blocks, counting varint
    terminators without decoding, then serves each tape in
    [chunk_words]-element chunks refilled on demand, one block read per
    refill. Resident memory is O(block + chunk), constant in trace length.
    Raises {!Format_error} on a truncated or corrupted trace. *)
module Reader : sig
  type t

  val default_chunk_words : int

  (** Raises [Sys_error] naming the path when it is missing or not a
      regular file (a FIFO is refused before the open would block). *)
  val open_file : ?chunk_words:int -> string -> t

  val program_digest : t -> string

  (** The seven refill-wired tapes, in section order (an optional section
      the file leaves out is served empty). *)
  val tapes : t -> Tape.t array

  val close : t -> unit
end
