(** Wire protocol for [dvrun serve]: 4-byte big-endian length-prefixed
    frames, payload fields in the trace codec's zigzag varints (strings as
    varint(length) + bytes). Malformed frames raise [Trace.Format_error],
    exactly like malformed trace files. *)

type op = Op_record | Op_replay | Op_roundtrip | Op_lint

val int_of_op : op -> int

(** Raises [Trace.Format_error] on an unknown tag. *)
val op_of_int : int -> op

val string_of_op : op -> string

type request =
  | Submit of {
      q_op : op;
      q_workload : string;
      q_seed : int;
      q_trace : string;
          (** server-side trace path for replay; [""] otherwise *)
      q_deadline_ms : int;  (** relative to receipt; 0 = none *)
    }
  | Finish
      (** no more submissions; the server streams remaining replies in
          submission order, then closes the connection *)

type reply = {
  p_seq : int;
  p_op : op;
  p_workload : string;
  p_outcome : int;  (** 0 done / 1 failed / 2 timed out / 3 cancelled *)
  p_status : string;
      (** final VM status ("ok" for lint), or the failure message of a
          failed job; a replay or roundtrip whose replay verdict is not ok
          fails with the verdict as its message *)
  p_digest : string;
  p_attempts : int;
  p_latency_us : int;
  p_words : int;
}

val encode_request : request -> string

(** The longest workload name or trace path a request may carry: 4,096
    bytes. Replies echo both, so the bound keeps every reply frame within
    the frame limit. *)
val max_name : int

(** Raises [Trace.Format_error] on a malformed payload, and on a workload
    name or trace path over [max_name] bytes. *)
val decode_request : string -> request

val encode_reply : reply -> string

val decode_reply : string -> reply

(** [None] at a clean EOF, before any byte of a frame; [Trace.Format_error]
    on a truncated or oversized frame. Memory follows the bytes received,
    not the length the header claims. *)
val read_frame : in_channel -> string option

val write_frame : out_channel -> string -> unit

val write_request : out_channel -> request -> unit

val read_request : in_channel -> request option

val write_reply : out_channel -> reply -> unit

val read_reply : in_channel -> reply option
