(** Replay mode: deterministic operations re-execute; non-deterministic
    operations are systematically replaced by the retrieval of their
    recorded results. The environment's clock, input, and native code
    never run. Every retrieval checks that the event kind matches what the
    recording says comes next; a mismatch raises {!Divergence}. *)

exception Divergence of string

(** Install only the clock/input/native substitution. *)
val attach_io : Vm.Rt.t -> Session.t -> unit

(** Reject a header recorded for a different program. *)
val check_header : Vm.Rt.t -> program_digest:string -> unit

(** Full DejaVu replay attachment: digest check, {!attach_io}, and the
    Figure-2 replay yield-point hook, its [nyp] primed with the first
    recorded switch delta. *)
val attach : Vm.Rt.t -> Trace.t -> Session.t

(** {!attach} over a streaming reader's tapes and header: replay-side
    trace memory is O(chunk) in trace length. *)
val attach_stream : Vm.Rt.t -> Trace.Reader.t -> Session.t

(** Unconsumed-trace warnings, empty after a complete replay. *)
val check_complete : Session.t -> string list
