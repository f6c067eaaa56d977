(** Observability for the replay farm: counters, a queue-depth gauge, and a
    log2-bucketed latency histogram (p50/p99 report a bucket upper bound).
    All operations are thread/domain-safe. *)

type t

(** A consistent read-only copy for reporting. *)
type view = {
  v_submitted : int;
  v_succeeded : int;
  v_failed : int;
  v_cancelled : int;
  v_timed_out : int;
  v_depth : int;  (** jobs submitted but not yet completed *)
  v_peak_depth : int;
  v_warm_hits : int;  (** jobs served by a warm-VM reset *)
  v_warm_misses : int;  (** jobs that booted a VM *)
  v_mean : float;  (** seconds *)
  v_max : float;
  v_p50 : float;  (** bucket upper bound, seconds *)
  v_p99 : float;
}

type terminal = Succeeded | Failed_ | Cancelled_ | Timed_out_

val create : unit -> t

val on_submit : t -> unit

(** Undo an [on_submit] whose enqueue was refused (e.g. closed queue). *)
val on_submit_rejected : t -> unit

(** A job acquired its VM: [hit] = reset from a warm baseline rather than
    booted. *)
val on_warm : t -> hit:bool -> unit

(** Count a terminal outcome and fold [latency] (submission to completion,
    seconds) into the histogram. *)
val on_complete : t -> terminal -> latency:float -> unit

val view : t -> view

val pp_view : Format.formatter -> view -> unit
