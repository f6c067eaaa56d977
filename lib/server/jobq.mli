(** The farm's work queues: one shared queue any shard may steal from,
    plus one local queue per shard that only its owner pops (warm-VM
    affinity work never migrates). Entries carry scheduling metadata
    (absolute deadline, cancellation flag); the dispatcher enforces the
    policy. Each entry is popped exactly once: jobs are deterministic, so
    a failure is final and nothing is re-enqueued. *)

type 'a entry = {
  seq : int;  (** submission order; also the results-channel position *)
  payload : 'a;
  deadline : float option;  (** absolute Unix time *)
  submitted_at : float;
  cancelled : bool Atomic.t;
      (** set by the submitter, polled by the worker domain running the
          entry *)
}

type 'a t

(** [shards] local queues (default 1) plus the shared queue. *)
val create : ?shards:int -> unit -> 'a t

val shards : 'a t -> int

(** Enqueue onto [shard]'s local queue, or the shared queue when [shard]
    is negative (the default). Raises [Invalid_argument] on a closed
    queue or an out-of-range shard. *)
val submit : 'a t -> ?deadline:float -> ?shard:int -> 'a -> 'a entry

(** Cooperative cancellation: a queued entry is reported cancelled when
    popped; a running one stops at its next poll. *)
val cancel : 'a entry -> unit

val is_cancelled : 'a entry -> bool

(** Block until an entry [shard] may run is available — its own local
    queue first, then the shared queue, each in FIFO order; [None] once
    the queue is closed and nothing poppable by this shard remains.
    Cancelled or deadline-expired entries are returned like any other
    (the dispatcher emits their result slot). *)
val pop_shard : 'a t -> shard:int -> 'a entry option

val close : 'a t -> unit

(** Entries sitting in any queue right now (excludes running jobs). *)
val depth : 'a t -> int

val is_closed : 'a t -> bool

(** Total entries ever submitted. *)
val submitted : 'a t -> int
