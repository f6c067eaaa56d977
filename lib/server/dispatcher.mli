(** The shard pool at the heart of the replay farm: a fixed set of OCaml 5
    domains, each running one VM at a time, fed from per-shard local
    queues plus a shared {!Jobq} idle shards steal from, and reporting
    through an in-order results channel.

    Shard isolation invariant: a job's VM (warm or cold), trace
    writer/reader, and temporary files live entirely on the shard that
    runs it — local-queue entries never migrate. Shards share only the
    work queues, the stats block, and the reorder buffer — each a small
    mutex-guarded structure touched once per job. *)

(** Raised by [ctx.should_stop] (and catchable by job code for cleanup)
    when the entry was cancelled. *)
exception Cancelled

(** Raised by [ctx.should_stop] when the entry's deadline has passed. *)
exception Deadline_exceeded

type ctx = {
  shard : int;  (** index of the domain running the job *)
  seq : int;  (** the entry's submission sequence number *)
  should_stop : unit -> unit;
      (** poll point: raises {!Cancelled} or {!Deadline_exceeded}; job code
          calls this between VM slices *)
}

(** Placement decision for one submission: [Shared] — any idle shard
    takes it (the farm's lane for lint and explore jobs); [Shard i] —
    pinned to shard [i]'s local queue (the warm-VM affinity lane, for
    record/replay/roundtrip; reduced mod the shard count). *)
type place = Shared | Shard of int

type 'r outcome =
  | Done of 'r
  | Failed of string
      (** [run] raised; jobs are deterministic, so this is final *)
  | Timed_out
  | Cancelled_

type ('a, 'r) result = {
  r_seq : int;
  r_payload : 'a;
  r_outcome : 'r outcome;
  r_attempts : int;
      (** 1 if [run] was called, 0 if the entry ended while queued *)
  r_latency : float;  (** submission to completion, seconds *)
  r_shard : int;
}

type ('a, 'r) t

(** Spawn [shards] worker domains (default 4) running [run], at most once
    per entry. [run] may raise: {!Cancelled}/{!Deadline_exceeded}
    terminate the job with the matching outcome, any other exception with
    [Failed] — there are no retries, since a job is a pure function of its
    spec and inputs and would raise again. An entry whose deadline has
    already passed (or that was cancelled) when dequeued completes without
    [run] being called (its [r_attempts] is 0). [place] routes each
    submission (default: everything Shared); [stats] lets the caller share
    a stats block with other layers (default: fresh). *)
val create :
  ?shards:int ->
  ?place:('a -> place) ->
  ?stats:Stats.t ->
  run:(ctx -> 'a -> 'r) ->
  unit ->
  ('a, 'r) t

val shards : ('a, 'r) t -> int

val stats : ('a, 'r) t -> Stats.t

val queue_depth : ('a, 'r) t -> int

(** Enqueue a job. [deadline] is absolute Unix time. Returns the entry,
    usable with {!cancel}. *)
val submit : ('a, 'r) t -> ?deadline:float -> 'a -> 'a Jobq.entry

val cancel : 'a Jobq.entry -> unit

(** Stop accepting submissions; queued entries still run. *)
val close : ('a, 'r) t -> unit

(** Next result in submission order. Blocks until seq [next_out] lands;
    [None] once the queue is closed and every submission's slot has been
    emitted. Single-consumer. *)
val next : ('a, 'r) t -> ('a, 'r) result option

(** Join the worker domains (idempotent; call after {!close}). *)
val join : ('a, 'r) t -> unit

(** {!close}, collect every remaining result in submission order, then
    {!join}. *)
val drain : ('a, 'r) t -> ('a, 'r) result list
