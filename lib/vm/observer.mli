(** Execution observers: capture or digest the event sequence (one event
    per executed instruction, yield points included). The paper defines
    two executions as identical when their event sequences and per-event
    states agree; observers are how tests and benches check exactly that.

    Both tiers serve [Rt.hooks.h_observe] with the same events: a register
    region reports a segment's instructions in canonical pc order before
    that segment's effects. So an observer may read only its arguments and
    static method data, never the guest heap, stack or clock. Attaching
    replaces any previous observer. *)

type t

(** Attach a rolling-hash observer (cheap; suitable for full runs). *)
val attach_digest : Rt.t -> t

(** Attach a collecting observer keeping up to [max_events] events. The
    cap bounds retention only: [digest] and [count] stay exact past it,
    and [dropped] reports how many events were not kept. *)
val attach_collect : ?max_events:int -> Rt.t -> t

val detach : Rt.t -> unit

(** Rolling hash over every observed event — the same fold for both
    observer kinds, so digests are comparable across them. *)
val digest : t -> int

(** True number of events observed (including any dropped past the cap). *)
val count : t -> int

(** Events a collecting observer saw but did not keep; 0 for digesting. *)
val dropped : t -> int

(** The collected events in execution order; raises on digest observers. *)
val events : t -> Rt.obs list

val pp_obs : Format.formatter -> Rt.obs -> unit

(** Dynamic sharing tracker: a vector-clock happens-before race detector
    (FastTrack-lite) over the heap-access hooks. Locations are concrete
    heap words mapped back to the static analysis's field keys ("C.f" by
    declaring class, "C.f (static)", "[]" for array elements), so dynamic
    race witnesses are directly comparable with [dvrun lint] findings.
    Happens-before comes from program order plus the scheduler's
    synchronization edges (lock release/acquire, spawn, join, interrupt) —
    never from the observed interleaving itself. *)
module Sharing : sig
  type t

  (** Install the tracker, chaining any hooks already present. [skip] is
      the thread-local fast path: field keys for which it returns true
      (e.g. proven thread-local by the static analysis) bypass all
      bookkeeping; skip tables are precomputed per class so the access
      path never calls the predicate. *)
  val attach : ?skip:(string -> bool) -> Rt.t -> t

  (** Restore the hooks captured at attach. *)
  val detach : t -> unit

  (** False once the collector has run: per-word keying is then stale and
      the tracker stops recording. Size the heap to keep test runs
      GC-free. *)
  val valid : t -> bool

  val n_tracked : t -> int

  val n_skipped : t -> int

  (** Field keys with at least one dynamically observed race, sorted. *)
  val racy_keys : t -> string list

  val racy_witness : t -> string -> string option

  (** Field keys with a cross-thread, write-involving access pair left
      unordered by spawn/join/interrupt edges alone (locks deliberately
      not consulted) — the dynamic analogue of the static conflict-pair
      set, and always a superset of [racy_keys]. The property tests pin
      these keys ⊆ [Analysis.Report.conflict_fields]. *)
  val conflict_keys : t -> string list

  val conflict_witness : t -> string -> string option

  (** Field keys touched by two or more distinct threads, sorted. *)
  val shared_keys : t -> string list
end
