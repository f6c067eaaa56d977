(** Dynamic sharing tracker: a vector-clock happens-before race detector
    (FastTrack-lite) over the heap-access hooks. Locations are concrete
    heap words mapped back to the static analysis's field keys ("C.f" by
    declaring class, "C.f (static)", "[]" for array elements), so dynamic
    race witnesses are directly comparable with [dvrun lint] findings.
    Happens-before comes from program order plus the scheduler's
    synchronization edges (lock release/acquire, spawn, join, interrupt) —
    never from the observed interleaving itself. *)

type t

(** Install the tracker, chaining any hooks already present. [skip] is
    the thread-local fast path: field keys for which it returns true
    (e.g. proven thread-local by the static analysis) bypass all
    bookkeeping; skip tables are precomputed per class so the access
    path never calls the predicate. *)
val attach : ?skip:(string -> bool) -> Vm.Rt.t -> t

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
