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
