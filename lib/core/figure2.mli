(** The paper's Figure 2, verbatim: the symmetric yield-point
    instrumentation for record mode (A) and replay mode (B).

    Record counts yield points into [nyp] and, when the timer interrupt
    set the preemption bit, records the delta and performs the switch.
    Replay counts the same clock {e down} and switches when it reaches
    zero — the preemption bit is ignored. The [liveclock] flag excludes
    yield points executed by the instrumentation itself. *)

(** Record-mode yield-point hook (install as [h_yieldpoint]). *)
val record : Session.t -> Vm.Rt.t -> unit

(** The next recorded switch delta ([max_int] past the last): replay primes
    [nyp] with it before the run, and reloads it at every switch. *)
val next_switch : Session.t -> int

(** Replay-mode yield-point hook. *)
val replay : Session.t -> Vm.Rt.t -> unit
