(** Record mode: wraps the live hooks so that every non-deterministic
    result is captured on its tape while execution proceeds exactly as it
    would have live. Deterministic operations — including all
    synchronization outcomes and scheduler decisions — are deliberately
    not recorded: replaying the thread package reproduces them (the
    paper's cross-optimization payoff). *)

(** Install only the clock/input/native capture (every replay scheme needs
    this part — footnote 7 of the paper); baseline schemes combine it with
    their own switch instrumentation. *)
val attach_io : Vm.Rt.t -> Session.t -> unit

(** Full DejaVu record attachment: {!attach_io} plus the Figure-2
    yield-point hook. Attach before [Vm.boot] so initialization-time side
    effects stay symmetric with replay. *)
val attach : Vm.Rt.t -> Session.t

(** {!attach} over the writer's tapes instead of fresh ones: they drain
    into its bounded buffers, so recorder-side trace memory is constant in
    event count. Finish with {!finish_stream} (or [Trace.Writer.abort] to
    discard). *)
val attach_stream : Vm.Rt.t -> Trace.Writer.t -> Session.t

(** Produce the trace, stamped with the program digest. *)
val finish : Session.t -> Trace.t

(** Seal a streamed recording into its destination file (atomic rename),
    with the same stamp as {!finish}; aborts the writer on error so no
    partial trace is left behind. *)
val finish_stream : Session.t -> Trace.Writer.t -> Trace.sizes
