(** Symmetric side effects (paper section 2.4): every effect the
    instrumentation has on the VM must occur identically in record and
    replay modes — allocation, loading/compilation warm-up, eager stack
    growth, and the logical-clock gating. *)

(** Save a small trace file and load it back through [Trace.Writer] and
    [Trace.Reader], exercising the trace output and input code paths at
    initialization in both modes (the paper's "Symmetry in Loading and
    Compilation"). Runs once per process; domain-safe. *)
val warmup_io : unit -> unit

(** Eagerly grow the current thread's stack when headroom falls below the
    configured slack — called before instrumentation-driven thread
    switches so stack-growth points cannot differ between modes. *)
val ensure_headroom : Vm.Rt.t -> unit
