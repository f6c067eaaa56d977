(** The bytecode interpreter: frame management on heap-allocated stacks,
    lazy class initialization, lazy method compilation, exception
    unwinding, and the yield-point hook through which all thread switching
    happens. See the implementation header for the GC invariants.

    The dispatch loop runs a register region ([Rt.compiled .k_regions])
    wherever one starts at the current pc, and otherwise the canonical
    [k_code]; regions batch their clock ticks through [Env.tick_batch]
    while preserving instruction counts, PRNG draws, stack writes, fault
    points and observer events bit-for-bit ({e the parity contract},
    DESIGN.md sections 7 and 10). An attached observer is served on both
    tiers and never decides which one runs. *)

exception Fatal of string

(** Grow the current thread's stack to hold at least [need] more words
    above sp (used by the instrumentation's eager-growth symmetry). Raises
    [Rt.Vm_exception "StackOverflowError"] past the configured maximum. *)
val ensure_stack : Rt.t -> Rt.thread -> need:int -> unit

(** Push an activation frame for a callee on the current thread.
    [resume_pc] is where the caller continues; [explicit_args] supplies
    arguments directly (thread start, callbacks, class initializers) —
    otherwise they move from the operand stack. *)
val push_frame :
  Rt.t -> Rt.rmethod -> resume_pc:int -> ?explicit_args:int array -> unit -> unit

(** Lazily initialize a class (intern string literals, queue [<clinit>]).
    Returns false when the caller must re-execute the current instruction
    after the queued initializers run. *)
val ensure_initialized : Rt.t -> int -> bool

(** Unwind the current thread with an exception object. *)
val raise_exception : Rt.t -> int -> unit

(** Allocate a builtin exception by class name and unwind. *)
val throw_by_name : Rt.t -> string -> unit

(** Execute up to [fuel] instructions through the batched run-until-yield
    dispatch loop, committing [n_instr] once at exit. VM-level exceptions
    unwind the guest thread; resource exhaustion sets a Fatal status. Hook
    attachment and detachment take effect at the next dispatch-segment
    boundary (thread switch, call/return, unwind, or re-entry), never
    mid-segment. Does nothing unless the status is [Running_]. *)
val exec_batch : Rt.t -> fuel:int -> unit

(** [exec_batch ~fuel:1]: execute one instruction of the current thread
    (the debugger steps with it). No region runs, since every region
    retires at least two instructions. *)
val step : Rt.t -> unit

(** Create the main thread and queue main-class initialization. *)
val boot : Rt.t -> unit

(** Run until the machine stops or [limit] instructions retire; drives
    [exec_batch]. *)
val run : ?limit:int -> Rt.t -> unit

(** Run at most [fuel] more instructions, leaving the status [Running_]
    when the budget elapses mid-program — cooperative slicing for the job
    server's deadline/cancellation checks. Unlike {!run}, hitting the
    budget is not an error; the caller enforces any overall limit. *)
val run_slice : Rt.t -> fuel:int -> unit
