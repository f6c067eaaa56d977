(** Whole-machine checkpoints: a deep copy of every piece of mutable VM
    state, restorable in place (the [Rt.t] identity is preserved, so
    installed hook closures stay valid). The mechanism behind
    checkpoint-accelerated time travel in the debugger — the replay-
    platform rendition of the checkpoint/re-execute reverse debuggers the
    paper discusses in section 5 (Igor, Recap, PPD, Boothe) — and the
    reset mechanism behind the farm's warm shards (see [Vm.reset]).

    Methods compiled after the save are un-installed, so a re-execution
    re-pays their compile clock charges, the compiler's one VM-visible
    effect; their bodies stay in each method's code cache, so it does not
    compile them again. Class-initialization state is rolled back: it has
    heap side effects. *)

type t

(** Capture the VM's complete mutable state. *)
val save : Rt.t -> t

(** Restore; the [Rt.t] must be the instance [save] ran on (same program
    image and configuration). *)
val restore : Rt.t -> t -> unit

(** Approximate size of the checkpoint, in words. *)
val words : t -> int
