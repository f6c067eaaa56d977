(** The method "compiler": lowers a declared method to executable code —
    synchronized-method expansion, yield-point injection at the prologue
    and every loop backedge (the Jalapeño discipline aligning preemption,
    GC safe points, and DejaVu's logical clock), name resolution, and
    verification (reference maps + stack bound). Compilation is charged to
    the virtual clock, so {e when} a method gets compiled is visible to the
    environment — a cross-optimization side effect DejaVu keeps symmetric.

    Lowering pre-resolves everything the dispatch loop would otherwise
    re-derive per visit: static call and spawn operands carry the callee
    [Rt.rmethod] itself, string loads carry the owning [Rt.rclass], and
    virtual call/spawn sites carry their vtable slot, which each visit
    indexes in the receiver's vtable ([Rt.virtual_target]).

    After verification the register-IR lowering ([Regir.lower]) adds
    [Rt.compiled.k_regions], a sidecar of register regions indexed by
    entry pc; the canonical [k_code] stays the one stack-tier stream that
    every loop, observer and the debugger execute. With [cfg.regir =
    false] the table is all [None]. See DESIGN.md sections 7 and 10 for
    the parity contract. *)

exception Error of string

(** Compile (once; cached on the method record) and return the body. *)
val compile : Rt.t -> Rt.rmethod -> Rt.compiled
