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
    the parity contract.

    Each method keeps the last body this VM compiled for it
    ([Rt.rmethod.rm_cache]). A snapshot restore un-installs the methods
    compiled after the save; compiling one of them again re-installs the
    cached body and pays the same clock charge and compile count as the
    first compile, without redoing any pass. The cache is per VM: a body
    points at its VM's own method and class records. *)

exception Error of string

(** Install the method's body (built once per VM; cached on the method
    record), charge the clock for it, and return it. Returns the installed
    body, with no charge, if there is one. *)
val compile : Rt.t -> Rt.rmethod -> Rt.compiled
