(** Listings of compiled kinstr code — what the interpreter actually
    executes, after sync expansion, yield-point injection, and lowering.
    Complements [Bytecode.Disasm] (which prints source bytecode): virtual
    call/spawn sites are tagged [ic] (inline cache), injected yield points
    are tagged [; yp], and the register regions follow the canonical
    stream. *)

val string_of_bin : Rt.bin -> string

(** Inline-cache state as a short tag: [cold], [mono <class>],
    [poly(n){classes}], or [mega]. Runtime state — the same site prints
    differently before and after execution. *)
val string_of_ic : Rt.t -> Rt.ic -> string

(** Print one compiled instruction, resolving class/method names through
    the runtime. *)
val pp_cinstr : Rt.t -> Format.formatter -> Rt.cinstr -> unit

(** Print one register op: destination/source slots as [r<i>], canonical
    fault pcs as [@<pc>], call sites with their inline-cache state. *)
val pp_rop : Rt.t -> Format.formatter -> Rt.rop -> unit

(** Print a method's canonical compiled stream, one line per pc, with a
    source-pc column and ic/yield-point markers, followed by the
    register-IR regions (entry pc, covered instruction count, ops). The
    method must already be compiled (raises [Invalid_argument]
    otherwise). *)
val pp_compiled : Rt.t -> Format.formatter -> Rt.rmethod -> unit
