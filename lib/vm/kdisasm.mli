(** Listings of compiled kinstr code — what the interpreter actually
    executes, after sync expansion, yield-point injection, and lowering.
    Complements [Bytecode.Disasm] (which prints source bytecode):
    injected yield points are tagged [; yp], and the register regions
    follow the canonical stream. *)

val string_of_bin : Rt.bin -> string

(** Print one compiled instruction, resolving class/method names through
    the runtime. *)
val pp_cinstr : Rt.t -> Format.formatter -> Rt.cinstr -> unit

(** Print one register op of a method whose canonical stream is the given
    array: destination/source slots as [r<i>], canonical fault pcs as
    [@<pc>]. An [RInstr] prints as the canonical instruction it runs, so a
    virtual call names the method the vtable resolves to. *)
val pp_rop : Rt.t -> Rt.cinstr array -> Format.formatter -> Rt.rop -> unit

(** Print a method's canonical compiled stream, one line per pc, with a
    source-pc column and yield-point markers, followed by the
    register-IR regions (entry pc, covered instruction count, ops). The
    method must already be compiled (raises [Invalid_argument]
    otherwise). *)
val pp_compiled : Rt.t -> Format.formatter -> Rt.rmethod -> unit
