(** Register-IR lowering: translates verified stack bytecode into
    straight-line regions of register operations ([Rt.rop]) dispatched by
    the fast interpreter loop. Regions preserve canonical pc numbering,
    tick accounting, and every observable operand-stack write (DESIGN.md
    sections 7 and 10). *)

exception Error of string

(** Build the region table for a verified method body. Indexed by entry
    pc; [None] everywhere a region does not start. Regions never cross
    branch targets, handler boundaries, or excluded instructions, and
    only cover runs of at least two instructions. Every call, branch
    and return ends its region, so the pc after a call opens a region of
    its own and the code after a call stays on the register tier. *)
val lower :
  nlocals:int ->
  max_stack:int ->
  Rt.cinstr array ->
  Rt.rhandler array ->
  Rt.refmap array ->
  Rt.region option array

(** Static audit of a compiled method's region table ([Rt.compiled m])
    against its canonical code. Checks extents, tick totals, slot bounds,
    fault-time sp slots against the reference maps, and operand-by-operand
    agreement with [k_code], including that an [RInstr] names an
    instruction without a dedicated op and, for a call or return, is its
    region's last op. Raises [Error] on any violation, and
    [Invalid_argument] if [m] is not compiled. The compiler never runs
    it; the test suite does, on every method of the registry, and on
    corrupted tables it must reject. *)
val check : Rt.rmethod -> unit
