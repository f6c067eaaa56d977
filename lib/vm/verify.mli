(** Bytecode verifier and reference-map builder: an abstract interpretation
    over compiled code computing, for every pc, the type of each local and
    operand-stack slot. The per-pc reference maps that make the collector
    type-accurate (Jalapeño's "reference maps") fall out of the fixpoint.
    The verifier is strict — ill-typed programs are rejected — so the
    interpreter runs without per-access checks and the collector can trust
    the maps. Arrays are invariant (no covariant stores), removing the need
    for runtime store checks. *)

exception Error of string

(** Abstract value types: bottom (uninitialized, value 0), integer, null,
    any object, an instance of a class (or subclass), an array with a
    precise element type. *)
type vt = Bot | VInt | VNull | VRef | VObj of int | VArr of vt

val pp_vt : Format.formatter -> vt -> unit

val is_ref : vt -> bool

val of_ty : Rt.t -> Bytecode.Instr.ty -> vt

(** Lattice join; raises {!Error} on int/ref conflicts. *)
val merge : Rt.t -> vt -> vt -> vt

(** Assignability: [VRef] accepts any object; class types by subtyping;
    arrays invariantly. *)
val assignable : Rt.t -> want:vt -> vt -> bool

type result = { maps : Rt.refmap array; max_stack : int }

(** Verify a compiled body against its handlers; returns the per-pc
    reference maps and the operand-stack bound, or raises {!Error}. *)
val verify : Rt.t -> Rt.rmethod -> Rt.cinstr array -> Rt.rhandler array -> result
