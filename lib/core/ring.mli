(** DejaVu's event buffer, allocated {e inside the VM heap} and pinned as a
    GC root — the paper's "Symmetry in Allocation": the buffer object is
    allocated at the same execution point in record and replay modes, and
    every event value is written into it at the same execution point in
    both modes (record writes what it captures, replay writes what it
    reads back), so the instrumentation's heap footprint is bit-identical
    across modes. *)

type t = {
  vm : Vm.Rt.t;
  pin : int;  (** pinned-root index of the buffer object *)
  size : int;
  mutable pos : int;
  mutable writes : int;
}

val default_words : int

(** Allocate the buffer in [vm]'s heap and pin it; [words] must be at
    least 1. *)
val create : Vm.Rt.t -> ?words:int -> unit -> t

(** Write one event word at the current position (wrapping). *)
val put : t -> int -> unit

(** Total writes so far — equal between a recording and its replay. *)
val writes : t -> int
