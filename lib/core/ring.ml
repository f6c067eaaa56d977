(* DejaVu's event buffer, allocated *inside the VM heap* and pinned as a GC
   root — the paper's "Symmetry in Allocation": the same buffer object is
   allocated at the same execution point in record and replay modes, and
   every event value is written into it at the same execution point in both
   modes (record writes what it captures, replay writes what it reads back),
   so the instrumentation's heap footprint is bit-identical across modes. *)

type t = { vm : Vm.Rt.t; pin : int; size : int; mutable pos : int; mutable writes : int }

let default_words = 1024

let create (vm : Vm.Rt.t) ?(words = default_words) () =
  if words < 1 then invalid_arg "Ring.create: words < 1";
  let addr = Vm.Heap.alloc_array vm ~elem_ref:false ~len:words in
  let pin = Vm.Heap.pin vm addr in
  { vm; pin; size = words; pos = 0; writes = 0 }

(* On every recorded or replayed event, so it reads the pinned address and
   writes the slot itself (what [Vm.Heap.pinned] and [Vm.Layout.set] do,
   without two calls that separate compilation keeps from inlining) and
   wraps by comparison rather than [mod]. The heap array is re-read each
   time: a collection may have moved the buffer or flipped semispaces. *)
let put r w =
  let vm = r.vm in
  vm.heap.(vm.pinned_roots.(r.pin) + Vm.Layout.header_words + r.pos) <- w;
  let pos = r.pos + 1 in
  r.pos <- (if pos = r.size then 0 else pos);
  r.writes <- r.writes + 1

let writes r = r.writes
