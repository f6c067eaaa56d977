(* Russinovich & Cogswell baseline (PLDI 1996).

   Their system captures thread switches on a uniprocessor, but — unlike
   DejaVu — it does NOT replay the thread package itself (theirs was the
   Mach kernel's). Consequences the paper calls out in section 5:

     - the replay mechanism "must tell the thread package which thread to
       schedule at each thread switch": EVERY switch (preemptive AND
       voluntary) logs the chosen thread, where DejaVu logs only the
       preemptive ones and lets the replayed thread package re-make every
       choice;
     - "this entails maintaining a mapping between the thread executing
       during record and during replay", consulted on every switch.

   Record entries, on the trace's switches tape:
     preemptive switch:  [0; nyp-delta; next-tid]
     voluntary switch:   [1; next-tid]

   Replay counts yield points to place preemptive switches and steers the
   scheduler through the h_pick dispatch override, translating recorded
   tids through the thread map (built from spawn order). *)

type t = {
  session : Dejavu.Session.t;
  mutable nyp : int; (* yield points since the last switch *)
  mutable pending_delta : int; (* record: delta for the in-flight preempt *)
  mutable pending_kind : int; (* -1 none, 0 preempt, 1 voluntary *)
  (* replay *)
  mutable thread_map : int array; (* record tid -> replay tid *)
  mutable n_mapped : int;
  mutable next_kind : int; (* head entry kind, -1 when exhausted *)
  mutable next_delta : int;
  mutable next_tid : int;
  mutable booted : bool;
  mutable forcing : bool; (* replay: inside a forced preemptive switch *)
}

let base session =
  {
    session;
    nyp = 0;
    pending_delta = 0;
    pending_kind = -1;
    thread_map = Array.make 64 (-1);
    n_mapped = 0;
    next_kind = -1;
    next_delta = 0;
    next_tid = -1;
    booted = false;
    forcing = false;
  }

(* --- record ----------------------------------------------------------- *)

let attach_record (vm : Vm.Rt.t) =
  let session = Dejavu.Session.for_record vm (Dejavu.Trace.new_tapes ()) in
  Dejavu.Recorder.attach_io vm session;
  let b = base session in
  let entries = session.switches in
  vm.hooks.h_yieldpoint <-
    (fun vm ->
      b.nyp <- b.nyp + 1;
      if vm.preempt_pending then begin
        vm.preempt_pending <- false;
        b.pending_kind <- 0;
        b.pending_delta <- b.nyp;
        Vm.Sched.perform_thread_switch vm
      end);
  vm.hooks.h_switch <-
    Some
      (fun vm _from to_ ->
        if vm.status = Vm.Rt.Running_ then begin
          (match b.pending_kind with
          | 0 ->
            Dejavu.Tape.push entries 0;
            Dejavu.Tape.push entries b.pending_delta;
            Dejavu.Tape.push entries to_
          | _ ->
            Dejavu.Tape.push entries 1;
            Dejavu.Tape.push entries to_);
          b.pending_kind <- -1;
          b.nyp <- 0
        end);
  session

(* --- replay ----------------------------------------------------------- *)

let divergence fmt = Dejavu.Session.divergence ("switch-map: " ^^ fmt)

let next_entry (b : t) =
  let entries = b.session.switches in
  let field () =
    try Dejavu.Tape.read entries
    with Dejavu.Trace.End_of_tape _ -> divergence "truncated entry"
  in
  match Dejavu.Tape.read_opt entries with
  | None -> b.next_kind <- -1
  | Some 0 ->
    b.next_kind <- 0;
    b.next_delta <- field ();
    b.next_tid <- field ()
  | Some 1 ->
    b.next_kind <- 1;
    b.next_tid <- field ()
  | Some k -> divergence "bad entry kind %d" k

let map_tid (b : t) record_tid =
  if record_tid < 0 || record_tid >= b.n_mapped
     || b.thread_map.(record_tid) < 0
  then divergence "unmapped record tid %d" record_tid;
  b.thread_map.(record_tid)

let register_thread (b : t) replay_tid =
  if b.n_mapped >= Array.length b.thread_map then begin
    let bigger = Array.make (2 * Array.length b.thread_map) (-1) in
    Array.blit b.thread_map 0 bigger 0 b.n_mapped;
    b.thread_map <- bigger
  end;
  (* record tids are spawn-ordered, so the n-th record thread corresponds
     to the n-th replay thread *)
  b.thread_map.(b.n_mapped) <- replay_tid;
  b.n_mapped <- b.n_mapped + 1

let attach_replay (vm : Vm.Rt.t) (trace : Dejavu.Trace.t) =
  Dejavu.Replayer.check_header vm ~program_digest:trace.program_digest;
  let session = Dejavu.Session.for_replay vm (Dejavu.Trace.tapes trace) in
  Dejavu.Replayer.attach_io vm session;
  let b = base session in
  next_entry b;
  vm.hooks.h_spawn <- Some (fun _vm tid -> register_thread b tid);
  vm.hooks.h_yieldpoint <-
    (fun vm ->
      b.nyp <- b.nyp + 1;
      if b.next_kind = 0 && b.nyp = b.next_delta then begin
        (* the recorded run preempted at this yield point *)
        b.forcing <- true;
        Vm.Sched.perform_thread_switch vm;
        b.forcing <- false
      end);
  vm.hooks.h_pick <-
    Some
      (fun _vm default ->
        if not b.booted then begin
          (* the boot dispatch predates any recorded switch *)
          b.booted <- true;
          default
        end
        else begin
          (match (b.next_kind, b.forcing) with
          | -1, _ -> divergence "switch beyond the recorded trace"
          | 0, false ->
            divergence "voluntary switch where a preemption was recorded"
          | 1, true ->
            divergence "preemption where a voluntary switch was recorded"
          | _ -> ());
          let want = map_tid b b.next_tid in
          next_entry b;
          b.nyp <- 0;
          want
        end);
  session

let roundtrip ?natives ?seed program =
  Dejavu.roundtrip_with ~attach_record ~attach_replay ?natives ?seed program

(* --- sizes ------------------------------------------------------------ *)

type sizes = { trace_words : int; n_preemptive : int; n_voluntary : int }

let sizes (s : Dejavu.Session.t) : sizes =
  let io =
    Dejavu.Tape.length s.clocks
    + Dejavu.Tape.length s.inputs
    + Dejavu.Tape.length s.natives
  in
  (* count entry kinds *)
  let arr = Dejavu.Tape.to_array s.switches in
  let p = ref 0 and v = ref 0 in
  let i = ref 0 in
  while !i < Array.length arr do
    if arr.(!i) = 0 then begin
      incr p;
      i := !i + 3
    end
    else begin
      incr v;
      i := !i + 2
    end
  done;
  { trace_words = Array.length arr + io; n_preemptive = !p; n_voluntary = !v }
