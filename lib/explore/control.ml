(* The controlled scheduler: run ONE schedule of a workload under full
   scheduling control, recording it as a normal DejaVu session.

   The explorer owns both scheduling degrees of freedom the VM has:

   - yield decisions — at every yield point where another thread is ready,
     continue (0) or preempt (1). The decision is imposed by setting
     [vm.preempt_pending] before delegating to the stock [Figure2.record]
     instrumentation, so a forced preemption is recorded on the switches
     tape exactly like a timer-driven one and plain replay reproduces it;
   - pick decisions — at every dispatch consultation with more than one
     ready thread, which thread runs next (the FIFO head by default). The
     choice flows through the [h_pick] hook and is pushed on the session's
     picks tape, which replay feeds back through its own [h_pick].

   Decision slots are numbered in execution order; a schedule is the
   vector of values taken. [run ~prefix] forces the first |prefix| slots
   and takes defaults beyond (continue / FIFO), logging every slot with
   the alternatives still admissible under the bounds — the driver
   re-runs with extended prefixes to visit them. Because execution up to
   slot k is a pure function of decisions 0..k-1, slot numbering is stable
   across runs sharing a prefix.

   Bounding: at most [pb] forced preemptions and [db] non-FIFO picks per
   schedule (Musuvathi-Qadeer iterative context bounding: most concurrency
   bugs need very few preemptions).

   DPOR / sleep-set flavour pruning: the "preempt" alternative at a yield
   is enumerated only when the segment just executed — the instructions
   since the previous decision slot, all by one thread — was CONFLICTING:
   it touched a static conflict site from the race audit's branch-point
   oracle, or performed a monitor operation, allocation, GC, clock read,
   input read, native call, spawn, or output. A non-conflicting segment
   commutes with every concurrent action, so preempting after it reaches
   only states some other explored schedule (preempting before it, or the
   pick alternatives at the previous slot) already covers; the suppressed
   branch is counted as pruned. Time-sensitive programs (the oracle's
   [time_sensitive]) disable the rule: the environment clock ticks per
   instruction, so no segment commutes. *)

module Trace = Dejavu.Trace
module Session = Dejavu.Session
module Recorder = Dejavu.Recorder
module Figure2 = Dejavu.Figure2

type kind = Yield | Pick

type node = {
  nd_kind : kind;
  nd_taken : int; (* 0/1 for Yield; a tid for Pick *)
  nd_alts : int list; (* untaken values admissible under the bounds *)
  nd_pruned : int; (* bound-admissible alternatives DPOR suppressed *)
}

type outcome = {
  oc_status : Vm.Rt.status;
  oc_output : string;
  oc_state : int; (* VM state digest *)
  oc_digest : int; (* outcome digest: state + status + output *)
  oc_log : node array; (* one entry per decision slot, execution order *)
  oc_trace : Trace.t option; (* None when the schedule aborted *)
  oc_aborted : bool; (* a forced pick named a non-ready thread *)
  oc_preempts : int;
  oc_delays : int;
  oc_instr : int;
}

(* FNV-1a-style outcome digest — deliberately not [Vm.digest] alone:
   two schedules can converge to one heap state yet differ in status or
   printed output, and the explorer must count those as distinct. *)
let mix h x = (h lxor x) * 0x100000001b3 land max_int

let mix_string h s =
  let h = ref (mix h (String.length s)) in
  String.iter (fun c -> h := mix !h (Char.code c)) s;
  !h

let outcome_digest status output state =
  mix_string (mix_string (mix 0x3ade68b1 state) (Vm.string_of_status status))
    output

let decisions (oc : outcome) = Array.map (fun n -> n.nd_taken) oc.oc_log

(* The segment-conflict counters: any delta since the segment began marks
   the segment conflicting (see the header comment for why each matters). *)
let counters (vm : Vm.Rt.t) =
  let s = vm.Vm.Rt.stats in
  ( s.Vm.Rt.n_monitor_ops,
    s.Vm.Rt.n_alloc_objects,
    s.Vm.Rt.n_gc,
    s.Vm.Rt.n_clock_reads,
    s.Vm.Rt.n_input_reads,
    s.Vm.Rt.n_native_calls,
    vm.Vm.Rt.n_threads,
    Buffer.length vm.Vm.Rt.output )

(* [vm], when given, is a VM already booted for [e] under [seed] (a farm
   shard's warm one); otherwise a fresh one is created from [config]. *)
let run ?(config = Vm.Rt.default_config) ?(seed = 1) ?vm ~pb ~db ~dpor
    ~(oracle : Oracle.t) ~(prefix : int array) (e : Workloads.Registry.entry) :
    outcome =
  let vm =
    match vm with
    | Some vm -> vm
    | None ->
      Vm.create ~config:(Dejavu.with_seed seed config) ~natives:e.natives
        e.program
  in
  let session = Recorder.attach vm in
  (* conflict-site bitmaps, lazily resolved per method uid *)
  let bitmaps : (int, bool array) Hashtbl.t = Hashtbl.create 16 in
  let touched = ref false in
  if oracle.Oracle.n_sites > 0 && not oracle.Oracle.time_sensitive then
    vm.Vm.Rt.hooks.Vm.Rt.h_observe <-
      Some
        (fun vm _tid uid pc _tag ->
          if not !touched then begin
            let bm =
              match Hashtbl.find_opt bitmaps uid with
              | Some bm -> bm
              | None ->
                let bm = Oracle.bitmap oracle vm uid in
                Hashtbl.add bitmaps uid bm;
                bm
            in
            if pc < Array.length bm && bm.(pc) then touched := true
          end);
  let depth = ref 0 in
  let log = ref [] in
  let preempts = ref 0 in
  let delays = ref 0 in
  let base = ref (counters vm) in
  let seg_reset () =
    touched := false;
    base := counters vm
  in
  let seg_conflicting () =
    oracle.Oracle.time_sensitive || !touched || counters vm <> !base
  in
  vm.Vm.Rt.hooks.Vm.Rt.h_yieldpoint <-
    (fun vmr ->
      if Queue.is_empty vmr.Vm.Rt.readyq then begin
        (* nobody else to run: not a decision slot; the running segment
           extends across this yield (a spawn in it would re-fill the
           ready queue AND flip the n_threads counter) *)
        vmr.Vm.Rt.preempt_pending <- false;
        Figure2.record session vmr
      end
      else begin
        let slot = !depth in
        incr depth;
        let taken =
          if slot < Array.length prefix && prefix.(slot) <> 0 then 1 else 0
        in
        let budget_ok = !preempts < pb in
        let conflicting = (not dpor) || seg_conflicting () in
        let pruned =
          if taken = 0 && budget_ok && not conflicting then 1 else 0
        in
        let alts =
          if taken = 1 then [ 0 ]
          else if budget_ok && conflicting then [ 1 ]
          else []
        in
        log :=
          { nd_kind = Yield; nd_taken = taken; nd_alts = alts;
            nd_pruned = pruned }
          :: !log;
        if taken = 1 then begin
          incr preempts;
          vmr.Vm.Rt.preempt_pending <- true
        end
        else vmr.Vm.Rt.preempt_pending <- false;
        seg_reset ();
        Figure2.record session vmr
      end);
  vm.Vm.Rt.hooks.Vm.Rt.h_pick <-
    Some
      (fun vmr fifo ->
        let others =
          List.rev (Queue.fold (fun acc t -> t :: acc) [] vmr.Vm.Rt.readyq)
        in
        let chosen =
          if others = [] then fifo
          else begin
            let slot = !depth in
            incr depth;
            let taken =
              if slot < Array.length prefix then prefix.(slot) else fifo
            in
            let budget_ok = !delays < db in
            let alts =
              (if taken <> fifo then [ fifo ] else [])
              @
              if budget_ok then List.filter (fun t -> t <> taken) others
              else []
            in
            log :=
              { nd_kind = Pick; nd_taken = taken; nd_alts = alts;
                nd_pruned = 0 }
              :: !log;
            if taken <> fifo then incr delays;
            taken
          end
        in
        seg_reset ();
        Trace.Tape.push session.Session.picks chosen;
        chosen);
  let aborted = ref false in
  (try ignore (Vm.run vm)
   with Vm.Sched.Sched_error _ ->
     (* a forced pick named a thread that is not ready here: the witness
        does not fit this program point — a dead branch, counted pruned *)
     aborted := true);
  let trace = if !aborted then None else Some (Recorder.finish session) in
  let status = Vm.status vm in
  let output = Vm.output vm in
  let state = Vm.digest vm in
  {
    oc_status = status;
    oc_output = output;
    oc_state = state;
    oc_digest = outcome_digest status output state;
    oc_log = Array.of_list (List.rev !log);
    oc_trace = trace;
    oc_aborted = !aborted;
    oc_preempts = !preempts;
    oc_delays = !delays;
    oc_instr = vm.Vm.Rt.stats.Vm.Rt.n_instr;
  }
