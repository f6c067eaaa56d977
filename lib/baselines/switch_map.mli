(** Russinovich & Cogswell baseline (PLDI 1996): thread-switch capture on a
    uniprocessor {e without} replaying the thread package. Consequently
    (paper, section 5) the recording must log {e every} switch — voluntary
    ones included — together with the chosen next thread, and replay must
    steer the scheduler through an external record-to-replay thread map.
    Full record and replay; the entries (preemptive: [0; delta; tid],
    voluntary: [1; tid]) fill the trace's switches section. *)

(** Record every switch on the session's switches tape, plus the IO
    capture. Attach before [Vm.boot]. *)
val attach_record : Vm.Rt.t -> Dejavu.Session.t

(** Replay the trace's IO events and steer the scheduler (via the [h_pick]
    dispatch override) through the recorded switches. A foreign header
    raises [Dejavu.Divergence] here; a departure from the schedule raises
    it during the run. *)
val attach_replay : Vm.Rt.t -> Dejavu.Trace.t -> Dejavu.Session.t

(** {!Dejavu.roundtrip_with} over this scheme: record with [seed]
    (default 1), replay with an unrelated one, judge the replay. *)
val roundtrip :
  ?natives:Vm.Native.spec list ->
  ?seed:int ->
  Bytecode.Decl.program ->
  Dejavu.roundtrip

type sizes = { trace_words : int; n_preemptive : int; n_voluntary : int }

(** Sizes of a recording session. *)
val sizes : Dejavu.Session.t -> sizes
