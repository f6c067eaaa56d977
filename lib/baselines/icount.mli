(** Instruction-counting baseline (paper section 2.3: counting instructions
    "will work, but the overhead is prohibitive"). Identical to DejaVu
    except switch points are identified by the retired-instruction count: a
    counter is bumped on every instruction, and replay compares it against
    the recorded target on every instruction. Full record and replay; the
    deltas fill the trace's switches section. The counter chains onto
    [h_observe], so attach any observer first. *)

(** Record the instruction count at every preemption on the session's
    switches tape, plus the IO capture. *)
val attach_record : Vm.Rt.t -> Dejavu.Session.t

(** Replay the trace's IO events and force switches at the recorded
    instruction counts. A foreign header raises [Dejavu.Divergence]. *)
val attach_replay : Vm.Rt.t -> Dejavu.Trace.t -> Dejavu.Session.t

(** {!Dejavu.roundtrip_with} over this scheme: record with [seed]
    (default 1), replay with an unrelated one, judge the replay. *)
val roundtrip :
  ?natives:Vm.Native.spec list ->
  ?seed:int ->
  Bytecode.Decl.program ->
  Dejavu.roundtrip
