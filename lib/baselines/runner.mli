(** Uniform runners over the baseline schemes, used by the tests and the
    bench harness: record-only runs (CREW, read-log) and full record/replay
    roundtrips (switch-map, instruction count). *)

type recorded = {
  status : Vm.Rt.status;
  output : string;
  state_digest : int;
  obs_digest : int;
  obs_count : int;
  trace_words : int;  (** including the non-reproducible-event tapes *)
  detail : string;
}

val record_crew :
  ?natives:Vm.Native.spec list ->
  ?seed:int ->
  Bytecode.Decl.program ->
  recorded

val record_read_log :
  ?natives:Vm.Native.spec list ->
  ?seed:int ->
  Bytecode.Decl.program ->
  recorded

type roundtrip = {
  recorded : recorded;
  replayed : recorded;
  outputs_equal : bool;
  states_equal : bool;
  events_equal : bool;
}

val ok : roundtrip -> bool

val roundtrip_switch_map :
  ?natives:Vm.Native.spec list ->
  ?seed:int ->
  Bytecode.Decl.program ->
  roundtrip

val roundtrip_icount :
  ?natives:Vm.Native.spec list ->
  ?seed:int ->
  Bytecode.Decl.program ->
  roundtrip
