(* Convenience runners so tests and the bench harness can exercise every
   scheme uniformly. *)

type recorded = {
  status : Vm.Rt.status;
  output : string;
  state_digest : int;
  obs_digest : int;
  obs_count : int;
  trace_words : int; (* total recorded words incl. non-reproducible tapes *)
  detail : string;
}

let seeded seed = Dejavu.with_seed seed Vm.Rt.default_config

let finish vm observer ~trace_words ~detail =
  {
    status = Vm.status vm;
    output = Vm.output vm;
    state_digest = Vm.digest vm;
    obs_digest = Vm.Observer.digest observer;
    obs_count = Vm.Observer.count observer;
    trace_words;
    detail;
  }

(* --- record-only schemes ---------------------------------------------- *)

let record_crew ?(natives = []) ?(seed = 1) program =
  let vm = Vm.create ~config:(seeded seed) ~natives program in
  let b = Crew.attach vm in
  let observer = Vm.Observer.attach_digest vm in
  ignore (Vm.run vm);
  let s = Crew.sizes b in
  finish vm observer ~trace_words:s.trace_words
    ~detail:(Fmt.str "reads=%d writes=%d" s.n_reads s.n_writes)

let record_read_log ?(natives = []) ?(seed = 1) program =
  let vm = Vm.create ~config:(seeded seed) ~natives program in
  let b = Read_log.attach vm in
  let observer = Vm.Observer.attach_digest vm in
  ignore (Vm.run vm);
  let s = Read_log.sizes b in
  finish vm observer ~trace_words:s.trace_words
    ~detail:(Fmt.str "reads=%d" s.n_reads)

(* --- full record/replay schemes --------------------------------------- *)

type roundtrip = {
  recorded : recorded;
  replayed : recorded;
  outputs_equal : bool;
  states_equal : bool;
  events_equal : bool;
}

let ok rt = rt.outputs_equal && rt.states_equal && rt.events_equal

let roundtrip_switch_map ?(natives = []) ?(seed = 1) program =
  let vm = Vm.create ~config:(seeded seed) ~natives program in
  let b = Switch_map.attach_record vm in
  let observer = Vm.Observer.attach_digest vm in
  ignore (Vm.run vm);
  let s = Switch_map.sizes b in
  let recorded =
    finish vm observer ~trace_words:s.trace_words
      ~detail:
        (Fmt.str "preempt=%d voluntary=%d" s.n_preemptive s.n_voluntary)
  in
  let trace = Dejavu.Session.to_trace b.session (Bytecode.Decl.digest program) in
  let entries = Switch_map.entries_array b in
  let vm2 = Vm.create ~config:(seeded (seed + 77777)) ~natives program in
  let b2 = Switch_map.attach_replay vm2 trace entries in
  let observer2 = Vm.Observer.attach_digest vm2 in
  (try ignore (Vm.run vm2)
   with Switch_map.Divergence msg ->
     vm2.Vm.Rt.status <- Vm.Rt.Fatal ("switch-map divergence: " ^ msg));
  let s2 = Switch_map.sizes b2 in
  let replayed =
    finish vm2 observer2 ~trace_words:s2.trace_words
      ~detail:(Fmt.str "map-lookups=%d" s2.map_lookups)
  in
  {
    recorded;
    replayed;
    outputs_equal = String.equal recorded.output replayed.output;
    states_equal = recorded.state_digest = replayed.state_digest;
    events_equal =
      recorded.obs_digest = replayed.obs_digest
      && recorded.obs_count = replayed.obs_count;
  }

let roundtrip_icount ?(natives = []) ?(seed = 1) program =
  let vm = Vm.create ~config:(seeded seed) ~natives program in
  (* the counter chains after the digest observer, so attach that first *)
  let observer = Vm.Observer.attach_digest vm in
  let b = Icount.attach_record vm in
  ignore (Vm.run vm);
  let s = Icount.sizes b in
  let recorded =
    finish vm observer ~trace_words:s.trace_words
      ~detail:(Fmt.str "switches=%d" s.n_switches)
  in
  let trace = Dejavu.Session.to_trace b.session (Bytecode.Decl.digest program) in
  let deltas = Icount.deltas_array b in
  let vm2 = Vm.create ~config:(seeded (seed + 77777)) ~natives program in
  let observer2 = Vm.Observer.attach_digest vm2 in
  let b2 = Icount.attach_replay vm2 trace deltas in
  (try ignore (Vm.run vm2)
   with Icount.Divergence msg ->
     vm2.Vm.Rt.status <- Vm.Rt.Fatal ("icount divergence: " ^ msg));
  ignore b2;
  let replayed =
    finish vm2 observer2 ~trace_words:s.trace_words ~detail:"icount replay"
  in
  {
    recorded;
    replayed;
    outputs_equal = String.equal recorded.output replayed.output;
    states_equal = recorded.state_digest = replayed.state_digest;
    events_equal =
      recorded.obs_digest = replayed.obs_digest
      && recorded.obs_count = replayed.obs_count;
  }
