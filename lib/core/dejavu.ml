(* DejaVu — deterministic replay for the simulated Jalapeño VM.

   [record] runs a program with recording instrumentation and returns the
   trace; [replay] re-runs it, substituting every non-deterministic result
   from the trace; [record_to]/[replay_from] do the same through a trace
   file; [verify_roundtrip] checks the paper's accuracy criterion:
   identical event sequences and identical program states.

   Record and replay each have one driver core, shared in memory and on
   file, and with the farm's jobs: [record_into] is the file-record
   bracket, [replay_guard] the replay guard. *)

module Trace = Trace
module Tape = Trace.Tape
module Ring = Ring
module Session = Session
module Figure2 = Figure2
module Recorder = Recorder
module Replayer = Replayer
module Audit = Audit
module Symmetry = Symmetry

exception Divergence = Session.Divergence

type run = {
  vm : Vm.t;
  status : Vm.Rt.status;
  output : string;
  state_digest : int;
  obs_digest : int; (* digest of the full event sequence *)
  obs_count : int;
  session : Session.t option; (* None when the trace was rejected outright *)
}

(* [config] with the environment seed replaced. *)
let with_seed seed (config : Vm.Rt.config) =
  { config with Vm.Rt.env_cfg = { config.Vm.Rt.env_cfg with Vm.Env.seed } }

(* [session] is None when replay rejected the trace at attach: nothing ran,
   so there is no state digest. *)
let finish_run vm session observer =
  let obs f = match observer with Some o -> f o | None -> 0 in
  {
    vm;
    status = Vm.status vm;
    output = Vm.output vm;
    state_digest = (if Option.is_none session then 0 else Vm.digest vm);
    obs_digest = obs Vm.Observer.digest;
    obs_count = obs Vm.Observer.count;
    session;
  }

(* [observe] attaches the event-sequence digest observer the roundtrip
   check compares; it costs a per-instruction hash fold, so overhead
   measurements turn it off. *)
let observer_for ~observe vm =
  if observe then Some (Vm.Observer.attach_digest vm) else None

let run_recording ~limit ~observe vm session =
  let observer = observer_for ~observe vm in
  ignore (Vm.run ?limit vm);
  finish_run vm (Some session) observer

(* The one file-record bracket, serving [record_to] and the farm's record
   job: attach the recorder to [writer]'s tapes, [run] the VM, seal the
   file (temp file + atomic rename). Any exception aborts the writer, so a
   crashed or cancelled recording leaves nothing behind. *)
let record_into (vm : Vm.t) writer run =
  match
    let session = Recorder.attach_stream vm writer in
    let r = run session in
    (r, Recorder.finish_stream session writer)
  with
  | result -> result
  | exception e ->
    Trace.Writer.abort writer;
    raise e

(* The one replay guard, serving [replay], [replay_from] and the farm's
   replay job. [attach] checks the trace header and installs the replay
   hooks; a trace it rejects, or a [Divergence] or [Sched_error] while
   [drive] runs the VM, ends the run with a [Fatal] status instead of an
   exception. Returns the
   session (None when the trace was rejected) and the warnings: the
   unconsumed trace words, or the rejection. *)
let replay_guard (vm : Vm.t) ~attach ~drive =
  let fatal msg =
    vm.Vm.Rt.status <- Vm.Rt.Fatal ("replay divergence: " ^ msg)
  in
  match attach () with
  | exception Session.Divergence msg ->
    fatal msg;
    (None, [ msg ])
  | session ->
    (* Sched_error: a picks-bearing trace steered dispatch to a thread that
       is not ready here — the schedule does not fit this program/state *)
    (try drive () with Session.Divergence msg | Vm.Sched.Sched_error msg ->
       fatal msg);
    (Some session, Replayer.check_complete session)

let run_replay ~limit ~observe vm attach =
  let observer = ref None in
  let session, leftovers =
    replay_guard vm ~attach ~drive:(fun () ->
        observer := observer_for ~observe vm;
        ignore (Vm.run ?limit vm))
  in
  (finish_run vm session !observer, leftovers)

(* Run a program in record mode. The environment (seed) supplies the
   non-determinism being captured. *)
let record ?(config = Vm.Rt.default_config) ?(natives = []) ?(inputs = [])
    ?(seed = 1) ?limit ?(observe = true) program : run * Trace.t =
  let vm = Vm.create ~config:(with_seed seed config) ~natives ~inputs program in
  let session = Recorder.attach vm in
  let run = run_recording ~limit ~observe vm session in
  (run, Recorder.finish session)

(* Replay a trace. The seed deliberately defaults to something different
   from any recording seed: replay must not depend on the environment. *)
let replay ?(config = Vm.Rt.default_config) ?(natives = []) ?(seed = 424242)
    ?limit ?(observe = true) program (trace : Trace.t) : run * string list =
  let vm = Vm.create ~config:(with_seed seed config) ~natives program in
  run_replay ~limit ~observe vm (fun () -> Replayer.attach vm trace)

(* Record straight into a trace file through the streaming writer: bounded
   recorder-side memory. *)
let record_to ?(config = Vm.Rt.default_config) ?(natives = []) ?(inputs = [])
    ?(seed = 1) ?limit ?(observe = true) ~path program : run * Trace.sizes =
  let vm = Vm.create ~config:(with_seed seed config) ~natives ~inputs program in
  record_into vm (Trace.Writer.create path) (run_recording ~limit ~observe vm)

(* Replay from a trace file through the streaming reader: O(chunk) replay-
   side trace memory. Raises Trace.Format_error on a malformed file. *)
let replay_from ?(config = Vm.Rt.default_config) ?(natives = [])
    ?(seed = 424242) ?limit ?(observe = true) ~path program :
    run * string list =
  let vm = Vm.create ~config:(with_seed seed config) ~natives program in
  let reader = Trace.Reader.open_file path in
  Fun.protect
    ~finally:(fun () -> Trace.Reader.close reader)
    (fun () ->
      run_replay ~limit ~observe vm (fun () ->
          Replayer.attach_stream vm reader))

type roundtrip = {
  recorded : run;
  replayed : run;
  trace : Trace.t;
  outputs_equal : bool;
  states_equal : bool;
  events_equal : bool;
  replay_complete : bool;
  leftovers : string list;
}

let ok rt =
  rt.outputs_equal && rt.states_equal && rt.events_equal && rt.replay_complete

(* Record with [seed], replay with an unrelated seed, compare everything. *)
let verify_roundtrip ?config ?natives ?inputs ?(seed = 1) ?limit program :
    roundtrip =
  let recorded, trace = record ?config ?natives ?inputs ~seed ?limit program in
  let replayed, leftovers =
    replay ?config ?natives ~seed:(seed + 99991) ?limit program trace
  in
  {
    recorded;
    replayed;
    trace;
    outputs_equal = String.equal recorded.output replayed.output;
    states_equal = recorded.state_digest = replayed.state_digest;
    events_equal =
      recorded.obs_digest = replayed.obs_digest
      && recorded.obs_count = replayed.obs_count;
    replay_complete = leftovers = [];
    leftovers;
  }

let pp_roundtrip ppf rt =
  Fmt.pf ppf
    "events: %s (%d vs %d) output: %s state: %s trace-consumed: %s status: %s/%s"
    (if rt.events_equal then "EQUAL" else "DIFFER")
    rt.recorded.obs_count rt.replayed.obs_count
    (if rt.outputs_equal then "EQUAL" else "DIFFER")
    (if rt.states_equal then "EQUAL" else "DIFFER")
    (if rt.replay_complete then "yes" else String.concat "; " rt.leftovers)
    (Vm.string_of_status rt.recorded.status)
    (Vm.string_of_status rt.replayed.status)
