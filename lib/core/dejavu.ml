(* DejaVu — deterministic replay for the simulated Jalapeño VM.

   [record] runs a program with recording instrumentation and returns the
   trace; [replay] re-runs it, substituting every non-deterministic result
   from the trace; [record_to]/[replay_from] do the same through a trace
   file; [verify_roundtrip] checks the paper's accuracy criterion:
   identical event sequences and identical program states.

   Record and replay each have one driver core, shared in memory and on
   file, and with the farm's jobs: [record_into] is the file-record
   bracket, [replay_guard] the replay guard. Whether a replay passed is
   one [verdict], decided by [classify] and [replay_end] (the phases
   [replay_guard] is built from, and the debugger's) and refined by
   [judge]; every consumer reads it. The in-memory drivers take the
   scheme's attach functions ([record_with], [replay_with],
   [roundtrip_with]), so the baseline schemes of lib/baselines replay
   through the same guard and are judged the same way. *)

module Trace = Trace
module Tape = Trace.Tape
module Ring = Ring
module Session = Session
module Figure2 = Figure2
module Recorder = Recorder
module Replayer = Replayer
module Symmetry = Symmetry

exception Divergence = Session.Divergence

(* The one replay verdict. [replay_guard] decides it from how the replay
   itself went, never from the VM's final status: a recording that ended
   [Fatal] replays [Ok] when the replay ends the same way. [judge] refines
   [Ok] against the run the replay should reproduce. *)
type verdict =
  | Ok
  | Rejected of string (* a foreign header or malformed trace bytes *)
  | Diverged of string (* the replay departed from the recording *)
  | Incomplete of string list (* trace words left unconsumed *)

let pp_verdict ppf = function
  | Ok -> Fmt.string ppf "ok"
  | Rejected msg -> Fmt.pf ppf "rejected: %s" msg
  | Diverged msg -> Fmt.pf ppf "diverged: %s" msg
  | Incomplete left -> Fmt.pf ppf "incomplete: %s" (String.concat "; " left)

let string_of_verdict v = Fmt.str "%a" pp_verdict v

type run = {
  vm : Vm.t;
  status : Vm.Rt.status;
  output : string;
  state_digest : int;
  obs_digest : int; (* digest of the full event sequence; 0 unobserved *)
  obs_count : int;
  verdict : verdict; (* [Ok] for a recording *)
}

(* [config] with the environment seed replaced. *)
let with_seed seed (config : Vm.Rt.config) =
  { config with Vm.Rt.env_cfg = { config.Vm.Rt.env_cfg with Vm.Env.seed } }

let finish_run ?observer vm verdict =
  let obs f = match observer with Some o -> f o | None -> 0 in
  {
    vm;
    status = Vm.status vm;
    output = Vm.output vm;
    state_digest = Vm.digest vm;
    obs_digest = obs Vm.Observer.digest;
    obs_count = obs Vm.Observer.count;
    verdict;
  }

(* Refine an [Ok] replay against the run it should reproduce: the first of
   status, output, state digest and event sequence that differs makes it
   [Diverged]. Unobserved runs carry event digest and count 0, so judge
   two runs made with the same [observe]. Any other verdict stands. *)
let judge ~expected replayed =
  let differs =
    if replayed.status <> expected.status then Some "status"
    else if not (String.equal replayed.output expected.output) then
      Some "output"
    else if replayed.state_digest <> expected.state_digest then
      Some "state digest"
    else if
      replayed.obs_digest <> expected.obs_digest
      || replayed.obs_count <> expected.obs_count
    then Some "event sequence"
    else None
  in
  match (replayed.verdict, differs) with
  | Ok, Some field -> Diverged (field ^ " differs from the recorded run")
  | v, _ -> v

(* [observe] attaches the event-sequence digest observer the roundtrip
   check compares; it costs a per-instruction hash fold, so overhead
   measurements turn it off. It goes on before a scheme's hooks, record
   and replay alike: it replaces [h_observe], which a scheme may chain
   onto (Baselines.Icount counts instructions there). *)
let observer_for ~observe vm =
  if observe then Some (Vm.Observer.attach_digest vm) else None

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

(* The one classifier of replay exceptions: [f ()]'s result, or the
   verdict the exception it raised makes. Malformed trace bytes are
   [Rejected], and so is a [Divergence] while [opening] (the trace header
   refuses this program); a [Divergence] or [Sched_error] while driving is
   [Diverged] (Sched_error: a picks-bearing trace steered dispatch to a
   thread that is not ready here). A rejection or divergence also ends the
   VM [Fatal]. Any other exception propagates. *)
let classify ~opening (vm : Vm.t) f =
  let stop verdict =
    vm.Vm.Rt.status <- Vm.Rt.Fatal ("replay " ^ string_of_verdict verdict);
    Error verdict
  in
  match f () with
  | x -> Result.Ok x
  | exception Trace.Format_error msg -> stop (Rejected msg)
  | exception Session.Divergence msg when opening -> stop (Rejected msg)
  | exception (Session.Divergence msg | Vm.Sched.Sched_error msg) ->
    stop (Diverged msg)

(* A replay in three phases, for drivers that pause it (the debugger):
   [replay_open] runs [attach], which reads the trace header and installs
   the replay hooks, and returns the session or a [Rejected] verdict;
   [replay_advance] runs [drive] for any stretch of the replay and returns
   [Ok] or how it failed; [replay_end] takes the last advance's verdict
   and makes unconsumed trace words [Incomplete], returning the verdict
   and those words. *)
let replay_open vm attach = classify ~opening:true vm attach

let replay_advance vm drive =
  match classify ~opening:false vm drive with
  | Result.Ok () -> Ok
  | Error verdict -> verdict

let replay_end session verdict =
  let leftovers = Replayer.check_complete session in
  match (verdict, leftovers) with
  | Ok, _ :: _ -> (Incomplete leftovers, leftovers)
  | v, _ -> (v, leftovers)

(* The one replay guard, serving [replay], [replay_from] and the farm's
   replay job: the three phases in one go, [drive] running the VM to its
   end. Returns the verdict and the warnings: the unconsumed trace words,
   or the rejection. *)
let replay_guard vm ~attach ~drive =
  match replay_open vm attach with
  | Error verdict -> (verdict, [ string_of_verdict verdict ])
  | Result.Ok session -> replay_end session (replay_advance vm drive)

let run_replay ~observe vm ~attach ~drive =
  let observer = ref None in
  let verdict, leftovers =
    replay_guard vm ~drive ~attach:(fun () ->
        observer := observer_for ~observe vm;
        attach ())
  in
  (finish_run ?observer:!observer vm verdict, leftovers)

(* Replay [vm] from the trace file at [path] through the streaming reader
   (O(chunk) replay-side trace memory), [drive] running it. The file is
   opened inside the guard, so a malformed header is a [Rejected] verdict
   like any other trace error; only a missing or unreadable file raises
   ([Sys_error]). *)
let replay_file ~observe vm ~path ~drive =
  let reader = ref None in
  Fun.protect
    ~finally:(fun () -> Option.iter Trace.Reader.close !reader)
    (fun () ->
      run_replay ~observe vm ~drive ~attach:(fun () ->
          let r = Trace.Reader.open_file path in
          reader := Some r;
          Replayer.attach_stream vm r))

(* Run a program in record mode, [attach] installing the scheme's hooks
   and returning its session. The environment (seed) supplies the
   non-determinism being captured. *)
let record_with ~attach ?(config = Vm.Rt.default_config) ?(natives = [])
    ?(inputs = []) ?(seed = 1) ?limit ?(observe = true) program : run * Trace.t
    =
  let vm = Vm.create ~config:(with_seed seed config) ~natives ~inputs program in
  let observer = observer_for ~observe vm in
  let session = attach vm in
  ignore (Vm.run ?limit vm);
  (finish_run ?observer vm Ok, Recorder.finish session)

(* Replay a trace through the one replay guard, [attach] installing the
   scheme's hooks over it. The seed deliberately defaults to something
   different from any recording seed: replay must not depend on the
   environment. *)
let replay_with ~attach ?(config = Vm.Rt.default_config) ?(natives = [])
    ?(seed = 424242) ?limit ?(observe = true) program (trace : Trace.t) :
    run * string list =
  let vm = Vm.create ~config:(with_seed seed config) ~natives program in
  run_replay ~observe vm
    ~attach:(fun () -> attach vm trace)
    ~drive:(fun () -> ignore (Vm.run ?limit vm))

let record = record_with ~attach:Recorder.attach

let replay = replay_with ~attach:Replayer.attach

(* Record straight into a trace file through the streaming writer: bounded
   recorder-side memory. *)
let record_to ?(config = Vm.Rt.default_config) ?(natives = []) ?(inputs = [])
    ?(seed = 1) ?limit ?(observe = true) ~path program : run * Trace.sizes =
  let vm = Vm.create ~config:(with_seed seed config) ~natives ~inputs program in
  let observer = observer_for ~observe vm in
  record_into vm (Trace.Writer.create path) (fun _ ->
      ignore (Vm.run ?limit vm);
      finish_run ?observer vm Ok)

(* Replay from a trace file through the streaming reader: O(chunk) replay-
   side trace memory. A malformed file is a [Rejected] verdict; a missing
   one raises Sys_error. *)
let replay_from ?(config = Vm.Rt.default_config) ?(natives = [])
    ?(seed = 424242) ?limit ?(observe = true) ~path program :
    run * string list =
  let vm = Vm.create ~config:(with_seed seed config) ~natives program in
  replay_file ~observe vm ~path ~drive:(fun () -> ignore (Vm.run ?limit vm))

type roundtrip = {
  recorded : run;
  replayed : run;
  trace : Trace.t;
  verdict : verdict; (* the replay judged against the recording *)
}

(* The one roundtrip, for DejaVu and the baseline schemes alike: record
   with [seed] under [attach_record], replay with an unrelated seed under
   [attach_replay], judge the replay. *)
let roundtrip_with ~attach_record ~attach_replay ?config ?natives ?inputs
    ?(seed = 1) ?limit program : roundtrip =
  let recorded, trace =
    record_with ~attach:attach_record ?config ?natives ?inputs ~seed ?limit
      program
  in
  let replayed, _ =
    replay_with ~attach:attach_replay ?config ?natives ~seed:(seed + 99991)
      ?limit program trace
  in
  { recorded; replayed; trace; verdict = judge ~expected:recorded replayed }

let verify_roundtrip =
  roundtrip_with ~attach_record:Recorder.attach ~attach_replay:Replayer.attach

let pp_roundtrip ppf rt =
  Fmt.pf ppf "verdict: %a (events %d vs %d, status %s/%s)" pp_verdict
    rt.verdict rt.recorded.obs_count rt.replayed.obs_count
    (Vm.string_of_status rt.recorded.status)
    (Vm.string_of_status rt.replayed.status)
