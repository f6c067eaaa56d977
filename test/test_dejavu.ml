(* DejaVu record/replay: the paper's accuracy criterion (identical event
   sequences and states), precision (record mode behaves like live mode),
   symmetry, trace integrity, and divergence detection. *)

open Tutil

let roundtrip ?config ?seed (e : Workloads.Registry.entry) =
  Dejavu.verify_roundtrip ?config ~natives:e.natives ?seed e.program

let entry name =
  match Workloads.Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "no workload %s" name

let check_rt name rt =
  if rt.Dejavu.verdict <> Dejavu.Ok then
    Alcotest.failf "%s: %s" name (Fmt.str "%a" Dejavu.pp_roundtrip rt)

(* --- accuracy across the whole catalogue ------------------------------- *)

let test_all_workloads_roundtrip () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      List.iter
        (fun seed -> check_rt (Fmt.str "%s/seed%d" e.name seed) (roundtrip ~seed e))
        [ 1; 5 ])
    (Lazy.force Workloads.Registry.all)

let test_roundtrip_under_gc_pressure () =
  let e = entry "gc-churn" in
  let config = { Vm.Rt.default_config with heap_words = 6000 } in
  let rt = roundtrip ~config ~seed:3 e in
  check_rt "gc-churn small heap" rt;
  Alcotest.(check bool) "collections happened" true
    ((Vm.stats rt.recorded.vm).n_gc > 0)

let test_deadlock_replays () =
  (* record a deadlocked execution; replay must deadlock identically *)
  let e = entry "philosophers-deadlock" in
  let seed =
    let rec find s =
      if s > 200 then None
      else
        let _, st = run ~seed:s e.program in
        if st = Vm.Rt.Deadlocked then Some s else find (s + 1)
    in
    find 1
  in
  match seed with
  | None -> () (* no deadlocking seed found: nothing to check *)
  | Some seed ->
    let rt = roundtrip ~seed e in
    check_rt "deadlock roundtrip" rt;
    Alcotest.check status_testable "recorded deadlock" Vm.Rt.Deadlocked
      rt.recorded.status;
    Alcotest.check status_testable "replayed deadlock" Vm.Rt.Deadlocked
      rt.replayed.status

(* --- precision: record mode behaves like live mode --------------------- *)

let test_record_matches_live () =
  List.iter
    (fun name ->
      let e = entry name in
      let vm_live = Vm.create ~natives:e.natives e.program in
      let obs_live = Vm.Observer.attach_digest vm_live in
      ignore (Vm.run vm_live);
      let rec_run, _trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
      Alcotest.(check string)
        (name ^ ": outputs equal")
        (Vm.output vm_live) rec_run.Dejavu.output;
      Alcotest.(check int)
        (name ^ ": event streams equal")
        (Vm.Observer.digest obs_live)
        rec_run.Dejavu.obs_digest)
    [ "fig1ab"; "racy-counter"; "producer-consumer"; "timed"; "bank" ]

(* --- determinism of replay itself --------------------------------------- *)

let test_replay_twice_identical () =
  let e = entry "bank" in
  let _, trace = Dejavu.record ~natives:e.natives ~seed:4 e.program in
  let r1, _ = Dejavu.replay ~natives:e.natives ~seed:111 e.program trace in
  let r2, _ = Dejavu.replay ~natives:e.natives ~seed:999 e.program trace in
  Alcotest.(check string) "outputs" r1.Dejavu.output r2.Dejavu.output;
  Alcotest.(check int) "digests" r1.Dejavu.state_digest r2.Dejavu.state_digest;
  Alcotest.(check int) "events" r1.Dejavu.obs_digest r2.Dejavu.obs_digest

let test_different_seeds_diverge () =
  let e = entry "racy-counter" in
  let outs =
    List.map
      (fun seed ->
        let vm, _ = run ~seed e.program in
        Vm.output vm)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "some difference" true
    (List.length (List.sort_uniq compare outs) > 1)

(* --- trace contents ------------------------------------------------------ *)

let test_trace_contents_switches_only () =
  let e = entry "primes" in
  let run_, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
  let s = Dejavu.Trace.sizes trace in
  Alcotest.(check int) "no clock reads" 0 s.Dejavu.Trace.n_clock_reads;
  Alcotest.(check int) "no inputs" 0 s.Dejavu.Trace.n_inputs;
  Alcotest.(check int) "no natives" 0 s.Dejavu.Trace.n_native_words;
  Alcotest.(check bool) "some switches" true (s.Dejavu.Trace.n_switches > 0);
  Alcotest.(check bool) "bounded by preempt requests" true
    (s.Dejavu.Trace.n_switches <= (Vm.stats run_.Dejavu.vm).n_preempt_req)

let test_trace_records_inputs_and_natives () =
  let e = entry "native" in
  let _, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
  let s = Dejavu.Trace.sizes trace in
  Alcotest.(check bool) "native words" true (s.Dejavu.Trace.n_native_words > 0);
  let e2 = entry "bank" in
  let _, trace2 = Dejavu.record ~natives:e2.natives ~seed:1 e2.program in
  Alcotest.(check int) "bank inputs" 450
    (Dejavu.Trace.sizes trace2).Dejavu.Trace.n_inputs

let test_switch_deltas_match_yieldpoints () =
  let e = entry "fig1ab" in
  let run_, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
  let sum = Array.fold_left ( + ) 0 trace.Dejavu.Trace.switches in
  Alcotest.(check bool) "sum <= yields" true
    (sum <= (Vm.stats run_.Dejavu.vm).n_yield);
  Alcotest.(check bool) "all deltas positive" true
    (Array.for_all (fun d -> d > 0) trace.Dejavu.Trace.switches)

(* --- divergence detection ------------------------------------------------ *)

(* Each tamper test runs on a recording in both trace layouts: as
   recorded (compact clock and native sections) and converted to the
   legacy sections older builds wrote (test/layouts.ml). *)
let in_both_layouts trace f =
  List.iter (fun (layout, t) -> f layout t) (Layouts.both trace)

let test_wrong_program_rejected () =
  let e1 = entry "fig1cd" and e2 = entry "fig1ab" in
  let _, trace = Dejavu.record ~natives:e1.natives ~seed:1 e1.program in
  in_both_layouts trace @@ fun layout trace ->
  let r, _ = Dejavu.replay ~natives:e2.natives e2.program trace in
  match r.Dejavu.verdict with
  | Dejavu.Rejected msg ->
    Alcotest.(check bool) (layout ^ ": names the program") true
      (contains msg "different program")
  | v ->
    Alcotest.failf "%s: accepted wrong program: %a" layout Dejavu.pp_verdict v

(* The first clock read's value moved by 13: in the legacy layout its
   value word, in the compact one its delta (which moves every later
   value too). *)
let test_tampered_clock_detected () =
  let e = entry "fig1cd" in
  let rec_run, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
  in_both_layouts trace @@ fun layout trace ->
  let tampered =
    match Layouts.clock_layout trace with
    | Dejavu.Trace.Legacy ->
      let legacy_clocks = Array.copy trace.legacy_clocks in
      legacy_clocks.(1) <- legacy_clocks.(1) + 13;
      { trace with legacy_clocks }
    | Dejavu.Trace.Compact ->
      let clocks = Array.copy trace.clocks in
      clocks.(0) <- clocks.(0) + (13 lsl 2);
      { trace with clocks }
  in
  let rep, leftovers = Dejavu.replay ~natives:e.natives e.program tampered in
  let detected =
    (match rep.Dejavu.status with Vm.Rt.Fatal _ -> true | _ -> false)
    || leftovers <> []
    || rep.Dejavu.output <> rec_run.Dejavu.output
    || rep.Dejavu.state_digest <> rec_run.Dejavu.state_digest
  in
  Alcotest.(check bool) (layout ^ ": tampering visible") true detected

let test_truncated_switch_tape () =
  (* removing a switch from the middle of the tape shifts every later
     switch: the replayed event sequence cannot match the recording. The
     switches section is the same in both layouts, and the one program
     whose recording has both switches and clock or native data, fig1cd,
     replays the same event sequence with its first or middle switch
     dropped, so this test keeps to racy-counter. *)
  let e = entry "racy-counter" in
  let rec_run, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
  let sw = trace.Dejavu.Trace.switches in
  let n = Array.length sw in
  if n > 4 then begin
    let k = n / 2 in
    let dropped =
      Array.append (Array.sub sw 0 k) (Array.sub sw (k + 1) (n - k - 1))
    in
    let tampered = { trace with Dejavu.Trace.switches = dropped } in
    let rep, _ = Dejavu.replay ~natives:e.natives e.program tampered in
    Alcotest.(check bool) "event stream differs" true
      (rep.Dejavu.obs_digest <> rec_run.Dejavu.obs_digest
      ||
      match rep.Dejavu.status with Vm.Rt.Fatal _ -> true | _ -> false)
  end

(* A recorded callback the program cannot take is a malformed trace, not a
   crash: replay rejects it before the interpreter pushes the frame. *)
let test_native_callback_rejected () =
  let e = entry "native" in
  let _, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
  in_both_layouts trace @@ fun layout trace ->
  List.iter
    (fun (what, f, needle) ->
      let what = layout ^ ": " ^ what in
      let r, _ =
        Dejavu.replay ~natives:e.natives e.program (tamper_first_callback f trace)
      in
      match r.Dejavu.verdict with
      | Dejavu.Rejected msg ->
        Alcotest.(check bool) (what ^ ": " ^ msg) true (contains msg needle)
      | v -> Alcotest.failf "%s: %a" what Dejavu.pp_verdict v)
    [
      ("uid out of range", (fun (_, args) -> (100_000, args)), "out of range");
      ("negative uid", (fun (_, args) -> (-3, args)), "out of range");
      ( "wrong arity",
        (fun (uid, args) -> (uid, Array.append args [| 7 |])),
        "arguments" );
    ]

(* [dvrun trace-dump] decodes each kind through the shared decoders in the
   layout that holds it: the clock, input and native listings of a
   recording are the same in both layouts. *)
let test_trace_dump_both_layouts () =
  let dvrun =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/dvrun.exe"
  in
  let listing t =
    let path = Filename.temp_file "dvdump" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Dejavu.Trace.save path t;
        let ic = Unix.open_process_args_in dvrun [| dvrun; "trace-dump"; path |] in
        let out = In_channel.input_all ic in
        (match Unix.close_process_in ic with
        | Unix.WEXITED 0 -> ()
        | _ -> Alcotest.fail "trace-dump failed");
        let mark = "-- wall-clock reads --" in
        let rec find i =
          if String.sub out i (String.length mark) = mark then i else find (i + 1)
        in
        let i = find 0 in
        String.sub out i (String.length out - i))
  in
  List.iter
    (fun name ->
      let e = entry name in
      let _, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
      let compact = listing trace and legacy = listing (Layouts.legacy trace) in
      Alcotest.(check bool) (name ^ ": compact form") true (trace <> Layouts.legacy trace);
      Alcotest.(check string) (name ^ ": same listings") compact legacy)
    [ "fig1cd"; "native"; "timed" ]

(* A kind with data in both its legacy and its compact section is
   malformed: which of the two would replay cannot be told. *)
let test_both_layouts_rejected () =
  List.iter
    (fun (name, edit) ->
      let e = entry name in
      let _, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
      let r, _ = Dejavu.replay ~natives:e.natives e.program (edit trace) in
      match r.Dejavu.verdict with
      | Dejavu.Rejected msg ->
        Alcotest.(check bool) (name ^ ": " ^ msg) true (contains msg "both")
      | v -> Alcotest.failf "%s: %a" name Dejavu.pp_verdict v)
    [
      ( "timed",
        fun t -> { t with legacy_clocks = (Layouts.legacy t).legacy_clocks } );
      ( "native",
        fun t -> { t with legacy_natives = (Layouts.legacy t).legacy_natives }
      );
    ]

(* --- one verdict for a recording that ends fatal ------------------------- *)

(* Allocates until the heap is exhausted: the run ends Fatal, and a replay
   that ends the same way reproduces it. *)
let oom_program =
  Bytecode.Parser.parse_string
    {|class Node {
        field next: Node
      }
      class Oom {
        static head: Node
        method main() locals 1 {
          loop:
            new Node
            store 0
            load 0
            getstatic Oom.head
            putfield Node.next
            load 0
            putstatic Oom.head
            goto loop
        }
      }|}

let test_fatal_recording_replays_ok () =
  let config = { Vm.Rt.default_config with heap_words = 20_000 } in
  let path = Filename.temp_file "dvoom" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let recorded, _ = Dejavu.record_to ~config ~path oom_program in
      Alcotest.(check string) "recording ends fatal" "fatal: OutOfMemoryError"
        (Vm.string_of_status recorded.Dejavu.status);
      let replayed, leftovers = Dejavu.replay_from ~config ~path oom_program in
      Alcotest.check verdict "replay_from" Dejavu.Ok replayed.Dejavu.verdict;
      Alcotest.(check (list string)) "trace consumed" [] leftovers;
      Alcotest.check verdict "judged" Dejavu.Ok
        (Dejavu.judge ~expected:recorded replayed);
      Alcotest.check verdict "verify_roundtrip" Dejavu.Ok
        (Dejavu.verify_roundtrip ~config oom_program).Dejavu.verdict)

(* [judge] names the first field that differs. *)
let test_judge_names_field () =
  let e = entry "fig1ab" in
  let rt = roundtrip ~seed:1 e in
  let replayed = rt.Dejavu.replayed in
  List.iter
    (fun (field, expected) ->
      match Dejavu.judge ~expected replayed with
      | Dejavu.Diverged msg ->
        Alcotest.(check bool) msg true (contains msg field)
      | v -> Alcotest.failf "%s: %a" field Dejavu.pp_verdict v)
    [
      ("status", { replayed with Dejavu.status = Vm.Rt.Deadlocked });
      ("output", { replayed with Dejavu.output = "x" });
      ("state digest", { replayed with Dejavu.state_digest = 1 });
      ("event sequence", { replayed with Dejavu.obs_count = 1 });
    ]

(* --- symmetry -------------------------------------------------------------- *)

let test_symmetric_state_digests () =
  let rt = roundtrip ~seed:2 (entry "producer-consumer") in
  Alcotest.(check int) "state digest incl. instrumentation heap"
    rt.recorded.state_digest rt.replayed.state_digest

let test_asymmetry_is_visible () =
  (* negative control for section 2.4: an instrumentation side effect that
     happens in one mode only (here: an extra replay-side allocation before
     attaching) keeps outputs equal — the GC is transparent — but the
     machine states are no longer bit-identical, which is exactly the
     guarantee symmetry buys *)
  let e = entry "gc-churn" in
  let config = { Vm.Rt.default_config with heap_words = 6000 } in
  let rec_run, trace =
    Dejavu.record ~config ~natives:e.natives ~seed:3 e.program
  in
  let vm = Vm.create ~config ~natives:e.natives e.program in
  (* the asymmetric side effect: a pinned (live) allocation, like a class
     loaded by the instrumentation in one mode only *)
  ignore (Vm.Heap.pin vm (Vm.Heap.alloc_array vm ~elem_ref:false ~len:32));
  let session = Dejavu.Replayer.attach vm trace in
  let observer = Vm.Observer.attach_digest vm in
  ignore (Vm.run vm);
  ignore session;
  Alcotest.(check string) "outputs still equal" rec_run.Dejavu.output
    (Vm.output vm);
  Alcotest.(check int) "event streams still equal" rec_run.Dejavu.obs_digest
    (Vm.Observer.digest observer);
  Alcotest.(check bool) "but states differ (symmetry broken)" true
    (Vm.digest vm <> rec_run.Dejavu.state_digest)

let test_ring_is_pinned () =
  let config = { Vm.Rt.default_config with heap_words = 5000 } in
  check_rt "pinned ring" (roundtrip ~config ~seed:7 (entry "gc-churn"))

(* The ring is [words] slots of one heap array: the write after the last
   slot wraps to slot 0, and the object allocated next to the ring keeps
   its header and contents. A ring has at least one slot. *)
let test_ring_wraps_in_place () =
  let vm = Vm.create (entry "fig1ab").program in
  let ring = Dejavu.Ring.create vm ~words:3 () in
  let next = Vm.Heap.alloc_array vm ~elem_ref:false ~len:2 in
  Vm.Layout.set vm next 0 41;
  Vm.Layout.set vm next 1 42;
  for v = 1 to 7 do
    Dejavu.Ring.put ring v
  done;
  let addr = Vm.Heap.pinned vm ring.Dejavu.Ring.pin in
  Alcotest.(check (list int))
    "slots" [ 7; 5; 6 ]
    (List.init 3 (Vm.Layout.get vm addr));
  Alcotest.(check int) "writes" 7 (Dejavu.Ring.writes ring);
  Alcotest.(check (list int))
    "neighbour intact" [ 2; 41; 42 ]
    [ Vm.Layout.len_of vm next; Vm.Layout.get vm next 0; Vm.Layout.get vm next 1 ];
  match Dejavu.Ring.create vm ~words:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a ring of 0 words"

(* --- persistence ------------------------------------------------------------ *)

let test_trace_file_roundtrip () =
  let e = entry "fig1cd" in
  let _, trace = Dejavu.record ~natives:e.natives ~seed:3 e.program in
  let path = Filename.temp_file "dv" ".trace" in
  Dejavu.Trace.save path trace;
  let loaded = Dejavu.Trace.load path in
  Sys.remove path;
  let r1, _ = Dejavu.replay ~natives:e.natives e.program trace in
  let r2, _ = Dejavu.replay ~natives:e.natives e.program loaded in
  Alcotest.(check int) "same replay" r1.Dejavu.state_digest r2.Dejavu.state_digest

(* --- the environment in replay ------------------------------------------ *)

(* A replaying VM takes every switch, clock reading, input and native
   result from the trace, so its environment never runs: no clock tick,
   no timer fire, no preemption request. Registry-wide at seed 1, for the
   file replay and for both baseline schemes' roundtrips; programs whose
   recording did raise preemption requests must be among them. *)
let test_environment_idle_in_replay () =
  let idle ctx (r : Dejavu.run) =
    if r.Dejavu.verdict <> Dejavu.Ok then
      Alcotest.failf "%s: %s" ctx (Dejavu.string_of_verdict r.Dejavu.verdict);
    let env = r.Dejavu.vm.Vm.Rt.env in
    Alcotest.(check int) (ctx ^ ": clock ticks") 0 env.Vm.Env.ticks;
    Alcotest.(check int) (ctx ^ ": timer fires") 0 env.Vm.Env.timer_fires;
    Alcotest.(check int)
      (ctx ^ ": preemption requests")
      0 (Vm.stats r.Dejavu.vm).Vm.Rt.n_preempt_req
  in
  let preempted = ref 0 in
  let path = Filename.temp_file "dv" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      List.iter
        (fun (e : Workloads.Registry.entry) ->
          let recorded, _ =
            Dejavu.record_to ~natives:e.natives ~seed:1 ~path e.program
          in
          if (Vm.stats recorded.Dejavu.vm).Vm.Rt.n_preempt_req > 0 then
            incr preempted;
          let replayed, _ =
            Dejavu.replay_from ~natives:e.natives ~path e.program
          in
          idle (e.name ^ " replay_from") replayed;
          let rt = Baselines.Icount.roundtrip ~natives:e.natives e.program in
          check_rt (e.name ^ " icount") rt;
          idle (e.name ^ " icount") rt.Dejavu.replayed;
          let rt =
            Baselines.Switch_map.roundtrip ~natives:e.natives e.program
          in
          check_rt (e.name ^ " switch-map") rt;
          idle (e.name ^ " switch-map") rt.Dejavu.replayed)
        (Lazy.force Workloads.Registry.all));
  Alcotest.(check bool)
    (Fmt.str "recordings with preemption requests (%d)" !preempted)
    true (!preempted >= 10)

let () =
  Alcotest.run "dejavu"
    [
      ( "accuracy",
        [
          quick "all workloads roundtrip" test_all_workloads_roundtrip;
          quick "roundtrip under GC pressure" test_roundtrip_under_gc_pressure;
          quick "deadlock replays" test_deadlock_replays;
        ] );
      ( "precision",
        [
          quick "record matches live" test_record_matches_live;
          quick "replay is deterministic" test_replay_twice_identical;
          quick "seeds do diverge" test_different_seeds_diverge;
        ] );
      ( "trace",
        [
          quick "compute workload: switches only" test_trace_contents_switches_only;
          quick "inputs and natives recorded" test_trace_records_inputs_and_natives;
          quick "switch deltas vs yield points" test_switch_deltas_match_yieldpoints;
          quick "file roundtrip" test_trace_file_roundtrip;
        ] );
      ( "divergence",
        [
          quick "wrong program rejected" test_wrong_program_rejected;
          quick "tampered clock detected" test_tampered_clock_detected;
          quick "truncated switches detected" test_truncated_switch_tape;
          quick "native callback rejected" test_native_callback_rejected;
          quick "one kind in both layouts rejected" test_both_layouts_rejected;
          quick "trace-dump lists both layouts alike" test_trace_dump_both_layouts;
          quick "judge names the field" test_judge_names_field;
        ] );
      ( "verdict",
        [
          quick "fatal recording replays ok" test_fatal_recording_replays_ok;
          quick "environment idle in replay" test_environment_idle_in_replay;
        ] );
      ( "symmetry",
        [
          quick "state digests symmetric" test_symmetric_state_digests;
          quick "asymmetry is visible" test_asymmetry_is_visible;
          quick "ring pinned across GC" test_ring_is_pinned;
          quick "ring wraps in place" test_ring_wraps_in_place;
        ] );
    ]
