(* The replay debugger: breakpoints, stepping, deterministic time travel,
   the command protocol, and non-perturbation of the replayed execution. *)

open Tutil

let entry name = Option.get (Workloads.Registry.find name)

let fresh_session ?(name = "fig1ab") ?(seed = 1) () =
  let e = entry name in
  let session, _run = Debugger.Session.record_and_start ~natives:e.natives ~seed e.program in
  session

let test_breakpoint_hit () =
  let d = fresh_session () in
  let _b = Debugger.Session.add_breakpoint d ~cls:"Fig1AB" ~meth:"t2" Debugger.Breakpoint.Any_pc in
  match Debugger.Session.continue_ d with
  | Debugger.Session.Hit b ->
    Alcotest.(check string) "class" "Fig1AB" b.bp_class;
    Alcotest.(check string) "method" "t2" b.bp_method;
    (match Debugger.Session.position d with
    | Some (m, pc) ->
      Alcotest.(check string) "stopped in t2" "t2" m.rm_name;
      Alcotest.(check int) "at entry" 0 pc
    | None -> Alcotest.fail "no position")
  | r -> Alcotest.failf "expected hit, got %s" (Debugger.Protocol.string_of_stop d r)

let test_step_counts () =
  let d = fresh_session () in
  (match Debugger.Session.step d 10 with
  | Debugger.Session.Step_done -> ()
  | r -> Alcotest.failf "unexpected %s" (Debugger.Protocol.string_of_stop d r));
  Alcotest.(check int) "ten steps" 10 d.steps

let test_continue_to_end () =
  let d = fresh_session () in
  match Debugger.Session.continue_ d with
  | Debugger.Session.Ended Dejavu.Ok when Vm.status d.vm = Vm.Rt.Finished ->
    Alcotest.check
      Alcotest.(option verdict)
      "verdict after the end" (Some Dejavu.Ok) (Debugger.Session.verdict d)
  | r -> Alcotest.failf "unexpected %s" (Debugger.Protocol.string_of_stop d r)

let test_replay_equals_undebugged () =
  (* stepping + heavy inspection must not change the replayed outcome *)
  let e = entry "fig1ab" in
  let run_rec, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
  let d =
    Result.get_ok (Debugger.Session.start ~natives:e.natives e.program trace)
  in
  ignore (Debugger.Session.add_breakpoint d ~cls:"Fig1AB" ~meth:"t1" Debugger.Breakpoint.Any_pc);
  ignore (Debugger.Session.continue_ d);
  (* inspect a lot *)
  for _ = 1 to 20 do
    ignore (Debugger.Session.threads d);
    ignore (Debugger.Session.frames d 0);
    let module R = (val Remote_reflection.Remote_object.reflection (Debugger.Session.space d)) in
    ignore (R.get_static "Fig1AB" "x");
    ignore (R.get_static "Fig1AB" "y")
  done;
  ignore (Debugger.Session.continue_ d);
  Alcotest.(check string) "same output" run_rec.Dejavu.output
    (Debugger.Session.output d);
  Alcotest.(check int) "same final digest" run_rec.Dejavu.state_digest
    (Debugger.Session.state_digest d)

let test_time_travel_deterministic () =
  (* landing on the same step twice gives the same state digest *)
  let d = fresh_session ~name:"racy-counter" () in
  ignore (Debugger.Session.step d 5000);
  let digest_a = Debugger.Session.state_digest d in
  ignore (Debugger.Session.step d 3000);
  (match Debugger.Session.goto_step d 5000 with
  | Debugger.Session.Step_done -> ()
  | r -> Alcotest.failf "goto failed: %s" (Debugger.Protocol.string_of_stop d r));
  Alcotest.(check int) "steps" 5000 d.steps;
  Alcotest.(check int) "same digest at step 5000" digest_a
    (Debugger.Session.state_digest d)

(* Travelling back over clock reads restores the compact clock entries'
   delta base with the tape cursor: every clock value read after the
   landing point, and so the run's end, is the recording's. Once from the
   step-0 checkpoint, once from a later one. *)
let test_time_travel_over_clock_reads () =
  let e = entry "timed" in
  let recorded, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
  List.iter
    (fun checkpoint_interval ->
      let ctx = Fmt.str "checkpoints every %d" checkpoint_interval in
      let d =
        Result.get_ok
          (Debugger.Session.start ~natives:e.natives ~checkpoint_interval
             e.program trace)
      in
      ignore (Debugger.Session.step d 300);
      let digest_at_200 =
        ignore (Debugger.Session.goto_step d 200);
        Debugger.Session.state_digest d
      in
      ignore (Debugger.Session.step d 150);
      ignore (Debugger.Session.goto_step d 200);
      Alcotest.(check int) (ctx ^ ": same state at step 200") digest_at_200
        (Debugger.Session.state_digest d);
      (match Debugger.Session.continue_ d with
      | Debugger.Session.Ended Dejavu.Ok -> ()
      | r ->
        Alcotest.failf "%s: %s" ctx (Debugger.Protocol.string_of_stop d r));
      Alcotest.(check string) (ctx ^ ": output") recorded.Dejavu.output
        (Debugger.Session.output d);
      Alcotest.(check int)
        (ctx ^ ": final digest") recorded.Dejavu.state_digest
        (Debugger.Session.state_digest d))
    [ 0; 100 ]

let test_goto_forward () =
  let d = fresh_session () in
  ignore (Debugger.Session.step d 100);
  ignore (Debugger.Session.goto_step d 500);
  Alcotest.(check int) "landed" 500 d.steps

let test_breakpoint_by_src_pc () =
  let d = fresh_session () in
  ignore
    (Debugger.Session.add_breakpoint d ~cls:"Fig1AB" ~meth:"t1"
       (Debugger.Breakpoint.Src_pc 0));
  match Debugger.Session.continue_ d with
  | Debugger.Session.Hit _ -> (
    match Debugger.Session.position d with
    | Some (m, _) -> Alcotest.(check string) "in t1" "t1" m.rm_name
    | None -> Alcotest.fail "no position")
  | r -> Alcotest.failf "no hit: %s" (Debugger.Protocol.string_of_stop d r)

let test_remove_breakpoint () =
  let d = fresh_session () in
  let b = Debugger.Session.add_breakpoint d ~cls:"Fig1AB" ~meth:"t2" Debugger.Breakpoint.Any_pc in
  Debugger.Session.remove_breakpoint d b.bp_id;
  match Debugger.Session.continue_ d with
  | Debugger.Session.Ended Dejavu.Ok -> ()
  | r -> Alcotest.failf "should run to end: %s" (Debugger.Protocol.string_of_stop d r)

let test_watchpoint_fires () =
  let d = fresh_session ~name:"fig1ab" () in
  let w = Debugger.Session.add_watchpoint d ~cls:"Fig1AB" ~field:"y" in
  (match Debugger.Session.continue_ d with
  | Debugger.Session.Watch_fired (w', old, now) ->
    Alcotest.(check int) "id" w.w_id w'.Debugger.Session.w_id;
    Alcotest.(check int) "old" 0 old;
    Alcotest.(check bool) "changed" true (now <> 0)
  | r -> Alcotest.failf "no watch hit: %s" (Debugger.Protocol.string_of_stop d r));
  (* the same watch fires at the same step on a second replay *)
  let step_a = d.steps in
  let d2 = fresh_session ~name:"fig1ab" () in
  ignore (Debugger.Session.add_watchpoint d2 ~cls:"Fig1AB" ~field:"y");
  ignore (Debugger.Session.continue_ d2);
  Alcotest.(check int) "deterministic step" step_a d2.steps

let test_watchpoint_resync_after_goto () =
  let d = fresh_session ~name:"fig1ab" () in
  ignore (Debugger.Session.add_watchpoint d ~cls:"Fig1AB" ~field:"y");
  ignore (Debugger.Session.continue_ d) (* first change *);
  let fire_step = d.steps in
  ignore (Debugger.Session.goto_step d (fire_step + 500));
  (* travelling must not re-fire spuriously at the landing point *)
  ignore (Debugger.Session.goto_step d 10);
  match Debugger.Session.continue_ d with
  | Debugger.Session.Watch_fired _ ->
    Alcotest.(check int) "re-fires at the same change" fire_step d.steps
  | r -> Alcotest.failf "unexpected %s" (Debugger.Protocol.string_of_stop d r)

let test_set_static_breaks_symmetry () =
  let e = entry "racy-counter" in
  let run_rec, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
  let d =
    Result.get_ok (Debugger.Session.start ~natives:e.natives e.program trace)
  in
  (* stop near the end so the poke survives to the final print *)
  ignore (Debugger.Session.step d (run_rec.Dejavu.obs_count - 10));
  Alcotest.(check bool) "not perturbed yet" false (Debugger.Session.perturbed d);
  let before = Debugger.Session.state_digest d in
  Debugger.Session.set_static d ~cls:"Racy" ~field:"count" 1_000_000;
  Alcotest.(check bool) "perturbed" true (Debugger.Session.perturbed d);
  Alcotest.(check bool) "digest changed" true
    (Debugger.Session.state_digest d <> before);
  (* replay can resume, but accuracy is no longer guaranteed *)
  ignore (Debugger.Session.continue_ d);
  Alcotest.(check bool) "outcome differs from the recording" true
    (Debugger.Session.output d <> run_rec.Dejavu.output)

let test_set_static_rejects_refs () =
  let d = fresh_session ~name:"fig1cd" () in
  match Debugger.Session.set_static d ~cls:"Fig1CD" ~field:"lock" 99 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "poked a reference slot"

(* --- protocol ------------------------------------------------------------ *)

let exec d cmd =
  match Debugger.Protocol.execute d cmd with
  | Debugger.Protocol.Reply s -> s
  | Debugger.Protocol.Quit -> "<quit>"

let test_protocol_basics () =
  let d = fresh_session () in
  Alcotest.(check bool) "help" true (contains (exec d "help") "commands");
  Alcotest.(check bool) "break" true
    (contains (exec d "break Fig1AB t2") "Fig1AB.t2");
  Alcotest.(check bool) "continue hits" true
    (contains (exec d "continue") "breakpoint");
  Alcotest.(check bool) "threads lists main" true
    (contains (exec d "threads") "main");
  Alcotest.(check bool) "stack" true (contains (exec d "stack 2") "t2");
  Alcotest.(check bool) "step" true (contains (exec d "step 3") "stopped");
  Alcotest.(check bool) "print static" true
    (contains (exec d "print static Fig1AB.x") "Fig1AB.x =");
  Alcotest.(check bool) "digest" true (String.length (exec d "digest") > 0);
  Alcotest.(check bool) "info" true (contains (exec d "info") "status=running");
  (match Debugger.Protocol.execute d "quit" with
  | Debugger.Protocol.Quit -> ()
  | _ -> Alcotest.fail "quit");
  Alcotest.(check bool) "unknown command" true
    (contains (exec d "frobnicate") "unknown")

let test_protocol_errors_are_replies () =
  let d = fresh_session () in
  Alcotest.(check bool) "bad int" true (contains (exec d "step zzz") "error");
  Alcotest.(check bool) "bad static" true
    (contains (exec d "print static Nope.zzz") "error")

let test_protocol_locals () =
  let d = fresh_session () in
  ignore (exec d "break Fig1AB t2");
  ignore (exec d "continue");
  let out = exec d "locals 2" in
  Alcotest.(check bool) "locals rendered" true (contains out "t2")

(* A verdict's constructor. *)
let kind = function
  | Dejavu.Ok -> "ok"
  | Dejavu.Rejected _ -> "rejected"
  | Dejavu.Diverged _ -> "diverged"
  | Dejavu.Incomplete _ -> "incomplete"

(* Every way a replay can fail mid-run ends the session with the verdict
   [Dejavu.replay] reaches on the same trace, through each of step,
   continue and goto: a recorded callback the program cannot take is
   malformed trace bytes ([Rejected]), and a recorded schedule that picks
   a thread that is not ready is [Diverged]. *)
let test_replay_errors_verdict () =
  let record name =
    let e = entry name in
    (e, snd (Dejavu.record ~natives:e.natives ~seed:1 e.program))
  in
  let native, native_trace = record "native" in
  let fig, fig_trace = record "fig1ab" in
  List.iter
    (fun (what, (e : Workloads.Registry.entry), trace, expected_kind, needle) ->
      let expected =
        (fst (Dejavu.replay ~natives:e.natives e.program trace)).Dejavu.verdict
      in
      Alcotest.(check string) (what ^ ": replay") expected_kind (kind expected);
      Alcotest.(check bool)
        (Fmt.str "%s: %a" what Dejavu.pp_verdict expected)
        true
        (contains (Dejavu.string_of_verdict expected) needle);
      List.iter
        (fun (how, go) ->
          let d =
            Result.get_ok
              (Debugger.Session.start ~natives:e.natives
                 ~checkpoint_interval:0 e.program trace)
          in
          match go d with
          | Debugger.Session.Ended v ->
            Alcotest.check verdict (Fmt.str "%s via %s" what how) expected v;
            Alcotest.check
              Alcotest.(option verdict)
              (Fmt.str "%s via %s: verdict" what how)
              (Some expected) (Debugger.Session.verdict d)
          | r ->
            Alcotest.failf "%s via %s: %s" what how
              (Debugger.Protocol.string_of_stop d r))
        [
          ("step", fun d -> Debugger.Session.step d max_int);
          ("continue", Debugger.Session.continue_);
          ("goto", fun d -> Debugger.Session.goto_step d max_int);
        ])
    [
      ( "bad callback",
        native,
        tamper_first_callback (fun (_, args) -> (100_000, args)) native_trace,
        "rejected",
        "out of range" );
      ( "bad pick",
        fig,
        { fig_trace with Dejavu.Trace.picks = [| 0; 99 |] },
        "diverged",
        "not ready" );
    ]

(* The debugger reaches the verdict [Dejavu.replay_from] (what [dvrun
   replay] runs) reaches, on each bad input: the same constructor from
   both. What never reaches a replay is refused by the input stage both
   share in dvrun, with the exit code of [Rejected]: trace bytes that do
   not load, and a program that does not link. *)
let test_same_verdict_as_replay () =
  let record (e : Workloads.Registry.entry) =
    snd (Dejavu.record ~natives:e.natives ~seed:1 e.program)
  in
  let bytes = Dejavu.Trace.to_bytes in
  let bank = bytes (record (entry "bank")) in
  let fig = record (entry "fig1ab") and native = record (entry "native") in
  let unknown_class =
    {
      Workloads.Registry.name = "unknown.djv";
      description = "names an unknown class";
      natives = [];
      program =
        Bytecode.Parser.parse_string
          "class T {\n  method main() locals 1 {\n    new Nope\n    pop\n    \
           ret\n  }\n}\n";
    }
  in
  let refused f =
    match f () with
    | v -> kind v
    | exception (Dejavu.Trace.Format_error _ | Vm.Link.Error _) -> "rejected"
  in
  List.iter
    (fun (what, (e : Workloads.Registry.entry), trace_bytes, expected) ->
      let path = Filename.temp_file "dvdebug" ".trace" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc trace_bytes);
          let replayed =
            refused (fun () ->
                (fst (Dejavu.replay_from ~natives:e.natives ~path e.program))
                  .Dejavu.verdict)
          in
          let debugged =
            refused (fun () ->
                match
                  Debugger.Session.start ~natives:e.natives e.program
                    (Dejavu.Trace.load path)
                with
                | Error v -> v
                | Ok d -> (
                  match Debugger.Session.continue_ d with
                  | Debugger.Session.Ended v -> v
                  | r ->
                    Alcotest.failf "%s: %s" what
                      (Debugger.Protocol.string_of_stop d r)))
          in
          Alcotest.(check string) (what ^ ": dvrun replay") expected replayed;
          Alcotest.(check string) (what ^ ": debugger") expected debugged))
    [
      ("foreign trace", entry "racy-counter", bank, "rejected");
      ("truncated trace", entry "bank", String.sub bank 0 40, "rejected");
      ("unknown class", unknown_class, bank, "rejected");
      ( "extra input word",
        entry "fig1ab",
        bytes { fig with inputs = Array.append fig.inputs [| 7 |] },
        "incomplete" );
      ( "bad native flag",
        entry "native",
        (let legacy = Layouts.legacy native in
         bytes
           {
             legacy with
             legacy_natives =
               Array.mapi (fun i w -> if i = 1 then 5 else w) legacy.legacy_natives;
           }),
        "rejected" );
      ( "empty callback list",
        entry "native",
        bytes
          {
            native with
            natives =
              Array.append
                [| (native.natives.(0) land lnot 3) lor 2; 0 |]
                native.natives;
          },
        "rejected" );
    ]

let () =
  Alcotest.run "debugger"
    [
      ( "session",
        [
          quick "breakpoint hit" test_breakpoint_hit;
          quick "step counts" test_step_counts;
          quick "continue to end" test_continue_to_end;
          quick "breakpoint by src pc" test_breakpoint_by_src_pc;
          quick "remove breakpoint" test_remove_breakpoint;
        ] );
      ( "determinism",
        [
          quick "replay unperturbed by debugging" test_replay_equals_undebugged;
          quick "time travel deterministic" test_time_travel_deterministic;
          quick "goto forward" test_goto_forward;
          quick "time travel over clock reads" test_time_travel_over_clock_reads;
          quick "replay errors end with the verdict" test_replay_errors_verdict;
          quick "same verdict as dvrun replay" test_same_verdict_as_replay;
        ] );
      ( "protocol",
        [
          quick "basics" test_protocol_basics;
          quick "errors are replies" test_protocol_errors_are_replies;
          quick "locals" test_protocol_locals;
        ] );
      ( "watch/poke",
        [
          quick "watchpoint fires deterministically" test_watchpoint_fires;
          quick "watchpoints survive time travel" test_watchpoint_resync_after_goto;
          quick "set static voids accuracy" test_set_static_breaks_symmetry;
          quick "set static rejects refs" test_set_static_rejects_refs;
        ] );
    ]
