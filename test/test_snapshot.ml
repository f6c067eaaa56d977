(* Whole-machine checkpoints: restoring one must put the VM back on the
   exact deterministic timeline — same digests, same continuation. *)

open Tutil

let run_steps vm n =
  let k = ref 0 in
  while Vm.status vm = Vm.Rt.Running_ && !k < n do
    Vm.step vm;
    incr k
  done

let test_save_restore_roundtrip () =
  let p = Workloads.Counters.racy ~threads:3 ~increments:150 () in
  let vm = Vm.create p in
  Vm.boot vm;
  run_steps vm 8000;
  let ck = Vm.Snapshot.save vm in
  let digest_at_save = Vm.digest vm in
  run_steps vm 5000;
  Alcotest.(check bool) "moved on" true (Vm.digest vm <> digest_at_save);
  Vm.Snapshot.restore vm ck;
  Alcotest.(check int) "state restored exactly" digest_at_save (Vm.digest vm)

let test_restore_continues_identically () =
  let p = Workloads.Producer_consumer.program ~trace_order:false () in
  let vm = Vm.create p in
  Vm.boot vm;
  run_steps vm 3000;
  let ck = Vm.Snapshot.save vm in
  ignore (Vm.run vm);
  let final_a = (Vm.output vm, Vm.digest vm) in
  Vm.Snapshot.restore vm ck;
  ignore (Vm.run vm);
  let final_b = (Vm.output vm, Vm.digest vm) in
  Alcotest.(check string) "same output" (fst final_a) (fst final_b);
  Alcotest.(check int) "same final state" (snd final_a) (snd final_b)

let test_restore_across_gc () =
  (* collections (which move every object and flip semispaces) between save
     and restore must not matter *)
  let p = Workloads.Gc_churn.program ~threads:2 ~rounds:25 ~nodes:80 () in
  let cfg = { Vm.Rt.default_config with heap_words = 6000 } in
  let vm = Vm.create ~config:cfg p in
  Vm.boot vm;
  run_steps vm 20000;
  let gcs_at_save = (Vm.stats vm).n_gc in
  let ck = Vm.Snapshot.save vm in
  let digest_at_save = Vm.digest vm in
  run_steps vm 120000;
  Alcotest.(check bool) "gc ran after save" true ((Vm.stats vm).n_gc > gcs_at_save);
  Vm.Snapshot.restore vm ck;
  Alcotest.(check int) "restored across gc" digest_at_save (Vm.digest vm);
  ignore (Vm.run vm);
  let vm2, _ = run ~config:cfg ~seed:1 p in
  Alcotest.(check string) "continuation equals straight run" (Vm.output vm2)
    (Vm.output vm)

let test_restore_unwinds_spawn_and_classinit () =
  (* threads spawned and classes initialized after the checkpoint must be
     forgotten by the restore *)
  let p = Workloads.Fig1.ab () in
  let vm = Vm.create p in
  Vm.boot vm;
  run_steps vm 2 (* before the spawns *);
  let ck = Vm.Snapshot.save vm in
  let threads_at_save = vm.Vm.Rt.n_threads in
  ignore (Vm.run vm);
  Alcotest.(check bool) "spawned since" true (vm.Vm.Rt.n_threads > threads_at_save);
  Vm.Snapshot.restore vm ck;
  Alcotest.(check int) "thread table rolled back" threads_at_save
    vm.Vm.Rt.n_threads;
  ignore (Vm.run vm);
  let vm2, _ = run ~seed:1 p in
  Alcotest.(check string) "same outcome after rollback" (Vm.output vm2)
    (Vm.output vm)

let test_checkpointed_time_travel_matches_replay_from_scratch () =
  let e = Option.get (Workloads.Registry.find "racy-counter") in
  let _, trace = Dejavu.record ~natives:e.natives ~seed:2 e.program in
  (* session A: checkpoints every 10k steps; session B: none *)
  let a = Result.get_ok (Debugger.Session.start ~natives:e.natives ~checkpoint_interval:10_000 e.program trace) in
  let b = Result.get_ok (Debugger.Session.start ~natives:e.natives ~checkpoint_interval:0 e.program trace) in
  ignore (Debugger.Session.step a 60_000);
  ignore (Debugger.Session.step b 60_000);
  (* travel back *)
  ignore (Debugger.Session.goto_step a 35_000);
  ignore (Debugger.Session.goto_step b 35_000);
  Alcotest.(check int) "same state at step 35000"
    (Debugger.Session.state_digest b)
    (Debugger.Session.state_digest a);
  Alcotest.(check bool) "A used a checkpoint restore" true (a.restores > 0);
  Alcotest.(check bool) "A kept checkpoints" true (List.length a.checkpoints > 0);
  (* and both finish identically *)
  ignore (Debugger.Session.continue_ a);
  ignore (Debugger.Session.continue_ b);
  Alcotest.(check string) "same final output" (Debugger.Session.output b)
    (Debugger.Session.output a)

let test_session_snapshot_tapes () =
  (* the session snapshot restores tape cursors so replay re-consumes the
     same events after a rollback *)
  let e = Option.get (Workloads.Registry.find "timed") in
  let _, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
  let d = Result.get_ok (Debugger.Session.start ~natives:e.natives ~checkpoint_interval:100 e.program trace) in
  ignore (Debugger.Session.step d 300);
  let clocks_cursor (s : Dejavu.Session.t) = s.clocks.Dejavu.Tape.rd in
  let cur_at_300 = clocks_cursor d.session in
  ignore (Debugger.Session.step d 150);
  ignore (Debugger.Session.goto_step d 300);
  Alcotest.(check int) "clock tape cursor restored" cur_at_300
    (clocks_cursor d.session);
  ignore (Debugger.Session.continue_ d);
  Alcotest.check status_testable "finished" Vm.Rt.Finished
    (Vm.status d.vm)

let () =
  Alcotest.run "snapshot"
    [
      ( "vm",
        [
          quick "save/restore roundtrip" test_save_restore_roundtrip;
          quick "restore continues identically" test_restore_continues_identically;
          quick "restore across gc" test_restore_across_gc;
          quick "rolls back spawns and class init" test_restore_unwinds_spawn_and_classinit;
        ] );
      ( "time-travel",
        [
          quick "checkpointed = from-scratch" test_checkpointed_time_travel_matches_replay_from_scratch;
          quick "session tapes restored" test_session_snapshot_tapes;
        ] );
    ]
