(* The section-5 comparator schemes: Russinovich-Cogswell switch-map replay
   and instruction-count replay must reproduce executions; Instant Replay
   (CREW) and shared-read logging must show the trace-size blowup the paper
   attributes to them. *)

open Tutil

let entry name =
  match Workloads.Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "no workload %s" name

let check_rt name (rt : Baselines.Runner.roundtrip) =
  if not (Baselines.Runner.ok rt) then
    Alcotest.failf "%s: outputs %S vs %S, states %d vs %d (rec %s, rep %s)"
      name rt.recorded.output rt.replayed.output rt.recorded.state_digest
      rt.replayed.state_digest
      (Vm.string_of_status rt.recorded.status)
      (Vm.string_of_status rt.replayed.status)

let workloads_for_replay =
  [ "fig1ab"; "fig1cd"; "racy-counter"; "synced-counter"; "producer-consumer";
    "philosophers"; "bank"; "timed"; "exceptions"; "native" ]

let test_switch_map_roundtrips () =
  List.iter
    (fun name ->
      let e = entry name in
      List.iter
        (fun seed ->
          check_rt
            (Fmt.str "switch-map %s/%d" name seed)
            (Baselines.Runner.roundtrip_switch_map ~natives:e.natives ~seed
               e.program))
        [ 1; 3 ])
    workloads_for_replay

let test_icount_roundtrips () =
  List.iter
    (fun name ->
      let e = entry name in
      check_rt
        (Fmt.str "icount %s" name)
        (Baselines.Runner.roundtrip_icount ~natives:e.natives ~seed:2 e.program))
    workloads_for_replay

let test_switch_map_voluntary_entries () =
  (* workloads with blocking ops must log voluntary switches too *)
  let e = entry "producer-consumer" in
  let vm = Vm.create ~natives:e.natives e.program in
  let b = Baselines.Switch_map.attach_record vm in
  ignore (Vm.run vm);
  let s = Baselines.Switch_map.sizes b in
  Alcotest.(check bool) "voluntary > 0" true (s.n_voluntary > 0);
  Alcotest.(check bool) "preemptive > 0" true (s.n_preemptive > 0)

let test_crew_counts_accesses () =
  let e = entry "racy-counter" in
  let vm = Vm.create ~natives:e.natives e.program in
  let b = Baselines.Crew.attach vm in
  ignore (Vm.run vm);
  let s = Baselines.Crew.sizes b in
  (* every iteration does one static read and one static write *)
  Alcotest.(check bool) "reads" true (s.n_reads >= 8000);
  Alcotest.(check bool) "writes" true (s.n_writes >= 8000);
  Alcotest.(check bool) "two words per access" true
    (s.trace_words >= 2 * (s.n_reads + s.n_writes))

let test_read_log_counts () =
  let e = entry "racy-counter" in
  let vm = Vm.create ~natives:e.natives e.program in
  let b = Baselines.Read_log.attach vm in
  ignore (Vm.run vm);
  let s = Baselines.Read_log.sizes b in
  Alcotest.(check bool) "reads" true (s.n_reads >= 8000);
  Alcotest.(check bool) "one word per read" true (s.trace_words >= s.n_reads)

let test_trace_size_ordering () =
  (* the shape of section 5: DejaVu < switch-map < shared-read < CREW on a
     shared-memory-heavy workload *)
  let e = entry "racy-counter" in
  let seed = 1 in
  let _, dv_trace = Dejavu.record ~natives:e.natives ~seed e.program in
  let dv_words = (Dejavu.Trace.sizes dv_trace).Dejavu.Trace.total_words in
  let sm =
    (Baselines.Runner.roundtrip_switch_map ~natives:e.natives ~seed e.program)
      .recorded
  in
  let crew = Baselines.Runner.record_crew ~natives:e.natives ~seed e.program in
  let rl = Baselines.Runner.record_read_log ~natives:e.natives ~seed e.program in
  Alcotest.(check bool)
    (Fmt.str "dejavu (%d) < switch-map (%d)" dv_words sm.trace_words)
    true (dv_words < sm.trace_words);
  Alcotest.(check bool)
    (Fmt.str "switch-map (%d) < read-log (%d)" sm.trace_words rl.trace_words)
    true (sm.trace_words < rl.trace_words);
  Alcotest.(check bool)
    (Fmt.str "read-log (%d) < crew (%d)" rl.trace_words crew.trace_words)
    true (rl.trace_words < crew.trace_words)

let test_icount_deltas_bounded () =
  let e = entry "primes" in
  let vm = Vm.create ~natives:e.natives e.program in
  let b = Baselines.Icount.attach_record vm in
  ignore (Vm.run vm);
  let deltas = Baselines.Icount.deltas_array b in
  let sum = Array.fold_left ( + ) 0 deltas in
  Alcotest.(check bool) "positive deltas" true (Array.for_all (fun d -> d > 0) deltas);
  Alcotest.(check bool) "sum <= instructions" true
    (sum <= (Vm.stats vm).n_instr)

let test_baselines_record_like_live () =
  (* recording under any scheme must not change program behaviour *)
  let e = entry "bank" in
  let vm_live = Vm.create ~natives:e.natives e.program in
  ignore (Vm.run vm_live);
  let crew_rec = Baselines.Runner.record_crew ~natives:e.natives ~seed:1 e.program in
  let rl_rec = Baselines.Runner.record_read_log ~natives:e.natives ~seed:1 e.program in
  Alcotest.(check string) "crew output" (Vm.output vm_live) crew_rec.output;
  Alcotest.(check string) "read-log output" (Vm.output vm_live) rl_rec.output

let () =
  Alcotest.run "baselines"
    [
      ( "replay",
        [
          quick "switch-map roundtrips" test_switch_map_roundtrips;
          quick "icount roundtrips" test_icount_roundtrips;
          quick "voluntary entries logged" test_switch_map_voluntary_entries;
        ] );
      ( "recording",
        [
          quick "crew access counts" test_crew_counts_accesses;
          quick "read-log counts" test_read_log_counts;
          quick "icount deltas bounded" test_icount_deltas_bounded;
          quick "recording is transparent" test_baselines_record_like_live;
        ] );
      ("comparison", [ quick "trace-size ordering" test_trace_size_ordering ]);
    ]
