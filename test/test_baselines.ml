(* The section-5 comparator schemes: Russinovich-Cogswell switch-map replay
   and instruction-count replay must reproduce executions, judged by the
   same verdict as DejaVu's; Instant Replay (CREW) and shared-read logging
   must show the trace-size blowup the paper attributes to them. *)

open Tutil

let entry name =
  match Workloads.Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "no workload %s" name

let check_rt name (rt : Dejavu.roundtrip) =
  if rt.verdict <> Dejavu.Ok then
    Alcotest.failf "%s: %a (rec %s, rep %s)" name Dejavu.pp_verdict
      rt.verdict
      (Vm.string_of_status rt.recorded.status)
      (Vm.string_of_status rt.replayed.status)

let check_registry scheme roundtrip =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      List.iter
        (fun seed ->
          check_rt
            (Fmt.str "%s %s/%d" scheme e.name seed)
            (roundtrip ~natives:e.natives ~seed e.program))
        [ 1; 2; 3 ])
    (Lazy.force Workloads.Registry.all)

let test_switch_map_roundtrips () =
  check_registry "switch-map" (fun ~natives ~seed p ->
      Baselines.Switch_map.roundtrip ~natives ~seed p)

let test_icount_roundtrips () =
  check_registry "icount" (fun ~natives ~seed p ->
      Baselines.Icount.roundtrip ~natives ~seed p)

(* Record [name] under switch-map at seed 1, replay an edited copy of its
   trace, and judge the replay against the recording. *)
let replay_edited name edit =
  let e = entry name in
  let recorded, trace =
    Dejavu.record_with ~attach:Baselines.Switch_map.attach_record
      ~natives:e.natives ~seed:1 e.program
  in
  let replayed, _ =
    Dejavu.replay_with ~attach:Baselines.Switch_map.attach_replay
      ~natives:e.natives e.program (edit trace)
  in
  Dejavu.judge ~expected:recorded replayed

(* Start offsets of the switch-map entries: preemptive [0; delta; tid],
   voluntary [1; tid]. *)
let entry_starts (entries : int array) =
  let rec go i acc =
    if i >= Array.length entries then List.rev acc
    else go (i + if entries.(i) = 0 then 3 else 2) (i :: acc)
  in
  go 0 []

let entry_length (entries : int array) i = if entries.(i) = 0 then 3 else 2

let test_extra_clock_word_incomplete () =
  let v =
    replay_edited "timed" (fun t ->
        { t with clocks = Array.append t.clocks [| 0 |] })
  in
  match v with
  | Dejavu.Incomplete [ left ] ->
    Alcotest.(check string) "leftover" "1 unconsumed clocks words" left
  | v -> Alcotest.failf "expected incomplete, got %a" Dejavu.pp_verdict v

let test_changed_tid_diverges () =
  let v =
    replay_edited "producer-consumer" (fun t ->
        let s = Array.copy t.switches in
        let i = List.hd (entry_starts s) in
        let tid = i + entry_length s i - 1 in
        s.(tid) <- (if s.(tid) = 0 then 1 else 0);
        { t with switches = s })
  in
  match v with
  | Dejavu.Diverged _ -> ()
  | v -> Alcotest.failf "expected diverged, got %a" Dejavu.pp_verdict v

let test_dropped_entry_fails () =
  let v =
    replay_edited "producer-consumer" (fun t ->
        let s = t.switches in
        let starts = entry_starts s in
        let i = List.nth starts (List.length starts / 2) in
        let n = entry_length s i in
        let switches =
          Array.append (Array.sub s 0 i)
            (Array.sub s (i + n) (Array.length s - i - n))
        in
        { t with switches })
  in
  match v with
  | Dejavu.Diverged _ | Dejavu.Incomplete _ -> ()
  | v ->
    Alcotest.failf "expected diverged or incomplete, got %a" Dejavu.pp_verdict
      v

let test_switch_map_voluntary_entries () =
  (* workloads with blocking ops must log voluntary switches too *)
  let e = entry "producer-consumer" in
  let vm = Vm.create ~natives:e.natives e.program in
  let session = Baselines.Switch_map.attach_record vm in
  ignore (Vm.run vm);
  let s = Baselines.Switch_map.sizes session in
  Alcotest.(check bool) "voluntary > 0" true (s.n_voluntary > 0);
  Alcotest.(check bool) "preemptive > 0" true (s.n_preemptive > 0)

(* Run [e] at seed 1 with [attach]'s scheme recording; returns the VM and
   the scheme's state. *)
let recorded (e : Workloads.Registry.entry) attach =
  let vm = Vm.create ~natives:e.natives e.program in
  let b = attach vm in
  ignore (Vm.run vm);
  (vm, b)

let test_crew_counts_accesses () =
  let _, b = recorded (entry "racy-counter") Baselines.Crew.attach in
  let s = Baselines.Crew.sizes b in
  (* every iteration does one static read and one static write *)
  Alcotest.(check bool) "reads" true (s.n_reads >= 8000);
  Alcotest.(check bool) "writes" true (s.n_writes >= 8000);
  Alcotest.(check bool) "two words per access" true
    (s.trace_words >= 2 * (s.n_reads + s.n_writes))

let test_read_log_counts () =
  let _, b = recorded (entry "racy-counter") Baselines.Read_log.attach in
  let s = Baselines.Read_log.sizes b in
  Alcotest.(check bool) "reads" true (s.n_reads >= 8000);
  Alcotest.(check bool) "one word per read" true (s.trace_words >= s.n_reads)

let test_trace_size_ordering () =
  (* the shape of section 5: DejaVu < switch-map < shared-read < CREW on a
     shared-memory-heavy workload *)
  let e = entry "racy-counter" in
  let _, dv_trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
  let dv_words = (Dejavu.Trace.sizes dv_trace).Dejavu.Trace.total_words in
  let sm =
    (Baselines.Switch_map.sizes
       (snd (recorded e Baselines.Switch_map.attach_record)))
      .trace_words
  in
  let crew =
    (Baselines.Crew.sizes (snd (recorded e Baselines.Crew.attach))).trace_words
  in
  let rl =
    (Baselines.Read_log.sizes (snd (recorded e Baselines.Read_log.attach)))
      .trace_words
  in
  Alcotest.(check bool)
    (Fmt.str "dejavu (%d) < switch-map (%d)" dv_words sm)
    true (dv_words < sm);
  Alcotest.(check bool)
    (Fmt.str "switch-map (%d) < read-log (%d)" sm rl)
    true (sm < rl);
  Alcotest.(check bool)
    (Fmt.str "read-log (%d) < crew (%d)" rl crew)
    true (rl < crew)

let test_icount_deltas_bounded () =
  let vm, session = recorded (entry "primes") Baselines.Icount.attach_record in
  let deltas = Dejavu.Tape.to_array session.switches in
  let sum = Array.fold_left ( + ) 0 deltas in
  Alcotest.(check bool) "positive deltas" true (Array.for_all (fun d -> d > 0) deltas);
  Alcotest.(check bool) "sum <= instructions" true
    (sum <= (Vm.stats vm).n_instr)

let test_baselines_record_like_live () =
  (* recording under any scheme must not change program behaviour *)
  let e = entry "bank" in
  let vm_live = Vm.create ~natives:e.natives e.program in
  ignore (Vm.run vm_live);
  let crew_vm, _ = recorded e Baselines.Crew.attach in
  let rl_vm, _ = recorded e Baselines.Read_log.attach in
  Alcotest.(check string) "crew output" (Vm.output vm_live) (Vm.output crew_vm);
  Alcotest.(check string) "read-log output" (Vm.output vm_live)
    (Vm.output rl_vm)

let () =
  Alcotest.run "baselines"
    [
      ( "replay",
        [
          quick "switch-map roundtrips" test_switch_map_roundtrips;
          quick "icount roundtrips" test_icount_roundtrips;
          quick "voluntary entries logged" test_switch_map_voluntary_entries;
          quick "extra clock word is incomplete"
            test_extra_clock_word_incomplete;
          quick "changed schedule tid diverges" test_changed_tid_diverges;
          quick "dropped schedule entry fails" test_dropped_entry_fails;
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
