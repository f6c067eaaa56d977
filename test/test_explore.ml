(* The systematic schedule explorer: the controlled scheduler reproduces
   any forced decision vector deterministically, the search finds the
   seeded atomicity bug within the preemption bound, emitted failure traces
   replay to the identical failure (and re-recording a schedule is
   byte-identical), the DPOR pruning is sound (same outcome set as the
   unpruned bounded search, at a fraction of the schedules), Sched_error
   from an ill-fitting witness aborts the one schedule without poisoning
   the search, the report is the same whichever runner ran the schedules,
   and the frontier holds children compactly. *)

module Control = Explore.Control
module Driver = Explore.Driver
module Oracle = Explore.Oracle
module Trace = Dejavu.Trace

let quick name f = Alcotest.test_case name `Quick f

let find name =
  match Workloads.Registry.find name with
  | Some e -> e
  | None -> Alcotest.fail ("workload missing: " ^ name)

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "dvexp-%d-%.0f" (Unix.getpid ()) (Unix.gettimeofday () *. 1e6))
  in
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
          (Sys.readdir dir);
        try Sys.rmdir dir with _ -> ()
      end)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A small lock-cycle variant so the unpruned bounded tree stays small
   enough to enumerate exhaustively. Its program differs from the
   registry's full-size lock-cycle, so the oracle audits it on its own. *)
let lock_cycle_small : Workloads.Registry.entry =
  {
    Workloads.Registry.name = "lock-cycle-small";
    description = "lock-order inversion, short spins (test-only)";
    program = Workloads.Lock_cycle.program ~work:6 ();
    natives = [];
  }

(* --- the seeded atomicity bug ------------------------------------------ *)

(* dvrun explore atomicity must find the check-then-act overdraft within
   preemption bound 2 (one preemption suffices), and the emitted trace
   must replay to the identical failure through the stock replayer. *)
let test_atomicity_bug_found () =
  with_tmp_dir (fun dir ->
      let rep = Driver.run ~pb:2 ~db:1 ~out:dir (find "atomicity") in
      (match rep.Driver.rp_first_failure_at with
      | None -> Alcotest.fail "no fault found"
      | Some k -> Alcotest.(check bool) "found early" true (k <= 64));
      let faults =
        List.filter
          (fun (f : Driver.failure) -> f.Driver.fl_kind = Driver.Fault)
          rep.Driver.rp_failures
      in
      Alcotest.(check bool) "has faults" true (faults <> []);
      let first = List.hd faults in
      Alcotest.(check bool)
        "within preemption bound" true (first.Driver.fl_preempts <= 2);
      (match first.Driver.fl_replay_ok with
      | Some true -> ()
      | v ->
        Alcotest.failf "emitted trace did not replay identically (%s)"
          (match v with
          | None -> "not emitted"
          | Some false -> "verdict not ok"
          | Some true -> assert false));
      (* the witness sidecar parses back to the decision vector *)
      match first.Driver.fl_witness with
      | None -> Alcotest.fail "no witness emitted"
      | Some w ->
        Alcotest.(check (array int))
          "witness decisions" first.Driver.fl_decisions
          (Driver.decisions_of_witness (read_file w)))

(* Re-running a schedule from its own full decision vector reproduces the
   same trace BYTE-IDENTICALLY — the schedule witness is a complete
   description of the run. *)
let test_schedule_rerecord_byte_identical () =
  let e = find "atomicity" in
  let oracle = Oracle.for_entry e in
  let rep = Driver.run ~pb:2 ~db:1 e in
  let fault =
    List.find
      (fun (f : Driver.failure) -> f.Driver.fl_kind = Driver.Fault)
      rep.Driver.rp_failures
  in
  let run prefix =
    Control.run ~pb:2 ~db:1 ~dpor:true ~oracle ~prefix e
  in
  let a = run fault.Driver.fl_decisions in
  let b = run fault.Driver.fl_decisions in
  Alcotest.(check bool) "not aborted" false a.Control.oc_aborted;
  Alcotest.(check int) "same digest" a.Control.oc_digest b.Control.oc_digest;
  match (a.Control.oc_trace, b.Control.oc_trace) with
  | Some ta, Some tb ->
    Alcotest.(check string)
      "byte-identical traces" (Trace.to_bytes ta) (Trace.to_bytes tb)
  | _ -> Alcotest.fail "schedule did not record"

(* --- DPOR soundness pin ------------------------------------------------ *)

(* Pruning on and off must reach the SAME distinct-outcome set — pruned
   branches only ever cut schedules equivalent to one still explored —
   while exploring at most half the schedules (the acceptance bar; in
   practice far fewer). Pinned on the two seeded-bug workloads. *)
let dpor_pin (e : Workloads.Registry.entry) () =
  let budget = 4000 in
  let on = Driver.run ~pb:2 ~db:1 ~dpor:true ~max_schedules:budget e in
  let off = Driver.run ~pb:2 ~db:1 ~dpor:false ~max_schedules:budget e in
  Alcotest.(check int) "unpruned search complete" 0 off.Driver.rp_frontier_left;
  Alcotest.(check int) "pruned search complete" 0 on.Driver.rp_frontier_left;
  Alcotest.(check (list int)) "same outcome set" off.Driver.rp_digests
    on.Driver.rp_digests;
  Alcotest.(check bool)
    (Fmt.str "pruned %d <= half of unpruned %d" on.Driver.rp_explored
       off.Driver.rp_explored)
    true
    (2 * on.Driver.rp_explored <= off.Driver.rp_explored);
  Alcotest.(check bool) "something was pruned" true (on.Driver.rp_pruned > 0)

let test_dpor_atomicity = dpor_pin (find "atomicity")

let test_dpor_lock_cycle = dpor_pin lock_cycle_small

(* --- determinism ------------------------------------------------------- *)

(* Exploring any registry workload twice (small bounds) is bit-for-bit
   repeatable: the two reports are equal, failures and all. *)
let test_determinism_registry () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let go () = Driver.run ~pb:1 ~db:1 ~max_schedules:10 e in
      let a = go () and b = go () in
      Alcotest.(check int)
        (e.name ^ " explored") a.Driver.rp_explored b.Driver.rp_explored;
      Alcotest.(check (list int))
        (e.name ^ " digests") a.Driver.rp_digests b.Driver.rp_digests;
      Alcotest.(check bool) (e.name ^ " whole report") true (a = b))
    (Lazy.force Workloads.Registry.all)

(* --- Sched_error containment ------------------------------------------- *)

(* A witness that names a non-ready thread at a pick slot aborts that one
   schedule (Sched.dispatch validates BEFORE mutating its queue, so the
   VM is not corrupted) — and the DFS treats it as a dead branch. *)
let test_bad_witness_aborts () =
  let e = find "atomicity" in
  let oracle = Oracle.for_entry e in
  (* slot 0 of atomicity is a pick; tid 99 never exists *)
  let oc =
    Control.run ~pb:2 ~db:1 ~dpor:true ~oracle ~prefix:[| 99 |] e
  in
  Alcotest.(check bool) "aborted" true oc.Control.oc_aborted;
  Alcotest.(check bool) "no trace" true (oc.Control.oc_trace = None);
  (* the same Control state machinery still works after an abort *)
  let ok = Control.run ~pb:2 ~db:1 ~dpor:true ~oracle ~prefix:[||] e in
  Alcotest.(check bool) "clean rerun" false ok.Control.oc_aborted

(* --- runners and the frontier ------------------------------------------ *)

(* The search is one loop whatever runs its schedules: the in-process
   runner and the farm at 1, 2 and 3 shards (up to six schedules in
   flight, consumed in submission order) must produce equal reports —
   the same failures in the same order, the same first-fault index, the
   same pruned count and, under a cap, the same frontier left over. *)
let test_runners_agree () =
  List.iter
    (fun (name, max_schedules) ->
      let e = find name in
      let go ?runner () = Driver.run ~pb:2 ~db:1 ~max_schedules ?runner e in
      let seq = go () in
      List.iter
        (fun shards ->
          let farm = go ~runner:(Server.Explore_farm.runner ~shards) () in
          let what s = Fmt.str "%s, %d shards: %s" name shards s in
          Alcotest.(check bool)
            (what "failures in order") true
            (seq.Driver.rp_failures = farm.Driver.rp_failures);
          Alcotest.(check (option int))
            (what "first fault") seq.Driver.rp_first_failure_at
            farm.Driver.rp_first_failure_at;
          Alcotest.(check int) (what "pruned") seq.Driver.rp_pruned
            farm.Driver.rp_pruned;
          Alcotest.(check int)
            (what "frontier left") seq.Driver.rp_frontier_left
            farm.Driver.rp_frontier_left;
          Alcotest.(check bool) (what "whole report") true (seq = farm))
        [ 1; 2; 3 ])
    [ ("atomicity", 2000); ("racy-counter", 5) ]

(* racy-counter's root schedule has ~32k decision slots and exposes ~16k
   children. Kept as (parent, slot, alternative) over the one shared
   parent vector they cost a few words each; as full prefix arrays they
   would allocate about 2 GiB. The count includes the oracle's one static
   audit. *)
let test_frontier_compact () =
  let e = find "racy-counter" in
  let before = Gc.allocated_bytes () in
  let rep = Driver.run ~pb:2 ~db:1 ~max_schedules:2 e in
  let mib = (Gc.allocated_bytes () -. before) /. 1048576. in
  Alcotest.(check bool) "frontier was large" true
    (rep.Driver.rp_frontier_left > 10_000);
  Alcotest.(check bool)
    (Fmt.str "allocated %.0f MiB < 256 MiB" mib)
    true (mib < 256.)

(* --- witness re-drive property ----------------------------------------- *)

(* ANY forced decision vector — valid, bound-exceeding, or nonsensical —
   drives the controlled scheduler deterministically: running it twice
   gives the same outcome digest, decision log, and abort flag; and
   re-driving a completed run's own (longer) decision vector reproduces
   its digest. *)
let prop_witness_redrive =
  QCheck.Test.make ~name:"explore: witness re-drives to the same outcome"
    ~count:40
    QCheck.(list_of_size Gen.(int_bound 12) (int_bound 3))
    (fun forced ->
      let e = find "atomicity" in
      let oracle = Oracle.for_entry e in
      let prefix = Array.of_list forced in
      let run p = Control.run ~pb:3 ~db:2 ~dpor:true ~oracle ~prefix:p e in
      let a = run prefix and b = run prefix in
      a.Control.oc_digest = b.Control.oc_digest
      && a.Control.oc_aborted = b.Control.oc_aborted
      && Control.decisions a = Control.decisions b
      && (a.Control.oc_aborted
         ||
         let c = run (Control.decisions a) in
         c.Control.oc_digest = a.Control.oc_digest))

(* --- witness parser ------------------------------------------------------ *)

(* Every single-character mutant of an emitted atomicity fault witness —
   one character flipped, inserted or deleted — parses to a decision
   vector or raises [Bad_witness], never another exception. *)
let prop_witness_mutants =
  let witness =
    lazy
      (let e = find "atomicity" in
       let rep = Driver.run ~pb:2 ~db:1 e in
       let fault =
         List.find
           (fun (f : Driver.failure) -> f.Driver.fl_kind = Driver.Fault)
           rep.Driver.rp_failures
       in
       let oc =
         Control.run ~pb:2 ~db:1 ~dpor:true ~oracle:(Oracle.for_entry e)
           ~prefix:fault.Driver.fl_decisions e
       in
       Driver.witness_string ~workload:e.name ~seed:1 ~pb:2 ~db:1 ~dpor:true oc)
  in
  QCheck.Test.make ~name:"explore: witness mutants parse or raise Bad_witness"
    ~count:3000
    QCheck.(triple (int_bound 2) (int_bound 100_000) (int_bound 255))
    (fun (op, pos, byte) ->
      let mutant = Tutil.mutate (Lazy.force witness) op pos byte in
      match Driver.decisions_of_witness mutant with
      | _ -> true
      | exception Driver.Bad_witness _ -> true)

(* The parser names the first token that is not y0, y1 or p<tid>. *)
let test_bad_witness_token () =
  List.iter
    (fun (line, token) ->
      match Driver.decisions_of_witness ("workload atomicity\n" ^ line ^ "\n") with
      | d ->
        Alcotest.failf "%S parsed to [%s]" line
          (String.concat "; " (Array.to_list (Array.map string_of_int d)))
      | exception Driver.Bad_witness msg ->
        Alcotest.(check bool) (line ^ ": " ^ msg) true
          (Driver.has_substr msg token))
    [
      ("decisions y0 yx p2 q7 y", "\"yx\"");
      ("decisions y0 y2", "\"y2\"");
      ("decisions p-1", "\"p-1\"");
      ("decisions p0x1", "\"p0x1\"");
      ("decisions y0 p", "\"p\"");
      ("decision y0", "no decisions line");
    ];
  Alcotest.(check (array int))
    "well-formed" [| 0; 1; 2; 17 |]
    (Driver.decisions_of_witness "decisions y0 y1  p2 p17\n");
  Alcotest.(check (array int)) "empty" [||]
    (Driver.decisions_of_witness "decisions\n")

let () =
  Alcotest.run "explore"
    [
      ( "atomicity",
        [
          quick "bug found, trace replays" test_atomicity_bug_found;
          quick "re-record byte-identical" test_schedule_rerecord_byte_identical;
        ] );
      ( "dpor",
        [
          quick "soundness pin: atomicity" test_dpor_atomicity;
          quick "soundness pin: lock-cycle" test_dpor_lock_cycle;
        ] );
      ( "determinism",
        [
          quick "registry-wide repeatability" test_determinism_registry;
          quick "bad witness aborts cleanly" test_bad_witness_aborts;
        ] );
      ( "farm",
        [
          quick "same report for every runner" test_runners_agree;
          quick "frontier children stay compact" test_frontier_compact;
        ] );
      ("witness", [ quick "bad tokens named" test_bad_witness_token ]);
      ( "props",
        [
          QCheck_alcotest.to_alcotest prop_witness_redrive;
          QCheck_alcotest.to_alcotest prop_witness_mutants;
        ] );
    ]
