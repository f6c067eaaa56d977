(* Static race audit: exact classifications on hand-built programs, the
   generic backward dataflow engine, the monitor-depth sanity pass, the
   dynamic-vs-static containment property (every race the dynamic tracker
   observes must be flagged racy statically), and the dynamic tracker's
   thread-local fast path ([Sharing], test/sharing.ml). *)

open Tutil

module Report = Analysis.Report

let find_key (r : Report.t) key =
  List.find_opt (fun (f : Report.finding) -> f.Report.f_key = key) r.Report.findings

let check_status (r : Report.t) key expected =
  match find_key r key with
  | None -> Alcotest.failf "no finding for %S" key
  | Some f ->
    Alcotest.(check string)
      key
      (Report.status_name expected)
      (Report.status_name f.Report.f_status)

(* A heap large enough that the tracked runs never GC (Sharing keys
   state per heap word, so a collection invalidates it). *)
let big_config = { Vm.Rt.default_config with Vm.Rt.heap_words = 1 lsl 22 }

(* --- classification on hand-built programs ------------------------------ *)

(* Two workers increment a static with no lock: the canonical race. *)
let racy_static_prog =
  let c = "C" in
  let worker =
    A.method_ ~nlocals:0 "worker"
      [
        i (I.Getstatic (c, "count"));
        i (I.Const 1);
        i I.Add;
        i (I.Putstatic (c, "count"));
        i I.Ret;
      ]
  in
  let main =
    A.method_ ~nlocals:2 "main"
      [
        i (I.Spawn (c, "worker"));
        i (I.Store 0);
        i (I.Spawn (c, "worker"));
        i (I.Store 1);
        i (I.Load 0);
        i I.Join;
        i (I.Load 1);
        i I.Join;
        i (I.Getstatic (c, "count"));
        i I.Print;
        i I.Ret;
      ]
  in
  D.program [ D.cdecl c ~statics:[ D.field "count" ] [ worker; main ] ]

let test_racy_static () =
  let r = Analysis.run racy_static_prog in
  Alcotest.(check bool) "converged" true r.Report.converged;
  check_status r "C.count (static)" Report.Racy;
  (* provenance: accesses carry method:pc positions *)
  match find_key r "C.count (static)" with
  | None -> Alcotest.fail "finding vanished"
  | Some f ->
    Alcotest.(check bool) "has accesses" true (f.Report.f_accesses <> []);
    List.iter
      (fun (a : Report.acc_view) ->
        Alcotest.(check bool)
          (Fmt.str "provenance %S" a.Report.av_where)
          true
          (contains a.Report.av_where ":"))
      f.Report.f_accesses

(* Writes before spawn and reads after join never overlap: thread-local. *)
let spawn_join_prog =
  let c = "C" in
  let worker =
    A.method_ ~nlocals:0 "worker"
      [
        i (I.Getstatic (c, "g"));
        i (I.Const 1);
        i I.Add;
        i (I.Putstatic (c, "g"));
        i I.Ret;
      ]
  in
  let main =
    A.method_ ~nlocals:1 "main"
      [
        i (I.Const 5);
        i (I.Putstatic (c, "g"));
        i (I.Spawn (c, "worker"));
        i (I.Store 0);
        i (I.Load 0);
        i I.Join;
        i (I.Getstatic (c, "g"));
        i I.Print;
        i I.Ret;
      ]
  in
  D.program [ D.cdecl c ~statics:[ D.field "g" ] [ worker; main ] ]

let test_spawn_join_ordered () =
  let r = Analysis.run spawn_join_prog in
  check_status r "C.g (static)" Report.Thread_local;
  match find_key r "C.g (static)" with
  | Some f ->
    Alcotest.(check bool) "why mentions ordering" true
      (contains f.Report.f_why "spawn/join")
  | None -> Alcotest.fail "no finding"

(* An object that never leaves its allocating thread. *)
let test_confined_allocation () =
  let p =
    main_prog ~fields:[ D.field "f" ]
      [
        i (I.New "T");
        i (I.Store 0);
        i (I.Load 0);
        i (I.Const 7);
        i (I.Putfield ("T", "f"));
        i (I.Load 0);
        i (I.Getfield ("T", "f"));
        i I.Print;
        i I.Ret;
      ]
  in
  let r = Analysis.run p in
  check_status r "T.f" Report.Thread_local;
  (match find_key r "T.f" with
  | Some f ->
    Alcotest.(check bool) "why mentions confinement" true
      (contains f.Report.f_why "confined")
  | None -> Alcotest.fail "no field finding");
  (* and the allocation site itself is classified thread-local *)
  let site =
    List.find_opt
      (fun (f : Report.finding) ->
        f.Report.f_kind = `Site && contains f.Report.f_key "new T")
      r.Report.findings
  in
  match site with
  | Some f ->
    Alcotest.(check string) "site status" "thread_local"
      (Report.status_name f.Report.f_status)
  | None -> Alcotest.fail "no site finding for new T"

let test_counters_twins () =
  (* the registry's racy/synced counter pair gets opposite verdicts *)
  let racy = Analysis.run (Workloads.Counters.racy ()) in
  check_status racy "Racy.count (static)" Report.Racy;
  let synced = Analysis.run (Workloads.Counters.synced ()) in
  check_status synced "Counter.value" Report.Lock_consistent

(* --- the generic backward engine: liveness ------------------------------ *)

module Bits = struct
  type t = int

  let equal = Int.equal

  let join = ( lor )
end

module Live = Analysis.Dataflow.Make (Bits)

let test_liveness_backward () =
  (* 0: Const 5; 1: Store 0; 2: Const 7; 3: Store 1; 4: Load 0; 5: Print;
     6: Ret.  Local 1 is stored but never read — dead everywhere; local 0
     is live-out exactly between its store (pc 1) and its load (pc 4). *)
  let code, _ =
    A.assemble
      [
        i (I.Const 5);
        i (I.Store 0);
        i (I.Const 7);
        i (I.Store 1);
        i (I.Load 0);
        i I.Print;
        i I.Ret;
      ]
  in
  let transfer ~pc:_ (ins : I.t) out =
    match ins with
    | I.Store n -> out land lnot (1 lsl n)
    | I.Load n -> out lor (1 lsl n)
    | _ -> out
  in
  let states =
    Live.solve
      {
        Live.dir = Analysis.Dataflow.Backward;
        code;
        handlers = [];
        entry = 0;
        transfer;
        exn_adapt = None;
      }
  in
  let out pc =
    match states.(pc) with
    | Some s -> s
    | None -> Alcotest.failf "pc %d unreached" pc
  in
  List.iteri
    (fun pc expected ->
      Alcotest.(check int) (Fmt.str "live-out at pc %d" pc) expected (out pc))
    [ 0; 1; 1; 1; 0; 0; 0 ]

(* --- monitor-depth sanity pass ------------------------------------------ *)

let monitor_issue_containing p needle =
  List.exists
    (fun (iss : Bytecode.Check.issue) -> contains iss.Bytecode.Check.what needle)
    (Bytecode.Check.check_monitors p)

let test_monitor_exit_at_zero () =
  let p = main_prog [ i (I.Const 0); i I.Monitorexit; i I.Ret ] in
  Alcotest.(check bool) "flagged" true
    (monitor_issue_containing p "monitorexit may execute with no monitor held")

let test_monitor_leak_on_return () =
  let p = main_prog [ i (I.New "T"); i I.Monitorenter; i I.Ret ] in
  Alcotest.(check bool) "flagged" true
    (monitor_issue_containing p "may return while still holding a monitor")

let test_monitor_nesting_in_loop () =
  let p =
    main_prog
      [ l "loop"; i (I.New "T"); i I.Monitorenter; i (I.Goto "loop") ]
  in
  Alcotest.(check bool) "flagged" true
    (monitor_issue_containing p "monitor nesting may exceed depth")

let test_monitor_balanced_clean () =
  let p =
    main_prog
      [
        i (I.New "T");
        i (I.Store 0);
        i (I.Load 0);
        i I.Monitorenter;
        i (I.Load 0);
        i I.Monitorexit;
        i I.Ret;
      ]
  in
  Alcotest.(check int) "no issues" 0
    (List.length (Bytecode.Check.check_monitors p))

(* --- dynamic ⊆ static --------------------------------------------------- *)

(* Run [p] with the dynamic tracker attached; return (tracker, status). *)
let run_tracked ?skip ?(seed = 1) ?natives p =
  let config =
    {
      big_config with
      Vm.Rt.env_cfg = { big_config.Vm.Rt.env_cfg with Vm.Env.seed };
    }
  in
  let vm = Vm.create ~config ?natives p in
  let sh = Sharing.attach ?skip vm in
  let st = Vm.run vm in
  (sh, st)

let dynamic_subset_of_static ?(where = "") sh p =
  let static_racy = Report.racy_keys (Analysis.run p) in
  List.for_all
    (fun k ->
      let ok = List.mem k static_racy in
      if not ok then
        Alcotest.failf "%sdynamic race on %S not flagged statically" where k;
      ok)
    (Sharing.racy_keys sh)

let test_registry_dynamic_subset () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let sh, _ = run_tracked ~natives:e.natives e.Workloads.Registry.program in
      (* a collection invalidates per-word keying; workloads that GC even
         under the big heap are exempt from the containment check *)
      if Sharing.valid sh then
        ignore
          (dynamic_subset_of_static ~where:(e.Workloads.Registry.name ^ ": ")
             sh e.Workloads.Registry.program))
    (Lazy.force Workloads.Registry.all)

let test_registry_fully_classified () =
  (* every workload's audit converges and classifies every field with
     method:pc provenance on each recorded access *)
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let r = Analysis.run e.Workloads.Registry.program in
      Alcotest.(check bool) (e.Workloads.Registry.name ^ " converged") true
        r.Report.converged;
      List.iter
        (fun (f : Report.finding) ->
          Alcotest.(check bool) "nonempty key" true (f.Report.f_key <> "");
          if f.Report.f_kind = `Field then
            List.iter
              (fun (a : Report.acc_view) ->
                Alcotest.(check bool)
                  (Fmt.str "%s: provenance %S" e.Workloads.Registry.name
                     a.Report.av_where)
                  true
                  (contains a.Report.av_where ":"))
              f.Report.f_accesses)
        r.Report.findings)
    (Lazy.force Workloads.Registry.all)

let prop_dynamic_subset =
  QCheck.Test.make ~count:15 ~name:"dynamic races are flagged statically"
    QCheck.(
      quad (2 -- 4) (1 -- 20) bool (1 -- 5))
    (fun (threads, increments, sync, seed) ->
      let p =
        if sync then Workloads.Counters.synced ~threads ~increments ()
        else Workloads.Counters.racy ~threads ~increments ()
      in
      let sh, st = run_tracked ~seed p in
      (match st with
      | Vm.Rt.Finished | Vm.Rt.Halted _ -> ()
      | st -> QCheck.Test.fail_reportf "bad status %s" (Vm.string_of_status st));
      Sharing.valid sh && dynamic_subset_of_static sh p)

(* --- thread-local fast path ---------------------------------------------- *)

(* Main hammers a private instance field (proven thread-local — skippable)
   while two workers race on a static. *)
let skip_prog =
  let c = "C" in
  let worker =
    A.method_ ~nlocals:1 "worker"
      [
        i (I.Const 30);
        i (I.Store 0);
        l "loop";
        i (I.Load 0);
        i (I.Ifz (I.Le, "end"));
        i (I.Getstatic (c, "count"));
        i (I.Const 1);
        i I.Add;
        i (I.Putstatic (c, "count"));
        i (I.Load 0);
        i (I.Const 1);
        i I.Sub;
        i (I.Store 0);
        i (I.Goto "loop");
        l "end";
        i I.Ret;
      ]
  in
  let main =
    A.method_ ~nlocals:3 "main"
      ([ i (I.New c); i (I.Store 2); i (I.Const 20); i (I.Store 0); l "ml" ]
      @ [
          i (I.Load 0);
          i (I.Ifz (I.Le, "mend"));
          i (I.Load 2);
          i (I.Load 2);
          i (I.Getfield (c, "x"));
          i (I.Const 1);
          i I.Add;
          i (I.Putfield (c, "x"));
          i (I.Load 0);
          i (I.Const 1);
          i I.Sub;
          i (I.Store 0);
          i (I.Goto "ml");
          l "mend";
        ]
      @ [
          i (I.Spawn (c, "worker"));
          i (I.Store 0);
          i (I.Spawn (c, "worker"));
          i (I.Store 1);
          i (I.Load 0);
          i I.Join;
          i (I.Load 1);
          i I.Join;
          i (I.Getstatic (c, "count"));
          i I.Print;
          i (I.Load 2);
          i (I.Getfield (c, "x"));
          i I.Print;
          i I.Ret;
        ])
  in
  D.program
    [
      D.cdecl c ~statics:[ D.field "count" ] ~fields:[ D.field "x" ]
        [ worker; main ];
    ]

(* The tracker's skip predicate: true exactly for the field keys the
   static audit proved thread-local. *)
let skip_for p =
  let local = Report.thread_local_fields (Analysis.run p) in
  fun key -> List.mem key local

let test_skip_predicate () =
  let skip = skip_for skip_prog in
  Alcotest.(check bool) "C.x skippable" true (skip "C.x");
  Alcotest.(check bool) "C.count not skippable" false (skip "C.count (static)")

let record_bytes ~with_sharing p =
  let vm = Vm.create ~config:big_config p in
  let session = Dejavu.Recorder.attach vm in
  let sh =
    if with_sharing then
      Some (Sharing.attach ~skip:(skip_for p) vm)
    else None
  in
  ignore (Vm.run vm);
  (Dejavu.Recorder.finish session, sh)

let test_fast_path_preserves_trace () =
  (* recording with the tracker + thread-local fast path attached must
     produce byte-identical traces: observation is perturbation-free *)
  let t_plain, _ = record_bytes ~with_sharing:false skip_prog in
  let t_tracked, sh = record_bytes ~with_sharing:true skip_prog in
  Alcotest.(check bool) "byte-identical traces" true
    (Dejavu.Trace.to_bytes t_plain = Dejavu.Trace.to_bytes t_tracked);
  match sh with
  | None -> Alcotest.fail "no tracker"
  | Some sh ->
    Alcotest.(check bool) "no GC during run" true (Sharing.valid sh);
    Alcotest.(check bool) "fast path taken" true (Sharing.n_skipped sh > 0);
    Alcotest.(check bool) "still tracking shared state" true
      (Sharing.n_tracked sh > 0);
    Alcotest.(check bool) "dynamic race seen on the static" true
      (List.mem "C.count (static)" (Sharing.shared_keys sh))

(* --- sorted-set primitives ---------------------------------------------- *)

let test_sorted_set_semantics () =
  let module L = Analysis.Lockset in
  Alcotest.(check (list int)) "norm sorts and dedups" [ 1; 2; 3 ]
    (L.norm_sorted [ 3; 1; 2; 1; 3 ]);
  Alcotest.(check (list int)) "inter empty left" [] (L.inter_sorted [] [ 1 ]);
  Alcotest.(check (list int)) "inter disjoint" []
    (L.inter_sorted [ 1; 3 ] [ 2; 4 ]);
  Alcotest.(check (list int)) "inter overlap" [ 2; 4 ]
    (L.inter_sorted [ 1; 2; 4 ] [ 2; 3; 4 ]);
  Alcotest.(check (list int)) "union empty" [ 1 ] (L.union_sorted [ 1 ] []);
  Alcotest.(check (list int)) "union interleaved" [ 1; 2; 3; 4 ]
    (L.union_sorted [ 1; 3 ] [ 2; 3; 4 ])

let prop_sorted_sets =
  QCheck.Test.make ~count:300 ~name:"inter/union_sorted are set operations"
    QCheck.(pair (list small_nat) (list small_nat))
    (fun (xs, ys) ->
      let module L = Analysis.Lockset in
      let a = L.norm_sorted xs and b = L.norm_sorted ys in
      L.inter_sorted a b = List.filter (fun x -> List.mem x b) a
      && L.union_sorted a b = List.sort_uniq compare (xs @ ys))

(* --- MHP refinement + conflict pairs + deadlock cycles ------------------- *)

let registry_program name =
  match Workloads.Registry.find name with
  | Some e -> e.Workloads.Registry.program
  | None -> Alcotest.failf "no registry workload %S" name

let test_gc_churn_refined () =
  (* per-root allocation tags prove each worker's nodes disjoint: the PR-3
     imprecision entries (escape coarsening via Churn.survivor) retire *)
  let r = Analysis.run (registry_program "gc-churn") in
  check_status r "Node.value" Report.Thread_local;
  check_status r "Node.next" Report.Thread_local;
  (match find_key r "Node.value" with
  | Some f ->
    Alcotest.(check bool) "why names disjointness" true
      (contains f.Report.f_why "distinct objects")
  | None -> Alcotest.fail "no Node.value finding");
  (* the intentional race and the guarded counter are untouched *)
  check_status r "Churn.survivor (static)" Report.Racy;
  check_status r "Churn.total (static)" Report.Lock_consistent;
  (* the Node allocation site no longer backs a racy field *)
  match
    List.find_opt
      (fun (f : Report.finding) ->
        f.Report.f_kind = `Site && contains f.Report.f_key "new Node")
      r.Report.findings
  with
  | Some f ->
    Alcotest.(check bool) "Node site not racy" true
      (f.Report.f_status <> Report.Racy)
  | None -> Alcotest.fail "no Node site finding"

let test_lock_cycle_flagged () =
  let r = Analysis.run (registry_program "lock-cycle") in
  Alcotest.(check (list string))
    "cycle key"
    [ "static Cycle.lockA -> static Cycle.lockB" ]
    (Report.deadlock_keys r);
  (match r.Report.deadlocks with
  | [ d ] ->
    Alcotest.(check bool) "ab acquisition site" true
      (List.exists
         (fun s -> contains s "Cycle.ab:")
         d.Analysis.Lockorder.dl_sites);
    Alcotest.(check bool) "ba acquisition site" true
      (List.exists
         (fun s -> contains s "Cycle.ba:")
         d.Analysis.Lockorder.dl_sites)
  | ds -> Alcotest.failf "expected exactly one deadlock, got %d" (List.length ds));
  (* lock-protocol-ordered accesses remain DPOR branch points, the lock
     words themselves do not *)
  let cf = Report.conflict_fields r in
  Alcotest.(check bool) "count is a branch point" true
    (List.mem "Cycle.count (static)" cf);
  Alcotest.(check bool) "lockA is not" false
    (List.mem "Cycle.lockA (static)" cf)

let test_registry_no_false_deadlocks () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let r = Analysis.run e.Workloads.Registry.program in
      let expected =
        if e.Workloads.Registry.name = "lock-cycle" then 1 else 0
      in
      Alcotest.(check int)
        (e.Workloads.Registry.name ^ " deadlocks")
        expected
        (List.length r.Report.deadlocks))
    (Lazy.force Workloads.Registry.all)

(* helper: a method taking [first] then [second], releasing in LIFO order *)
let lock_pair_method c name first second =
  A.method_ ~nlocals:0 name
    [
      i (I.Getstatic (c, first));
      i I.Monitorenter;
      i (I.Getstatic (c, second));
      i I.Monitorenter;
      i (I.Getstatic (c, second));
      i I.Monitorexit;
      i (I.Getstatic (c, first));
      i I.Monitorexit;
      i I.Ret;
    ]

let lock_statics =
  [ D.field ~ty:(I.Tobj "Object") "a"; D.field ~ty:(I.Tobj "Object") "b" ]

(* One thread takes a->b then b->a sequentially: a graph cycle with no
   MHP-overlapping selection, so no deadlock finding. *)
let test_sequential_inversion_not_flagged () =
  let c = "Seq" in
  let body first second =
    [
      i (I.Getstatic (c, first));
      i I.Monitorenter;
      i (I.Getstatic (c, second));
      i I.Monitorenter;
      i (I.Getstatic (c, second));
      i I.Monitorexit;
      i (I.Getstatic (c, first));
      i I.Monitorexit;
    ]
  in
  let main =
    A.method_ ~nlocals:0 "main"
      ([
         i (I.New "Object");
         i (I.Putstatic (c, "a"));
         i (I.New "Object");
         i (I.Putstatic (c, "b"));
       ]
      @ body "a" "b" @ body "b" "a" @ [ i I.Ret ])
  in
  let p = D.program ~main_class:c [ D.cdecl c ~statics:lock_statics [ main ] ] in
  let r = Analysis.run p in
  Alcotest.(check int) "no deadlocks" 0 (List.length r.Report.deadlocks)

(* The inverted takers never overlap: the second is spawned only after the
   first is joined, so the cycle has no MHP-consistent selection either. *)
let test_joined_inversion_not_flagged () =
  let c = "J" in
  let main =
    A.method_ ~nlocals:1 "main"
      [
        i (I.New "Object");
        i (I.Putstatic (c, "a"));
        i (I.New "Object");
        i (I.Putstatic (c, "b"));
        i (I.Spawn (c, "ab"));
        i (I.Store 0);
        i (I.Load 0);
        i I.Join;
        i (I.Spawn (c, "ba"));
        i (I.Store 0);
        i (I.Load 0);
        i I.Join;
        i I.Ret;
      ]
  in
  let p =
    D.program ~main_class:c
      [
        D.cdecl c ~statics:lock_statics
          [
            lock_pair_method c "ab" "a" "b";
            lock_pair_method c "ba" "b" "a";
            main;
          ];
      ]
  in
  let r = Analysis.run p in
  Alcotest.(check int) "no deadlocks" 0 (List.length r.Report.deadlocks);
  (* and the overlapping variant of the same shape IS flagged: drop the
     first join so both takers run concurrently *)
  let main2 =
    A.method_ ~nlocals:2 "main"
      [
        i (I.New "Object");
        i (I.Putstatic (c, "a"));
        i (I.New "Object");
        i (I.Putstatic (c, "b"));
        i (I.Spawn (c, "ab"));
        i (I.Store 0);
        i (I.Spawn (c, "ba"));
        i (I.Store 1);
        i (I.Load 0);
        i I.Join;
        i (I.Load 1);
        i I.Join;
        i I.Ret;
      ]
  in
  let p2 =
    D.program ~main_class:c
      [
        D.cdecl c ~statics:lock_statics
          [
            lock_pair_method c "ab" "a" "b";
            lock_pair_method c "ba" "b" "a";
            main2;
          ];
      ]
  in
  let r2 = Analysis.run p2 in
  Alcotest.(check int) "overlapping variant flagged" 1
    (List.length r2.Report.deadlocks)

(* MHP join monotonicity: merging control-flow information can only grow
   may_overlap, never refute it. *)
let prop_mhp_join_monotone =
  let gen =
    QCheck.Gen.(
      int_range 1 5 >>= fun n ->
      let subset = list_size (int_range 0 n) (int_range 0 (n - 1)) in
      list_repeat n bool >>= fun once ->
      (if n = 1 then return [ -1 ]
       else
         list_repeat (n - 1) (int_range (-2) (n - 2)) >>= fun ps ->
         (* parent of root i must precede i (spawn order); clamp *)
         return (-1 :: List.mapi (fun i p -> if p > i then i else p) ps))
      >>= fun parents ->
      int_range 0 (n - 1) >>= fun ra ->
      int_range 0 (n - 1) >>= fun rc ->
      subset >>= fun sa ->
      subset >>= fun ja ->
      subset >>= fun sb ->
      subset >>= fun jb ->
      subset >>= fun sc ->
      subset >>= fun jc ->
      return (once, parents, ra, rc, (sa, ja, sb, jb, sc, jc)))
  in
  QCheck.Test.make ~count:1000 ~name:"MHP join is monotone"
    (QCheck.make gen)
    (fun (once, parents, ra, rc, (sa, ja, sb, jb, sc, jc)) ->
      let module M = Analysis.Mhp in
      let t =
        M.make ~once:(Array.of_list once) ~parent:(Array.of_list parents)
      in
      let a = M.point ~root:ra ~spawned:sa ~joined:ja in
      let b = M.point ~root:ra ~spawned:sb ~joined:jb in
      let c = M.point ~root:rc ~spawned:sc ~joined:jc in
      let j = M.join a b in
      (not (M.may_overlap t a c)) || M.may_overlap t j c)

(* --- dynamic conflicts ⊆ static conflict-pair set ------------------------ *)

let test_registry_conflict_containment () =
  (* the weak (spawn/join-only) dynamic HB family mirrors exactly the
     ordering facts the static MHP pass is allowed to use, so every
     dynamically observed conflict key must sit in the static conflict set;
     no skip predicate attached — the tracker sees everything *)
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let sh, _ = run_tracked ~natives:e.natives e.Workloads.Registry.program in
      if Sharing.valid sh then begin
        let static =
          Report.conflict_fields
            (Analysis.run e.Workloads.Registry.program)
        in
        List.iter
          (fun k ->
            if not (List.mem k static) then
              Alcotest.failf "%s: dynamic conflict on %S not in static set"
                e.Workloads.Registry.name k)
          (Sharing.conflict_keys sh);
        (* conflicts are a superset of full-HB races by construction *)
        List.iter
          (fun k ->
            if not (List.mem k (Sharing.conflict_keys sh)) then
              Alcotest.failf "%s: race on %S missing from conflicts"
                e.Workloads.Registry.name k)
          (Sharing.racy_keys sh)
      end)
    (Lazy.force Workloads.Registry.all)

let () =
  Alcotest.run "analysis"
    [
      ( "classify",
        [
          quick "racy static counter" test_racy_static;
          quick "spawn/join ordered" test_spawn_join_ordered;
          quick "confined allocation" test_confined_allocation;
          quick "counter twins" test_counters_twins;
        ] );
      ("engine", [ quick "backward liveness" test_liveness_backward ]);
      ( "monitors",
        [
          quick "exit at depth 0" test_monitor_exit_at_zero;
          quick "leak on return" test_monitor_leak_on_return;
          quick "nesting in loop" test_monitor_nesting_in_loop;
          quick "balanced is clean" test_monitor_balanced_clean;
        ] );
      ( "dynamic",
        [
          quick "registry: dynamic ⊆ static" test_registry_dynamic_subset;
          quick "registry: fully classified" test_registry_fully_classified;
          QCheck_alcotest.to_alcotest prop_dynamic_subset;
        ] );
      ( "thread-local",
        [
          quick "skip predicate" test_skip_predicate;
          quick "fast path preserves trace" test_fast_path_preserves_trace;
        ] );
      ( "sets",
        [
          quick "sorted-set semantics" test_sorted_set_semantics;
          QCheck_alcotest.to_alcotest prop_sorted_sets;
        ] );
      ( "mhp",
        [
          quick "gc-churn imprecision retired" test_gc_churn_refined;
          quick "lock-cycle deadlock flagged" test_lock_cycle_flagged;
          quick "registry: no false deadlocks" test_registry_no_false_deadlocks;
          quick "sequential inversion clean" test_sequential_inversion_not_flagged;
          quick "join-ordered inversion clean" test_joined_inversion_not_flagged;
          QCheck_alcotest.to_alcotest prop_mhp_join_monotone;
        ] );
      ( "conflicts",
        [
          quick "registry: dynamic conflicts ⊆ static"
            test_registry_conflict_containment;
        ] );
    ]
