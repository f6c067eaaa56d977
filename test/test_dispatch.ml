(* Dispatch-loop checks: the interpreter has one loop, which runs a
   register region wherever one fits and serves an attached observer from
   inside it. Observing must not change the execution — same outputs,
   state digests, recorded traces and register-tier coverage — and the
   register and stack tiers must report the same event sequences. *)

open Tutil

let all () = Lazy.force Workloads.Registry.all

let seeded seed =
  {
    Vm.Rt.default_config with
    Vm.Rt.env_cfg = { Vm.Rt.default_config.Vm.Rt.env_cfg with Vm.Env.seed };
  }

(* Observed live run: attach an observer before booting. *)
let run_observed ?max_events ~natives ~seed program =
  let vm = Vm.create ~config:(seeded seed) ~natives program in
  let obs =
    match max_events with
    | None -> Vm.Observer.attach_digest vm
    | Some m -> Vm.Observer.attach_collect ~max_events:m vm
  in
  ignore (Vm.run vm);
  (vm, obs)

(* Unobserved vs observed: a hook that only reads events must not change
   the execution it observes, nor which tier runs it. *)
let test_fast_vs_observed_live () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      List.iter
        (fun seed ->
          let fast, fast_st = run ~natives:e.natives ~seed e.program in
          let obs_vm, obs = run_observed ~natives:e.natives ~seed e.program in
          let ctx = Fmt.str "%s/%d" e.name seed in
          Alcotest.check status_testable (ctx ^ " status") fast_st
            (Vm.status obs_vm);
          Alcotest.(check string) (ctx ^ " output") (Vm.output fast)
            (Vm.output obs_vm);
          Alcotest.(check int) (ctx ^ " state digest") (Vm.digest fast)
            (Vm.digest obs_vm);
          Alcotest.(check int)
            (ctx ^ " one event per instruction")
            (Vm.stats obs_vm).n_instr (Vm.Observer.count obs);
          Alcotest.(check int)
            (ctx ^ " observing keeps the register tier")
            (Vm.stats fast).n_regir_instr (Vm.stats obs_vm).n_regir_instr)
        [ 1; 3 ])
    (all ())

(* Observed record/replay: the roundtrip's event digests
   must agree for every catalogued workload. *)
let test_roundtrip_digests_observed () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let rt = Dejavu.verify_roundtrip ~natives:e.natives ~seed:3 e.program in
      Alcotest.(check int)
        (e.name ^ " events equal")
        rt.Dejavu.recorded.obs_digest rt.Dejavu.replayed.obs_digest;
      Alcotest.check verdict (e.name ^ " roundtrip ok") Dejavu.Ok
        rt.Dejavu.verdict)
    (all ())

(* A trace recorded without an observer must be byte-identical to one
   recorded with it, and replaying it with an observer must reproduce the
   observed recording's event digest. *)
let test_fast_recorded_trace_matches () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let obs_run, obs_trace =
        Dejavu.record ~natives:e.natives ~seed:1 e.program
      in
      let fast_run, fast_trace =
        Dejavu.record ~natives:e.natives ~seed:1 ~observe:false e.program
      in
      Alcotest.(check string)
        (e.name ^ " trace bytes")
        (Dejavu.Trace.to_bytes obs_trace)
        (Dejavu.Trace.to_bytes fast_trace);
      Alcotest.(check int)
        (e.name ^ " fast record leaves no digest")
        0 fast_run.Dejavu.obs_count;
      let replayed, leftovers =
        Dejavu.replay ~natives:e.natives e.program fast_trace
      in
      Alcotest.(check (list string)) (e.name ^ " trace consumed") [] leftovers;
      Alcotest.(check int)
        (e.name ^ " replay digest vs observed record")
        obs_run.Dejavu.obs_digest replayed.Dejavu.obs_digest;
      Alcotest.(check int)
        (e.name ^ " replay count vs observed record")
        obs_run.Dejavu.obs_count replayed.Dejavu.obs_count)
    (all ())

(* [Vm.step] is the batched loop with one unit of fuel: [n] single steps
   with the observer attached must land exactly where [Vm.run ~limit:n]
   lands — same event digest and count (the hooks fired once per step),
   same preemption requests and state digest (the clock ticked once per
   step, so the schedule matches), same instruction count. *)
let test_step_matches_run () =
  let e =
    match Workloads.Registry.find "racy-counter" with
    | Some e -> e
    | None -> Alcotest.fail "racy-counter workload missing"
  in
  let n = 40_000 in
  let stepped = Vm.create ~config:(seeded 2) ~natives:e.natives e.program in
  let s_obs = Vm.Observer.attach_digest stepped in
  Vm.boot stepped;
  let k = ref 0 in
  while Vm.status stepped = Vm.Rt.Running_ && !k < n do
    Vm.step stepped;
    incr k
  done;
  let ran = Vm.create ~config:(seeded 2) ~natives:e.natives e.program in
  let r_obs = Vm.Observer.attach_digest ran in
  ignore (Vm.run ~limit:n ran);
  Alcotest.(check int) "still running after n steps" n !k;
  Alcotest.(check int) "instruction count" (Vm.stats ran).n_instr
    (Vm.stats stepped).n_instr;
  Alcotest.(check int) "event count" (Vm.Observer.count r_obs)
    (Vm.Observer.count s_obs);
  Alcotest.(check int) "event digest" (Vm.Observer.digest r_obs)
    (Vm.Observer.digest s_obs);
  Alcotest.(check int) "preemption requests" (Vm.stats ran).n_preempt_req
    (Vm.stats stepped).n_preempt_req;
  Alcotest.(check bool) "preempted at least once" true
    ((Vm.stats ran).n_preempt_req > 0);
  Alcotest.(check int) "state digest" (Vm.digest ran) (Vm.digest stepped)

(* Register tier vs stack tier: [cfg.regir] only decides whether verified
   methods additionally carry register-IR regions and whether the loop
   dispatches into them; every observable — status, output, state
   digest, instruction count, trace bytes, event digests — must be
   identical across the whole catalogue, and traces recorded under one
   tier must replay under the other. *)
let noregir = { Vm.Rt.default_config with Vm.Rt.regir = false }

let test_regir_vs_stack_live () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      List.iter
        (fun seed ->
          let r, r_st = run ~natives:e.natives ~seed e.program in
          let s, s_st = run ~config:noregir ~natives:e.natives ~seed e.program in
          let ctx = Fmt.str "%s/%d" e.name seed in
          Alcotest.check status_testable (ctx ^ " status") s_st r_st;
          Alcotest.(check string) (ctx ^ " output") (Vm.output s) (Vm.output r);
          Alcotest.(check int) (ctx ^ " state digest") (Vm.digest s)
            (Vm.digest r);
          Alcotest.(check int)
            (ctx ^ " instruction count")
            (Vm.stats s).n_instr (Vm.stats r).n_instr;
          Alcotest.(check int)
            (ctx ^ " stack tier ran no regir")
            0
            (Vm.stats s).n_regir_instr)
        [ 1; 3 ])
    (all ())

(* Observed recordings on both tiers: the register tier serves the
   observer from inside its regions, so the event sequences must agree
   with the stack tier's one-instruction-at-a-time report. *)
let test_regir_vs_stack_traces () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      List.iter
        (fun seed ->
          let ctx = Fmt.str "%s/%d" e.name seed in
          let rr, rt = Dejavu.record ~natives:e.natives ~seed e.program in
          let sr, st =
            Dejavu.record ~config:noregir ~natives:e.natives ~seed e.program
          in
          Alcotest.(check string)
            (ctx ^ " trace bytes")
            (Dejavu.Trace.to_bytes st) (Dejavu.Trace.to_bytes rt);
          Alcotest.(check int) (ctx ^ " event digest") sr.Dejavu.obs_digest
            rr.Dejavu.obs_digest;
          Alcotest.(check int) (ctx ^ " event count") sr.Dejavu.obs_count
            rr.Dejavu.obs_count;
          (* cross-replay: a trace recorded on the register tier replays on
             the stack tier, and back *)
          let rep_s, left_s =
            Dejavu.replay ~config:noregir ~natives:e.natives e.program rt
          in
          Alcotest.(check (list string))
            (ctx ^ " regir->stack consumed")
            [] left_s;
          Alcotest.(check int)
            (ctx ^ " regir->stack events")
            rr.Dejavu.obs_digest rep_s.Dejavu.obs_digest;
          let rep_r, left_r = Dejavu.replay ~natives:e.natives e.program st in
          Alcotest.(check (list string))
            (ctx ^ " stack->regir consumed")
            [] left_r;
          Alcotest.(check int)
            (ctx ^ " stack->regir events")
            sr.Dejavu.obs_digest rep_r.Dejavu.obs_digest;
          Alcotest.(check int)
            (ctx ^ " replay state digest")
            rep_s.Dejavu.state_digest rep_r.Dejavu.state_digest)
        [ 1; 3 ])
    (all ())

(* One virtual call site in a loop over receivers cycling through [k]
   classes: every visit indexes the receiver's vtable, and the register
   tier's call must reach the same callee as the stack tier's. *)
let poly_prog k iters =
  let shape n =
    A.method_ ~static:false ~args:[ I.Tobj "Shape" ] ~ret:I.Tint ~nlocals:1
      "id"
      [ i (I.Const n); i I.Retv ]
  in
  let cname j = if j = 0 then "Shape" else Fmt.str "Shape%d" j in
  let extra =
    D.cdecl "Shape" [ shape 0 ]
    :: List.init (k - 1) (fun j ->
           D.cdecl ~super:"Shape" (cname (j + 1)) [ shape (j + 1) ])
  in
  let fills =
    List.concat
      (List.init k (fun j ->
           [
             i (I.Load 0); i (I.Const j); i (I.New (cname j)); i I.Astore;
           ]))
  in
  main_prog ~nlocals:3 ~extra_classes:extra
    ([ i (I.Const k); i (I.Newarray (I.Tobj "Shape")); i (I.Store 0) ]
    @ fills
    @ [
        i (I.Const 0); i (I.Store 1); i (I.Const 0); i (I.Store 2);
        l "loop";
        i (I.Load 1); i (I.Const iters); i (I.If (I.Ge, "end"));
        i (I.Load 2);
        i (I.Load 0); i (I.Load 1); i (I.Const k); i I.Rem; i I.Aload;
        i (I.Invoke ("Shape", "id"));
        i I.Add; i (I.Store 2);
        i (I.Load 1); i (I.Const 1); i I.Add; i (I.Store 1);
        i (I.Goto "loop");
        l "end";
        i (I.Load 2); i I.Print; i I.Ret;
      ])

let test_virtual_dispatch () =
  let iters = 600 in
  List.iter
    (fun (k, expect) ->
      let name = Fmt.str "k=%d" k in
      let p = poly_prog k iters in
      let vm, status = run ~seed:1 p in
      Alcotest.check status_testable (name ^ " finished") Vm.Rt.Finished
        status;
      Alcotest.(check string)
        (name ^ " output")
        (Fmt.str "%d\n" (iters / k * expect))
        (Vm.output vm);
      let rr, rt = Dejavu.record ~seed:1 p in
      let sr, st = Dejavu.record ~config:noregir ~seed:1 p in
      Alcotest.(check string)
        (name ^ " trace bytes")
        (Dejavu.Trace.to_bytes st) (Dejavu.Trace.to_bytes rt);
      Alcotest.(check int)
        (name ^ " event digest")
        sr.Dejavu.obs_digest rr.Dejavu.obs_digest;
      Alcotest.(check int)
        (name ^ " state digest")
        sr.Dejavu.state_digest rr.Dejavu.state_digest;
      List.iter
        (fun (tier, recorded, trace) ->
          let replayed, _ = Dejavu.replay p trace in
          Alcotest.check verdict
            (Fmt.str "%s %s replay verdict" name tier)
            Dejavu.Ok
            (Dejavu.judge ~expected:recorded replayed))
        [ ("register", rr, rt); ("stack", sr, st) ])
    [ (3, 3); (6, 15) ]

(* A call ends its region, so the instruction after the call must open a
   region of its own; otherwise everything from the return pc to the next
   branch target runs on the stack tier. The callee loops, so no run-time
   shortcut could cover the call itself — this directed program pins the
   lowering, and the regions must stay invisible to recording. *)
let looping_call_prog iters =
  let spin =
    A.method_ ~args:[ I.Tint ] ~nlocals:1 "spin"
      [
        l "loop";
        i (I.Load 0); i (I.Ifz (I.Le, "end"));
        i (I.Load 0); i (I.Const 1); i I.Sub; i (I.Store 0);
        i (I.Goto "loop");
        l "end";
        i I.Ret;
      ]
  in
  let main =
    A.method_ ~nlocals:2 "main"
      [
        i (I.Const 0); i (I.Store 0); i (I.Const 0); i (I.Store 1);
        l "loop";
        i (I.Load 1); i (I.Const iters); i (I.If (I.Ge, "end"));
        i (I.Const 3); i (I.Invoke ("T", "spin"));
        i (I.Load 0); i (I.Const 2); i I.Add; i (I.Store 0);
        i (I.Load 1); i (I.Const 1); i I.Add; i (I.Store 1);
        i (I.Goto "loop");
        l "end";
        i (I.Load 0); i I.Print; i I.Ret;
      ]
  in
  D.program ~main_class:"T" [ D.cdecl "T" [ spin; main ] ]

let test_return_pc_opens_region () =
  let iters = 2000 in
  let p = looping_call_prog iters in
  let live, st = run ~seed:1 p in
  Alcotest.check status_testable "finished" Vm.Rt.Finished st;
  Alcotest.(check string) "output" (Fmt.str "%d\n" (2 * iters))
    (Vm.output live);
  let main =
    List.find
      (fun (m : Vm.Rt.rmethod) -> m.rm_name = "main")
      (Array.to_list live.Vm.Rt.methods)
  in
  let c = Vm.Rt.compiled main in
  let calls = ref 0 in
  Array.iteri
    (fun pc ins ->
      match ins with
      | Vm.Rt.KInvokestatic _ ->
        incr calls;
        Alcotest.(check bool)
          (Fmt.str "region at return pc %d" (pc + 1))
          true
          (c.Vm.Rt.k_regions.(pc + 1) <> None)
      | _ -> ())
    c.Vm.Rt.k_code;
  Alcotest.(check int) "one call site" 1 !calls;
  let rr, rt = Dejavu.record ~seed:1 p in
  let sr, st' = Dejavu.record ~config:noregir ~seed:1 p in
  Alcotest.(check string) "trace bytes" (Dejavu.Trace.to_bytes st')
    (Dejavu.Trace.to_bytes rt);
  Alcotest.(check int) "state digest" sr.Dejavu.state_digest
    rr.Dejavu.state_digest;
  Alcotest.(check int) "event digest" sr.Dejavu.obs_digest rr.Dejavu.obs_digest

(* racy-counter's worker calls a looping [spin] mid-iteration. If the
   code after the call loses its region, pcs 9-18 of the 36-instruction
   iteration fall back to the stack tier and coverage drops to 0.666. *)
let test_racy_counter_coverage () =
  let e =
    match Workloads.Registry.find "racy-counter" with
    | Some e -> e
    | None -> Alcotest.fail "racy-counter workload missing"
  in
  let vm, _ = run ~natives:e.natives ~seed:1 e.program in
  let s = Vm.stats vm in
  let frac =
    float_of_int s.Vm.Rt.n_regir_instr /. float_of_int (max 1 s.n_instr)
  in
  if frac < 0.9 then
    Alcotest.failf "racy-counter region coverage %.3f < 0.9 (%d/%d)" frac
      s.Vm.Rt.n_regir_instr s.n_instr

(* Interrupts arriving mid-region at a monitor op: a tiny timer quantum
   lands preemption requests on monitorenter/monitorexit constantly, so
   the region fast path's continue-only-while-running guard is exercised
   at both ops (an enter that parks, an exit whose handoff readies a
   waiter, a preemption granted at the segment boundary). The register
   tier must stay invisible — same trace bytes, state digest, and event
   sequence — and its regions must actually cover the monitor ops. *)
let small_quantum seed =
  {
    Vm.Rt.default_config with
    Vm.Rt.env_cfg =
      {
        Vm.Rt.default_config.Vm.Rt.env_cfg with
        Vm.Env.seed;
        quantum = 60;
        quantum_jitter = 20;
      };
  }

let monitor_pingpong iters =
  let work =
    A.method_ ~nlocals:1 "work"
      [
        i (I.Const 0); i (I.Store 0);
        l "loop";
        i (I.Load 0); i (I.Const iters); i (I.If (I.Ge, "end"));
        i (I.Getstatic ("T", "r0")); i I.Monitorenter;
        i (I.Getstatic ("T", "s0")); i (I.Const 1); i I.Add;
        i (I.Putstatic ("T", "s0"));
        i (I.Getstatic ("T", "r0")); i I.Monitorexit;
        i (I.Load 0); i (I.Const 1); i I.Add; i (I.Store 0);
        i (I.Goto "loop");
        l "end"; i I.Ret;
      ]
  in
  let main =
    A.method_ ~nlocals:3 "main"
      [
        i (I.New "Object"); i (I.Putstatic ("T", "r0"));
        i (I.Spawn ("T", "work")); i (I.Store 1);
        i (I.Spawn ("T", "work")); i (I.Store 2);
        i (I.Invoke ("T", "work"));
        i (I.Load 1); i I.Join;
        i (I.Load 2); i I.Join;
        i (I.Getstatic ("T", "s0")); i I.Print; i I.Ret;
      ]
  in
  D.program ~main_class:"T"
    [
      D.cdecl "T"
        ~statics:[ D.field "s0"; D.field ~ty:I.Tref "r0" ]
        [ work; main ];
    ]

let test_interrupt_at_monitor_op () =
  let iters = 150 in
  let p = monitor_pingpong iters in
  List.iter
    (fun seed ->
      let cfg = small_quantum seed in
      let nocfg = { cfg with Vm.Rt.regir = false } in
      let ctx = Fmt.str "seed %d" seed in
      let rr, rt = Dejavu.record ~config:cfg ~seed p in
      let sr, st = Dejavu.record ~config:nocfg ~seed p in
      (* the lock serializes the increments: the sum is exact *)
      Alcotest.(check string)
        (ctx ^ " output")
        (Fmt.str "%d\n" (3 * iters))
        rr.Dejavu.output;
      let stats = Vm.stats rr.Dejavu.vm in
      Alcotest.(check bool)
        (ctx ^ " preemptions arrived")
        true
        (stats.Vm.Rt.n_preempt_req > 0);
      Alcotest.(check bool)
        (ctx ^ " regions covered monitor ops")
        true
        (stats.Vm.Rt.n_regir_mon > 0);
      Alcotest.(check string)
        (ctx ^ " trace bytes")
        (Dejavu.Trace.to_bytes st) (Dejavu.Trace.to_bytes rt);
      Alcotest.(check int)
        (ctx ^ " state digest")
        sr.Dejavu.state_digest rr.Dejavu.state_digest;
      Alcotest.(check int)
        (ctx ^ " event digest")
        sr.Dejavu.obs_digest rr.Dejavu.obs_digest;
      Alcotest.(check int)
        (ctx ^ " event count")
        sr.Dejavu.obs_count rr.Dejavu.obs_count;
      (* cross-replay under the opposite tier *)
      let rep_s, left_s = Dejavu.replay ~config:nocfg p rt in
      Alcotest.(check (list string)) (ctx ^ " regir->stack consumed") [] left_s;
      Alcotest.(check int)
        (ctx ^ " regir->stack events")
        rr.Dejavu.obs_digest rep_s.Dejavu.obs_digest;
      let rep_r, left_r = Dejavu.replay ~config:cfg p st in
      Alcotest.(check (list string)) (ctx ^ " stack->regir consumed") [] left_r;
      Alcotest.(check int)
        (ctx ^ " stack->regir events")
        sr.Dejavu.obs_digest rep_r.Dejavu.obs_digest)
    [ 1; 2; 5 ]

(* Collecting and digesting observers fold the same hash; the collection
   cap bounds retention only, never the digest or the true count. *)
let test_collect_matches_digest () =
  let e =
    match Workloads.Registry.find "ring" with
    | Some e -> e
    | None -> Alcotest.fail "ring workload missing"
  in
  let _, dig = run_observed ~natives:e.natives ~seed:2 e.program in
  let _, col = run_observed ~max_events:max_int ~natives:e.natives ~seed:2 e.program in
  Alcotest.(check int) "digest" (Vm.Observer.digest dig)
    (Vm.Observer.digest col);
  Alcotest.(check int) "count" (Vm.Observer.count dig) (Vm.Observer.count col);
  Alcotest.(check int) "nothing dropped" 0 (Vm.Observer.dropped col);
  Alcotest.(check int) "kept all events" (Vm.Observer.count col)
    (List.length (Vm.Observer.events col))

let test_collect_cap_semantics () =
  let e =
    match Workloads.Registry.find "ring" with
    | Some e -> e
    | None -> Alcotest.fail "ring workload missing"
  in
  let _, dig = run_observed ~natives:e.natives ~seed:2 e.program in
  let cap = 100 in
  let _, col = run_observed ~max_events:cap ~natives:e.natives ~seed:2 e.program in
  let total = Vm.Observer.count dig in
  Alcotest.(check bool) "workload exceeds cap" true (total > cap);
  Alcotest.(check int) "digest exact past cap" (Vm.Observer.digest dig)
    (Vm.Observer.digest col);
  Alcotest.(check int) "true count past cap" total (Vm.Observer.count col);
  Alcotest.(check int) "dropped = count - kept" (total - cap)
    (Vm.Observer.dropped col);
  Alcotest.(check int) "kept exactly the cap" cap
    (List.length (Vm.Observer.events col))

(* The compiled listing of every method of every registry workload prints
   without raising, and names each virtual call by the method its
   declaring class's vtable holds, on the stack tier and the register
   tier alike. *)
let test_compiled_listings () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let vm = Vm.create ~natives:e.natives e.program in
      Array.iter
        (fun (m : Vm.Rt.rmethod) -> ignore (Vm.Compile.compile vm m))
        vm.Vm.Rt.methods;
      let listing =
        String.concat "\n"
          (Array.to_list
             (Array.map (Fmt.str "%a" (Vm.Kdisasm.pp_compiled vm))
                vm.Vm.Rt.methods))
      in
      if e.name = "synced-counter" then
        List.iter
          (fun needle ->
            Alcotest.(check bool)
              (Fmt.str "synced-counter lists %S" needle)
              true (contains listing needle))
          [ "invokevirtual Counter.bump/1"; "callv Counter.bump/1" ])
    (all ())

let () =
  Alcotest.run "dispatch"
    [
      ( "loops",
        [
          quick "fast vs observed live" test_fast_vs_observed_live;
          quick "roundtrip digests (observed)" test_roundtrip_digests_observed;
          quick "fast-recorded trace matches" test_fast_recorded_trace_matches;
          quick "single steps = run ~limit" test_step_matches_run;
        ] );
      ( "regir",
        [
          quick "register vs stack live" test_regir_vs_stack_live;
          quick "register vs stack traces" test_regir_vs_stack_traces;
          quick "virtual dispatch on three and six classes"
            test_virtual_dispatch;
          quick "return pc after a looping callee" test_return_pc_opens_region;
          quick "racy-counter region coverage" test_racy_counter_coverage;
          quick "interrupt at a monitor op mid-region"
            test_interrupt_at_monitor_op;
        ] );
      ( "disasm",
        [ quick "compiled listings of the registry" test_compiled_listings ]
      );
      ( "observer",
        [
          quick "collect matches digest" test_collect_matches_digest;
          quick "cap: digest, count, dropped" test_collect_cap_semantics;
        ] );
    ]
