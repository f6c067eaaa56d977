(* The experiment harness: regenerates every figure-level result of the
   paper (E1–E4) and the quantitative claims it makes in prose and in the
   related-work comparison (E5, E7–E9). See DESIGN.md section 4 for the
   index and EXPERIMENTS.md for paper-claim vs measured. Record/replay
   overhead (E6) and farm throughput (E12) are measured by perfbench.

   Run:  dune exec bench/main.exe                (all experiments)
         dune exec bench/main.exe -- E7 E9       (a subset)
         dune exec bench/main.exe -- regir-smoke (register-tier speed floor)

   The steady end-to-end benchmark is perfbench/ (BENCHMARK.json); the
   parity checks live in the test suite (dune runtest). *)

let section id title =
  Fmt.pr "@.=== %s: %s ===@." id title

let entry name = Option.get (Workloads.Registry.find name)

let time f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

(* ---------------------------------------------------------------- E1/E2 *)

let e1 () =
  section "E1" "Figure 1 (A)/(B): schedule-dependent outcome + exact replay";
  let e = entry "fig1ab" in
  Fmt.pr "%-6s %-10s %-28s %s@." "seed" "printed" "record=replay?" "trace";
  List.iter
    (fun seed ->
      let rt = Dejavu.verify_roundtrip ~natives:e.natives ~seed e.program in
      Fmt.pr "%-6d %-10s %-28s %d bytes@." seed
        (String.trim rt.recorded.output)
        (if Dejavu.ok rt then "yes (events+output+state)" else "NO")
        (Dejavu.Trace.sizes rt.trace).total_bytes)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  let outs =
    List.map
      (fun seed ->
        let vm, _ = Vm.execute ~seed e.program in
        Vm.output vm)
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  Fmt.pr "distinct outcomes across seeds: %d (paper: printed value depends on the thread switch)@."
    (List.length (List.sort_uniq compare outs))

let e2 () =
  section "E2" "Figure 1 (C)/(D): wall-clock-dependent branch + wait/notify";
  let e = entry "fig1cd" in
  Fmt.pr "%-6s %-16s %-12s %s@." "seed" "printed" "clock-reads" "replay ok?";
  List.iter
    (fun seed ->
      let rt = Dejavu.verify_roundtrip ~natives:e.natives ~seed e.program in
      Fmt.pr "%-6d %-16s %-12d %s@." seed
        (String.concat "," (String.split_on_char '\n' (String.trim rt.recorded.output)))
        (Dejavu.Trace.sizes rt.trace).n_clock_reads
        (if Dejavu.ok rt then "yes" else "NO"))
    [ 1; 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------- E3 *)

let e3 () =
  section "E3" "Figure 2: symmetric instrumentation (record vs replay)";
  (* "timed" exercises every event kind: preemptions, scheduler clock
     reads, idle advances — so the symmetric ring buffer sees writes *)
  let e = entry "timed" in
  let rec_run, trace = Dejavu.record ~natives:e.natives ~seed:2 e.program in
  let rep_run, leftovers = Dejavu.replay ~natives:e.natives e.program trace in
  let s_rec = Option.get rec_run.Dejavu.session in
  let s_rep = Option.get rep_run.Dejavu.session in
  Fmt.pr "%-34s %-12s %-12s@." "" "record" "replay";
  Fmt.pr "%-34s %-12d %-12d@." "yield points seen by Figure-2 hook"
    s_rec.yieldpoints_seen s_rep.yieldpoints_seen;
  Fmt.pr "%-34s %-12d %-12d@." "thread switches performed"
    s_rec.switches_done s_rep.switches_done;
  Fmt.pr "%-34s %-12d %-12d@." "ring-buffer writes (symmetric alloc)"
    (Dejavu.Ring.writes s_rec.ring)
    (Dejavu.Ring.writes s_rep.ring);
  Fmt.pr "%-34s %-12d %-12d@." "state digest (incl. DejaVu heap)"
    (rec_run.Dejavu.state_digest land 0xffffff)
    (rep_run.Dejavu.state_digest land 0xffffff);
  Fmt.pr "trace fully consumed at replay end: %s@."
    (if leftovers = [] then "yes" else String.concat "; " leftovers)

(* ------------------------------------------------------------------- E4 *)

let e4 () =
  section "E4" "Figures 3/4: remote reflection is perturbation-free";
  let e = entry "gc-churn" in
  let rec_run, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
  ignore rec_run;
  (* replay and pause midway; inspect heavily through both interfaces *)
  let d = Debugger.Session.start ~natives:e.natives e.program trace in
  ignore (Debugger.Session.step d 5000);
  let before = Debugger.Session.state_digest d in
  let sp = Debugger.Session.space d in
  let module RR = (val Remote_reflection.Remote_object.reflection sp) in
  let module RL = (val Remote_reflection.Local_object.reflection d.vm) in
  let queries = [ ("Churn", "total"); ("Churn", "survivor"); ("Churn", "lock") ] in
  let agree =
    List.for_all
      (fun (c, f) ->
        RR.render_value ~depth:3 (RR.get_static c f)
        = RL.render_value ~depth:3 (RL.get_static c f))
      queries
  in
  List.iter
    (fun (c, f) ->
      Fmt.pr "  %s.%s = %s@." c f (RR.render_value ~depth:2 (RR.get_static c f)))
    queries;
  let frames = Remote_reflection.Remote_frames.frames sp 1 in
  Fmt.pr "  remote stack of thread 1: %s@."
    (String.concat " <- "
       (List.map
          (fun (f : Remote_reflection.Remote_frames.frame) -> f.rf_meth.rm_name)
          frames));
  Fmt.pr "remote == in-process reflection on all queries: %b@." agree;
  Fmt.pr "remote word reads performed: %d@." sp.reads;
  Fmt.pr "application-VM digest unchanged by inspection: %b@."
    (before = Debugger.Session.state_digest d);
  (* and the replay still completes identically *)
  ignore (Debugger.Session.continue_ d);
  Fmt.pr "resumed replay matches recording: %b@."
    (Debugger.Session.output d = rec_run.Dejavu.output
    && Debugger.Session.state_digest d = rec_run.Dejavu.state_digest)

(* ------------------------------------------------------------------- E5 *)

let e5 () =
  section "E5" "Replay accuracy across the workload suite";
  Fmt.pr "%-24s %-6s %-10s %-8s %-8s %-8s %-10s@." "workload" "seed" "events"
    "output" "state" "trace" "status";
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      List.iter
        (fun seed ->
          let rt = Dejavu.verify_roundtrip ~natives:e.natives ~seed e.program in
          Fmt.pr "%-24s %-6d %-10s %-8s %-8s %-8s %-10s@." e.name seed
            (if rt.events_equal then Fmt.str "=%d" rt.recorded.obs_count else "DIFFER")
            (if rt.outputs_equal then "equal" else "DIFFER")
            (if rt.states_equal then "equal" else "DIFFER")
            (if rt.replay_complete then "drained" else "LEFT")
            (Vm.string_of_status rt.recorded.status))
        [ 1; 2 ])
    (Lazy.force Workloads.Registry.all)

(* ------------------------------------------------------------------- E7 *)

let e7 () =
  section "E7" "Trace size: DejaVu vs the section-5 comparators (words)";
  Fmt.pr "%-20s %-10s %-12s %-12s %-12s %-10s@." "workload" "dejavu"
    "switch-map" "read-log" "crew" "dv bytes";
  List.iter
    (fun (name, (e : Workloads.Registry.entry)) ->
      let _, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
      let dv = Dejavu.Trace.sizes trace in
      let sm =
        let vm = Vm.create ~natives:e.natives e.program in
        let b = Baselines.Switch_map.attach_record vm in
        ignore (Vm.run vm);
        (Baselines.Switch_map.sizes b).trace_words
      in
      let crew =
        (Baselines.Runner.record_crew ~natives:e.natives ~seed:1 e.program)
          .trace_words
      in
      let rl =
        (Baselines.Runner.record_read_log ~natives:e.natives ~seed:1 e.program)
          .trace_words
      in
      Fmt.pr "%-20s %-10d %-12d %-12d %-12d %-10d@." name dv.total_words sm rl
        crew dv.total_bytes)
    [ ("primes", entry "primes"); ("parsum", entry "parsum");
      ("racy-counter", entry "racy-counter"); ("gc-churn", entry "gc-churn");
      ("producer-consumer", entry "producer-consumer") ];
  Fmt.pr "(expected shape: dejavu < switch-map << read-log <= crew)@."

(* ------------------------------------------------------------------- E8 *)

let e8 () =
  section "E8" "Instruction counting vs yield-point counting (section 2.3)";
  (* The substrate-independent measure is how many counter updates each
     identification scheme performs: yield points touch a few percent of
     instructions, instruction counting touches all of them. (Wall-clock
     times are also shown, but our interpreted substrate pays tens of ns
     per instruction anyway, which compresses the gap that is prohibitive
     for compiled code.) *)
  Fmt.pr "%-16s %-12s %-14s %-8s %-10s %-10s %-10s@." "workload"
    "yp updates" "icount updates" "ratio" "dejavu s" "icount s" "replay ok";
  List.iter
    (fun (name, (e : Workloads.Registry.entry)) ->
      let best f =
        let r = ref infinity in
        let v = ref None in
        for _ = 1 to 3 do
          let x, t = time f in
          v := Some x;
          if t < !r then r := t
        done;
        (Option.get !v, !r)
      in
      let dv_stats, dv_t =
        best (fun () ->
            let run, _ = Dejavu.record ~natives:e.natives ~seed:1 e.program in
            Vm.stats run.Dejavu.vm)
      in
      let ic_stats, ic_t =
        best (fun () ->
            let vm = Vm.create ~natives:e.natives e.program in
            ignore (Baselines.Icount.attach_record vm);
            ignore (Vm.run vm);
            Vm.stats vm)
      in
      let rt =
        Baselines.Runner.roundtrip_icount ~natives:e.natives ~seed:1 e.program
      in
      Fmt.pr "%-16s %-12d %-14d %-8.1f %-10.4f %-10.4f %-10b@." name
        dv_stats.n_yield ic_stats.n_instr
        (float_of_int ic_stats.n_instr /. float_of_int (max 1 dv_stats.n_yield))
        dv_t ic_t
        (Baselines.Runner.ok rt))
    [ ("primes", entry "primes"); ("parsum", entry "parsum");
      ("racy-counter", entry "racy-counter") ]

(* ------------------------------------------------------------------- E9 *)

let e9 () =
  section "E9" "Ablations: scheduling quantum and thread-count scaling";
  Fmt.pr "-- quantum sweep (racy-counter, seed 1) --@.";
  Fmt.pr "%-10s %-12s %-12s %-12s %-10s@." "quantum" "switches" "trace bytes"
    "outcome" "replay ok";
  List.iter
    (fun quantum ->
      let config =
        {
          Vm.Rt.default_config with
          env_cfg = { Vm.Env.default_config with quantum; quantum_jitter = quantum / 8 };
        }
      in
      let e = entry "racy-counter" in
      let rt = Dejavu.verify_roundtrip ~config ~natives:e.natives ~seed:1 e.program in
      Fmt.pr "%-10d %-12d %-12d %-12s %-10b@." quantum
        (Dejavu.Trace.sizes rt.trace).n_switches
        (Dejavu.Trace.sizes rt.trace).total_bytes
        (String.trim rt.recorded.output)
        (Dejavu.ok rt))
    [ 1000; 2000; 4000; 8000; 16000 ];
  Fmt.pr "-- thread scaling (counter with t threads, 1200/t increments) --@.";
  Fmt.pr "%-10s %-12s %-12s %-12s %-10s@." "threads" "switches" "trace bytes"
    "outcome" "replay ok";
  List.iter
    (fun threads ->
      let p = Workloads.Counters.racy ~threads ~increments:(1200 / threads) () in
      let rt = Dejavu.verify_roundtrip ~seed:1 p in
      Fmt.pr "%-10d %-12d %-12d %-12s %-10b@." threads
        (Dejavu.Trace.sizes rt.trace).n_switches
        (Dejavu.Trace.sizes rt.trace).total_bytes
        (String.trim rt.recorded.output)
        (Dejavu.ok rt))
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ E10 *)

let e10 () =
  section "E10" "Checkpoint-accelerated time travel (extension; paper sec. 5)";
  let e = entry "racy-counter" in
  let _, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
  let open_session interval =
    Debugger.Session.start ~natives:e.natives ~checkpoint_interval:interval
      e.program trace
  in
  let with_ck = open_session 20_000 in
  let without_ck = open_session 0 in
  ignore (Debugger.Session.step with_ck 250_000);
  ignore (Debugger.Session.step without_ck 250_000);
  Fmt.pr "%-12s %-16s %-16s %-10s@." "goto step" "checkpointed s"
    "from-scratch s" "same state";
  List.iter
    (fun target ->
      let (), t_ck = time (fun () -> ignore (Debugger.Session.goto_step with_ck target)) in
      let (), t_raw =
        time (fun () -> ignore (Debugger.Session.goto_step without_ck target))
      in
      Fmt.pr "%-12d %-16.4f %-16.4f %-10b@." target t_ck t_raw
        (Debugger.Session.state_digest with_ck
        = Debugger.Session.state_digest without_ck))
    [ 240_000; 150_000; 60_000; 239_000; 5_000 ];
  Fmt.pr "checkpoints kept: %d; restores used: %d@."
    (List.length with_ck.checkpoints)
    with_ck.restores

(* ------------------------------------------------------------------ E11 *)

let e11 () =
  section "E11" "Symmetry ablation (negative control for section 2.4)";
  (* replay with one extra replay-side allocation before attaching: the
     event sequence and output still reproduce (the GC is transparent), but
     the machine states are no longer bit-identical — the property the
     paper's symmetric instrumentation exists to protect *)
  let e = entry "gc-churn" in
  let config = { Vm.Rt.default_config with heap_words = 6000 } in
  let rec_run, trace =
    Dejavu.record ~config ~natives:e.natives ~seed:3 e.program
  in
  let replay_with_extra_alloc n =
    let vm = Vm.create ~config ~natives:e.natives e.program in
    (* pinned = live, like a class loaded by one mode only *)
    if n > 0 then
      ignore (Vm.Heap.pin vm (Vm.Heap.alloc_array vm ~elem_ref:false ~len:n));
    ignore (Dejavu.Replayer.attach vm trace);
    let observer = Vm.Observer.attach_digest vm in
    ignore (Vm.run vm);
    (Vm.output vm, Vm.Observer.digest observer, Vm.digest vm)
  in
  Fmt.pr "%-26s %-10s %-10s %-12s@." "replay variant" "output" "events"
    "state";
  List.iter
    (fun (label, extra) ->
      let out, obs, st = replay_with_extra_alloc extra in
      Fmt.pr "%-26s %-10s %-10s %-12s@." label
        (if out = rec_run.Dejavu.output then "equal" else "DIFFER")
        (if obs = rec_run.Dejavu.obs_digest then "equal" else "DIFFER")
        (if st = rec_run.Dejavu.state_digest then "equal" else "DIFFER"))
    [ ("symmetric (DejaVu)", 0); ("asymmetric (+32w alloc)", 32);
      ("asymmetric (+1w alloc)", 1) ]

(* ------------------------------------------------------------------ E13 *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

(* Sustained-load serving: an open-loop multi-client driver against a live
   [dvrun serve] farm. Each client domain paces its submissions at a fixed
   arrival rate — independent of completions, so queueing delay shows up in
   the latency tail instead of throttling the offered load — and the
   reported p50/p99 are exact quantiles over server-side job latencies. *)
let serve_load ~shards ~clients ~per_client ~rate_hz =
  Server.Job.preload ();
  let tmp = Filename.get_temp_dir_name () in
  let sock = Filename.concat tmp (Fmt.str "dv-bench-%d.sock" (Unix.getpid ())) in
  let out_dir = Filename.concat tmp (Fmt.str "dv-bench-serve-%d" (Unix.getpid ())) in
  let srv = Server.Serve.create ~shards ~socket_path:sock ~out_dir () in
  let server = Domain.spawn (fun () -> Server.Serve.serve ~max_conns:clients srv) in
  let names = Array.of_list (Workloads.Registry.names ()) in
  let gap = 1. /. rate_hz in
  let t0 = Unix.gettimeofday () in
  let client i =
    Domain.spawn (fun () ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            for k = 0 to per_client - 1 do
              Server.Protocol.write_request oc
                (Server.Protocol.Submit
                   {
                     q_op = Server.Protocol.Op_record;
                     q_workload = names.(((i * 7) + k) mod Array.length names);
                     q_seed = 1;
                     q_trace = "";
                     q_deadline_ms = 0;
                   });
              flush oc;
              Unix.sleepf gap
            done;
            Server.Protocol.write_request oc Server.Protocol.Finish;
            let rec collect acc =
              match Server.Protocol.read_reply ic with
              | None -> List.rev acc
              | Some r -> collect (r :: acc)
            in
            collect []))
  in
  let doms = List.init clients client in
  let replies = List.concat_map Domain.join doms in
  let wall = Unix.gettimeofday () -. t0 in
  Server.Serve.shutdown srv;
  Domain.join server;
  rm_rf out_dir;
  let lats =
    List.map (fun (r : Server.Protocol.reply) -> r.p_latency_us) replies
  in
  let sorted = Array.of_list (List.sort compare lats) in
  let q p =
    if Array.length sorted = 0 then 0.
    else
      float_of_int
        sorted.(min
                  (Array.length sorted - 1)
                  (int_of_float (p *. float_of_int (Array.length sorted))))
      /. 1e3
  in
  let done_ =
    List.length
      (List.filter (fun (r : Server.Protocol.reply) -> r.p_outcome = 0) replies)
  in
  ( (if wall > 0. then float_of_int (List.length replies) /. wall else 0.),
    q 0.50,
    q 0.99,
    done_,
    List.length replies )

let e13 () =
  section "E13" "Sustained-load serving: open-loop multi-client driver";
  let jps, p50, p99, done_, total =
    serve_load ~shards:4 ~clients:3 ~per_client:21 ~rate_hz:400.
  in
  Fmt.pr
    "3 clients x 21 record jobs at 400 Hz offered, 4 shards:@\n\
     %d/%d done, %.1f jobs/s, p50 %.1f ms, p99 %.1f ms@."
    done_ total jps p50 p99

(* CI gate: the register tier must pay for itself, observed or not. Any
   workload long enough to time reliably (>= 200k instructions) must run
   at >= 0.95x of the stack tier's throughput both live and under the
   default, observed [Dejavu.record]. The observed recording must also
   retire exactly as many instructions in regions as the live run, so a
   change that sends observed runs back to the stack tier fails here even
   where the two tiers time alike. Tier identity (traces, digests, event
   sequences, cross-replay) is checked registry-wide by test_dispatch
   under dune runtest. *)
let regir_smoke () =
  section "regir-smoke" "register vs stack tier: live and record speed floor";
  let noregir = { Vm.Rt.default_config with Vm.Rt.regir = false } in
  let live config (e : Workloads.Registry.entry) =
    let vm, _ = Vm.execute ~config ~natives:e.natives ~seed:1 e.program in
    Vm.stats vm
  and record config (e : Workloads.Registry.entry) =
    let run, _ = Dejavu.record ~config ~natives:e.natives ~seed:1 e.program in
    Vm.stats run.Dejavu.vm
  in
  let failed = ref 0 in
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let live_regir = ref 0 in
      List.iter
        (fun (mode, f) ->
          (* median of 5 interleaved on/off pairs: adjacent runs share the
             host's load, and one lucky or unlucky run moves one pair only
             (a best-of-N per side let one fast stack-tier run fail the
             record floor on a noisy 2-CPU host) *)
          let stats = ref None and ratios = ref [] in
          for _ = 1 to 5 do
            let s, on_t = time (fun () -> f Vm.Rt.default_config e) in
            let _, off_t = time (fun () -> f noregir e) in
            stats := Some s;
            ratios := (if on_t > 0. then off_t /. on_t else 1.) :: !ratios
          done;
          let (s : Vm.Rt.stats) = Option.get !stats in
          if mode = "live" then live_regir := s.n_regir_instr;
          let speedup = List.nth (List.sort compare !ratios) 2 in
          let timed = s.n_instr >= 200_000 in
          let below = timed && speedup < 0.95 in
          let off_tier = s.n_regir_instr <> !live_regir in
          if below || off_tier then incr failed;
          Fmt.pr "%-24s %-7s %s@." e.name mode
            (if off_tier then
               Fmt.str "%.2fx TIER (regir %d, live run %d)" speedup
                 s.n_regir_instr !live_regir
             else if not timed then
               Fmt.str "%.2fx (untimed, %d instrs)" speedup s.n_instr
             else if below then Fmt.str "%.2fx SLOW (< 0.95x floor)" speedup
             else Fmt.str "%.2fx" speedup))
        [ ("live", live); ("record", record) ])
    (Lazy.force Workloads.Registry.all);
  Fmt.pr "%s@."
    (if !failed = 0 then "regir-smoke PASS" else "regir-smoke FAIL");
  if !failed > 0 then exit 1

(* ------------------------------------------------------------------ E14 *)

(* Systematic schedule exploration (lib/explore): search throughput, the
   DPOR pruning ratio against the unpruned bounded search, and time to
   the first fault. Wall-clock, not CPU time — a search is a sequence of
   whole-VM runs and the headline number a user waits on. *)
let wall_time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let explore_measure (e : Workloads.Registry.entry) =
  (* the audit behind the oracle is memoized; build it outside the timers *)
  ignore (Explore.Oracle.for_entry e);
  let on, t_on =
    wall_time (fun () -> Explore.Driver.run ~pb:2 ~db:1 ~dpor:true e)
  in
  let off, t_off =
    wall_time (fun () -> Explore.Driver.run ~pb:2 ~db:1 ~dpor:false e)
  in
  let _, t_first =
    wall_time (fun () ->
        Explore.Driver.run ~pb:2 ~db:1 ~dpor:true ~stop_on_failure:true e)
  in
  (on, t_on, off, t_off, t_first)

let cut_ratio (on : Explore.Driver.report) (off : Explore.Driver.report) =
  1.
  -. float_of_int on.Explore.Driver.rp_explored
     /. float_of_int (max 1 off.Explore.Driver.rp_explored)

let e14 () =
  section "E14" "Systematic schedule exploration: DPOR vs unpruned search";
  List.iter
    (fun name ->
      let on, t_on, off, t_off, t_first = explore_measure (entry name) in
      Fmt.pr
        "%-12s dpor %4d schedules (%5d pruned) %.2fs | unpruned %4d %.2fs \
         (%.0f%% cut) | first fault #%s in %.0f ms, outcomes %d vs %d@."
        name on.Explore.Driver.rp_explored on.Explore.Driver.rp_pruned t_on
        off.Explore.Driver.rp_explored t_off
        (100. *. cut_ratio on off)
        (match on.Explore.Driver.rp_first_failure_at with
        | Some k -> string_of_int k
        | None -> "-")
        (t_first *. 1e3)
        (List.length on.Explore.Driver.rp_digests)
        (List.length off.Explore.Driver.rp_digests))
    [ "atomicity"; "lock-cycle" ]

(* -------------------------------------------------------------- driver *)

let all : (string * string * (unit -> unit)) list =
  [
    ("E1", "figure 1 A/B", e1);
    ("E2", "figure 1 C/D", e2);
    ("E3", "figure 2 symmetry", e3);
    ("E4", "remote reflection", e4);
    ("E5", "replay accuracy", e5);
    ("E7", "trace size", e7);
    ("E8", "instruction counting", e8);
    ("E9", "ablations", e9);
    ("E10", "time travel", e10);
    ("E11", "symmetry ablation", e11);
    ("E13", "sustained-load serving (open-loop clients)", e13);
    ("E14", "systematic schedule exploration (DPOR vs unpruned)", e14);
    ("regir-smoke", "CI: register-tier live and record speed floor",
     regir_smoke);
  ]

let () =
  let want = match Array.to_list Sys.argv with _ :: rest -> rest | [] -> [] in
  let selected =
    if want = [] then
      List.filter (fun (id, _, _) -> id <> "regir-smoke") all
    else List.filter (fun (id, _, _) -> List.mem id want) all
  in
  if selected = [] then begin
    Fmt.epr "unknown experiment; available: %s@."
      (String.concat " " (List.map (fun (id, _, _) -> id) all));
    exit 2
  end;
  Fmt.pr "DejaVu reproduction experiments (see DESIGN.md section 4)@.";
  List.iter (fun (_, _, f) -> f ()) selected
