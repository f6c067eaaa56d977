(* Warm-VM reuse: the parity contract (a baseline-reset VM is
   indistinguishable from a cold boot — traces and digests byte-identical,
   registry-wide), the pool's LRU accounting, the placement policy, and
   two dispatcher rules: a failing job runs once and stalls nobody queued
   behind it, and an entry whose deadline has passed at dequeue completes
   as Timed_out without ever touching a VM. *)

module D = Server.Dispatcher

let quick name f = Alcotest.test_case name `Quick f

let all () = Lazy.force Workloads.Registry.all

let find name =
  match Workloads.Registry.find name with
  | Some e -> e
  | None -> Alcotest.fail ("workload missing: " ^ name)

let seeded seed =
  {
    Vm.Rt.default_config with
    Vm.Rt.env_cfg = { Vm.Rt.default_config.Vm.Rt.env_cfg with Vm.Env.seed };
  }

let noctx = { D.shard = 0; seq = 0; should_stop = (fun () -> ()) }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "dvwarm-%d-%.0f" (Unix.getpid ()) (Unix.gettimeofday () *. 1e6))
  in
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

(* --- Vm.reset parity ----------------------------------------------------- *)

(* Boot, snapshot, dirty the VM by running it to completion, then reset
   under a different seed: the reset VM must be indistinguishable from a
   fresh boot under that seed, both at rest (state digest, stats) and
   through a full run (status, output, digest, instruction count). This
   pins every per-job mutation the reset must undo: heap, threads, PRNG
   position, compiled methods, stats, observer hooks. *)
let test_reset_equals_cold () =
  List.iter
    (fun name ->
      let e = find name in
      let vm = Vm.create ~config:(seeded 1) ~natives:e.natives e.program in
      let baseline = Vm.Snapshot.save vm in
      ignore (Vm.run vm);
      Vm.reset ~seed:5 vm baseline;
      let cold = Vm.create ~config:(seeded 5) ~natives:e.natives e.program in
      let ctx = name ^ ": " in
      Alcotest.(check int)
        (ctx ^ "digest at rest")
        (Vm.digest cold) (Vm.digest vm);
      Alcotest.(check int)
        (ctx ^ "stats reset")
        (Vm.stats cold).Vm.Rt.n_instr (Vm.stats vm).Vm.Rt.n_instr;
      ignore (Vm.run vm);
      ignore (Vm.run cold);
      Alcotest.(check string)
        (ctx ^ "status")
        (Vm.string_of_status (Vm.status cold))
        (Vm.string_of_status (Vm.status vm));
      Alcotest.(check string) (ctx ^ "output") (Vm.output cold) (Vm.output vm);
      Alcotest.(check int) (ctx ^ "digest") (Vm.digest cold) (Vm.digest vm);
      Alcotest.(check int)
        (ctx ^ "instructions")
        (Vm.stats cold).Vm.Rt.n_instr (Vm.stats vm).Vm.Rt.n_instr)
    [ "fig1ab"; "producer-consumer"; "native"; "webserver" ]

(* --- register-tier rollback ---------------------------------------------- *)

let compiled_methods (vm : Vm.t) =
  Array.fold_left
    (fun n (m : Vm.Rt.rmethod) ->
      if m.Vm.Rt.rm_compiled <> None then n + 1 else n)
    0 vm.Vm.Rt.methods

let region_count (vm : Vm.t) =
  Array.fold_left
    (fun n (m : Vm.Rt.rmethod) ->
      match m.Vm.Rt.rm_compiled with
      | Some c ->
        Array.fold_left
          (fun n r -> if r <> None then n + 1 else n)
          n c.Vm.Rt.k_regions
      | None -> n)
    0 vm.Vm.Rt.methods

(* Snapshot rollback un-compiles the register tier with the method:
   [k_regions] lives inside [compiled], so restoring [rm_compiled] drops
   the regions and the reset VM re-lowers (re-paying the compile clock
   charge) on the next run — which must reproduce the first run exactly,
   register coverage included. *)
let test_reset_rolls_back_register_tier () =
  let e = find "primes" in
  let vm = Vm.create ~config:(seeded 1) ~natives:e.natives e.program in
  let baseline = Vm.Snapshot.save vm in
  let base_compiled = compiled_methods vm in
  ignore (Vm.run vm);
  let out1 = Vm.output vm in
  let dig1 = Vm.digest vm in
  let n1 = (Vm.stats vm).Vm.Rt.n_instr in
  let ri1 = (Vm.stats vm).Vm.Rt.n_regir_instr in
  Alcotest.(check bool) "run tiered up" true (region_count vm > 0 && ri1 > 0);
  Vm.reset ~seed:1 vm baseline;
  Alcotest.(check int) "rollback un-compiled the methods" base_compiled
    (compiled_methods vm);
  Alcotest.(check int) "no regions survive the rollback" 0 (region_count vm);
  Alcotest.(check int) "regir counter reset" 0
    (Vm.stats vm).Vm.Rt.n_regir_instr;
  let cold = Vm.create ~config:(seeded 1) ~natives:e.natives e.program in
  Alcotest.(check int) "digest at rest = cold boot" (Vm.digest cold)
    (Vm.digest vm);
  ignore (Vm.run vm);
  Alcotest.(check string) "re-run output" out1 (Vm.output vm);
  Alcotest.(check int) "re-run digest" dig1 (Vm.digest vm);
  Alcotest.(check int) "re-run instructions" n1 (Vm.stats vm).Vm.Rt.n_instr;
  Alcotest.(check int) "re-run register coverage" ri1
    (Vm.stats vm).Vm.Rt.n_regir_instr

(* The same contract through the pool: back-to-back acquires of a
   workload reuse one VM across tier-up (second acquire is a baseline
   reset, not a boot) and both runs are identical. *)
let test_warm_reuse_across_tierup () =
  let pool = Server.Warm.create () in
  let e = find "primes" in
  let vm1 = Server.Warm.acquire pool e ~seed:1 in
  ignore (Vm.run vm1);
  let out1 = Vm.output vm1 in
  let dig1 = Vm.digest vm1 in
  let ri1 = (Vm.stats vm1).Vm.Rt.n_regir_instr in
  Alcotest.(check bool) "first run tiered up" true (ri1 > 0);
  let vm2 = Server.Warm.acquire pool e ~seed:1 in
  Alcotest.(check int) "reset regir counter" 0
    (Vm.stats vm2).Vm.Rt.n_regir_instr;
  Alcotest.(check int) "reset dropped the regions" 0 (region_count vm2);
  ignore (Vm.run vm2);
  Alcotest.(check string) "warm output" out1 (Vm.output vm2);
  Alcotest.(check int) "warm digest" dig1 (Vm.digest vm2);
  Alcotest.(check int) "warm register coverage" ri1
    (Vm.stats vm2).Vm.Rt.n_regir_instr;
  let s = Server.Warm.stats pool in
  Alcotest.(check int) "one boot" 1 s.Server.Warm.w_misses;
  Alcotest.(check int) "one reset" 1 s.Server.Warm.w_hits

(* --- Warm pool accounting ------------------------------------------------ *)

let test_pool_counters_and_lru () =
  let pool = Server.Warm.create ~cap:2 () in
  let acquire name = ignore (Server.Warm.acquire pool (find name) ~seed:1) in
  acquire "fig1ab"; (* miss: boot *)
  acquire "fig1ab"; (* hit: reset *)
  acquire "bank"; (* miss *)
  acquire "primes"; (* miss; cap 2 -> evicts fig1ab (LRU) *)
  acquire "fig1ab" (* miss again: it was evicted *);
  let s = Server.Warm.stats pool in
  Alcotest.(check int) "hits" 1 s.Server.Warm.w_hits;
  Alcotest.(check int) "misses" 4 s.Server.Warm.w_misses;
  Alcotest.(check int) "evictions" 2 s.Server.Warm.w_evictions;
  Alcotest.(check int) "resident" 2 s.Server.Warm.w_resident

(* --- warm vs cold identity, registry-wide (the parity contract) ---------- *)

(* For every catalogued workload: a cold record, two back-to-back warm
   records (the second is a baseline reset), and a warm record under a
   different seed after the pool slot ran other seeds — trace bytes and
   digests all equal their cold twins. This is the contract that makes
   warm reuse admissible at all. *)
let test_warm_cold_identity_registry () =
  with_tmp_dir (fun dir ->
      let r = Server.Job.runner ~shards:1 () in
      let record run name seed out =
        match
          run noctx
            (Server.Job.Record
               { workload = name; seed; out = Filename.concat dir out })
        with
        | (o : Server.Job.output) -> o
      in
      List.iter
        (fun (e : Workloads.Registry.entry) ->
          let cold = record (Server.Job.run ?slice:None) e.name 1 "cold.trace" in
          let warm1 = record r.Server.Job.run e.name 1 "warm1.trace" in
          let warm2 = record r.Server.Job.run e.name 1 "warm2.trace" in
          let ctx = e.name ^ ": " in
          Alcotest.(check string)
            (ctx ^ "warm trace digest") cold.Server.Job.o_digest
            warm1.Server.Job.o_digest;
          Alcotest.(check string)
            (ctx ^ "reset trace digest") cold.Server.Job.o_digest
            warm2.Server.Job.o_digest;
          Alcotest.(check string)
            (ctx ^ "status") cold.Server.Job.o_status warm2.Server.Job.o_status;
          Alcotest.(check int)
            (ctx ^ "words") cold.Server.Job.o_words warm2.Server.Job.o_words;
          let bytes = read_file (Filename.concat dir "cold.trace") in
          Alcotest.(check bool)
            (ctx ^ "trace bytes equal")
            true
            (String.equal bytes (read_file (Filename.concat dir "warm1.trace"))
            && String.equal bytes (read_file (Filename.concat dir "warm2.trace")));
          (* a different seed through the now-well-used pool slot *)
          let cold9 = record (Server.Job.run ?slice:None) e.name 9 "cold9.trace" in
          let warm9 = record r.Server.Job.run e.name 9 "warm9.trace" in
          Alcotest.(check string)
            (ctx ^ "seed-9 digest") cold9.Server.Job.o_digest
            warm9.Server.Job.o_digest;
          Alcotest.(check bool)
            (ctx ^ "seed-9 bytes")
            true
            (String.equal
               (read_file (Filename.concat dir "cold9.trace"))
               (read_file (Filename.concat dir "warm9.trace"))))
        (all ());
      let s = r.Server.Job.warm_stats () in
      Alcotest.(check int)
        "every workload booted once"
        (List.length (all ()))
        s.Server.Warm.w_misses;
      Alcotest.(check int)
        "every later record was a reset"
        (2 * List.length (all ()))
        s.Server.Warm.w_hits)

(* A job abandoned mid-run (cancelled at a poll point) leaves its pool VM
   mid-program; the next acquire must still produce a cold-identical
   record. *)
let test_warm_after_cancelled_job () =
  with_tmp_dir (fun dir ->
      let e = find "producer-consumer" in
      let slice = 50 in
      let r = Server.Job.runner ~slice ~shards:1 () in
      let polls = ref 0 in
      let cancel_ctx =
        {
          D.shard = 0;
          seq = 0;
          should_stop =
            (fun () ->
              incr polls;
              if !polls > 2 then raise D.Cancelled);
        }
      in
      let spec out =
        Server.Job.Record
          { workload = e.name; seed = 1; out = Filename.concat dir out }
      in
      (match r.Server.Job.run cancel_ctx (spec "aborted.trace") with
      | exception D.Cancelled -> ()
      | _ -> Alcotest.fail "job was not cancelled");
      Alcotest.(check bool)
        "aborted job left no trace file" false
        (Sys.file_exists (Filename.concat dir "aborted.trace"));
      let warm = r.Server.Job.run noctx (spec "after.trace") in
      let cold = Server.Job.run ~slice noctx (spec "cold.trace") in
      Alcotest.(check string) "digest after abandoned predecessor"
        cold.Server.Job.o_digest warm.Server.Job.o_digest;
      Alcotest.(check bool) "bytes equal" true
        (String.equal
           (read_file (Filename.concat dir "cold.trace"))
           (read_file (Filename.concat dir "after.trace"))))

(* --- placement policy ---------------------------------------------------- *)

let place_testable =
  Alcotest.testable
    (fun ppf -> function
      | D.Shared -> Fmt.pf ppf "Shared"
      | D.Shard i -> Fmt.pf ppf "Shard %d" i)
    ( = )

let test_placement_policy () =
  let r = Server.Job.runner ~shards:4 () in
  let record w = Server.Job.Record { workload = w; seed = 1; out = "/dev/null" } in
  Alcotest.check place_testable "lint is shared" D.Shared
    (r.Server.Job.place (Server.Job.Lint { workload = "fig1ab" }));
  let affinity = D.Shard (Hashtbl.hash "fig1ab" mod 4) in
  Alcotest.check place_testable "record pins to affinity" affinity
    (r.Server.Job.place (record "fig1ab"));
  Alcotest.check place_testable "same affinity across ops" affinity
    (r.Server.Job.place
       (Server.Job.Replay { workload = "fig1ab"; trace = "x" }));
  Alcotest.check place_testable "roundtrip shares it" affinity
    (r.Server.Job.place
       (Server.Job.Roundtrip { workload = "fig1ab"; seed = 2 }))

(* --- dispatcher: scheduling rules ---------------------------------------- *)

(* A failure is final: a job is a pure function of its spec and inputs, so
   the dispatcher calls a raising [run] exactly once and reports Failed
   with one attempt. On ONE shard, the jobs queued behind it all still run
   to Done — a failing job stalls nobody. *)
let test_failure_is_final () =
  let calls = Atomic.make 0 in
  let d =
    D.create ~shards:1
      ~run:(fun _ctx fail ->
        if fail then begin
          Atomic.incr calls;
          failwith "boom"
        end)
      ()
  in
  ignore (D.submit d true);
  for _ = 1 to 5 do
    ignore (D.submit d false)
  done;
  match D.drain d with
  | failing :: rest ->
    Alcotest.(check int) "run called once" 1 (Atomic.get calls);
    (match failing.D.r_outcome with
    | D.Failed msg ->
      Alcotest.(check string) "failure message"
        (Printexc.to_string (Failure "boom"))
        msg
    | _ -> Alcotest.fail "raising job should report Failed");
    Alcotest.(check int) "one attempt" 1 failing.D.r_attempts;
    Alcotest.(check int) "five jobs behind it" 5 (List.length rest);
    List.iter
      (fun r ->
        match r.D.r_outcome with
        | D.Done () -> ()
        | _ -> Alcotest.fail "job behind the failure did not complete")
      rest
  | [] -> Alcotest.fail "no results"

(* An entry whose deadline passed while it sat in the queue completes as
   Timed_out with zero attempts — the run function (and so any VM) is
   never touched. *)
let test_deadline_expired_at_dequeue () =
  let ran = ref false in
  let d = D.create ~shards:1 ~run:(fun _ctx () -> ran := true) () in
  ignore (D.submit d ~deadline:(Unix.gettimeofday () -. 1.) ());
  (match D.drain d with
  | [ r ] ->
    (match r.D.r_outcome with
    | D.Timed_out -> ()
    | _ -> Alcotest.fail "expected Timed_out");
    Alcotest.(check int) "never attempted" 0 r.D.r_attempts
  | _ -> Alcotest.fail "expected 1 result");
  Alcotest.(check bool) "run fn never invoked" false !ran

(* --- batch: warm vs cold aggregate --------------------------------------- *)

let batch_specs out_dir =
  List.concat_map
    (fun name ->
      List.map
        (fun i ->
          Server.Job.Record
            {
              workload = name;
              seed = 1;
              out = Filename.concat out_dir (Fmt.str "%s-%d.trace" name i);
            })
        [ 0; 1 ])
    [ "fig1ab"; "racy-counter"; "bank"; "primes"; "native" ]
  @ [ Server.Job.Roundtrip { workload = "synced-counter"; seed = 3 } ]

let test_batch_warm_equals_cold () =
  with_tmp_dir (fun dc ->
      with_tmp_dir (fun dw ->
          let cold = Server.Batch.run_specs ~warm:false (batch_specs dc) in
          let warm = Server.Batch.run_specs ~shards:4 (batch_specs dw) in
          Alcotest.(check bool) "cold ok" true cold.Server.Batch.ok;
          Alcotest.(check bool) "warm ok" true warm.Server.Batch.ok;
          Alcotest.(check string) "aggregate digest warm = cold"
            cold.Server.Batch.aggregate warm.Server.Batch.aggregate;
          Alcotest.(check bool) "cold ran no pools" true
            (cold.Server.Batch.warm = Server.Warm.zero);
          let w = warm.Server.Batch.warm in
          Alcotest.(check bool)
            (Fmt.str "warm run reset VMs (%d hits)" w.Server.Warm.w_hits)
            true
            (w.Server.Warm.w_hits >= 1)))

let () =
  Alcotest.run "warm"
    [
      ("vm", [ quick "reset equals cold boot" test_reset_equals_cold ]);
      ( "regir",
        [
          quick "reset rolls back the register tier"
            test_reset_rolls_back_register_tier;
          quick "warm reuse across tier-up" test_warm_reuse_across_tierup;
        ] );
      ("pool", [ quick "counters and LRU" test_pool_counters_and_lru ]);
      ( "identity",
        [
          quick "registry-wide warm = cold" test_warm_cold_identity_registry;
          quick "after a cancelled job" test_warm_after_cancelled_job;
        ] );
      ("placement", [ quick "policy" test_placement_policy ]);
      ( "dispatcher",
        [
          quick "failure is final" test_failure_is_final;
          quick "deadline expired at dequeue" test_deadline_expired_at_dequeue;
        ] );
      ("batch", [ quick "warm aggregate = cold" test_batch_warm_equals_cold ]);
    ]
