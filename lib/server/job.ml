(* The jobs a farm shard knows how to run: record, replay, roundtrip and
   lint (schedule exploration runs on Explore_farm's own dispatcher, not as
   a job kind). Each runs one VM to completion in fuel-bounded slices,
   polling [ctx.should_stop] between slices so cancellation and deadlines
   take effect mid-program. Record and replay
   jobs go through the same cores as [Dejavu.record_to]/[replay_from]:
   [Dejavu.record_into], the file-record bracket, never leaves a partial
   trace file behind (one temp file, a spill file only past 64 KiB per
   stream, atomic rename; aborted on any exception), and
   [Dejavu.replay_guard] turns a rejected trace or a divergence into a
   [Fatal] status.

   Two ways to get the VM: cold — [Vm.create] per job, the original farm
   behaviour and still the reference the warm path is tested against — or
   warm, from a shard's {!Warm} pool, which resets a persistent VM to its
   baseline snapshot instead of re-booting. [runner] packages the warm
   path: per-shard pools (never shared across domains) and the placement
   policy the dispatcher routes submissions with. *)

module Trace = Dejavu.Trace
module Replayer = Dejavu.Replayer

type spec =
  | Record of { workload : string; seed : int; out : string }
  | Replay of { workload : string; trace : string }
  | Roundtrip of { workload : string; seed : int }
  | Lint of { workload : string }

type output = {
  o_status : string; (* final VM status ("ok" for lint) *)
  o_digest : string; (* hex: trace file / VM state / analysis summary *)
  o_words : int; (* trace words written / leftovers / racy findings *)
  o_children : int array list;
  o_pruned : int;
  o_flags : int;
      (* o_children, o_pruned and o_flags are always [], 0 and 0: no job
         kind fans out. Kept only so the frozen perfbench harness, which
         builds [output] literals, still compiles *)
}

let describe = function
  | Record { workload; _ } -> "record:" ^ workload
  | Replay { workload; _ } -> "replay:" ^ workload
  | Roundtrip { workload; _ } -> "roundtrip:" ^ workload
  | Lint { workload } -> "lint:" ^ workload

let workload_of = function
  | Record { workload; _ }
  | Replay { workload; _ }
  | Roundtrip { workload; _ }
  | Lint { workload } ->
    workload

(* Force every lazily-built structure a job touches BEFORE spawning shard
   domains: [Registry.all] is a plain [Lazy.t], and two domains forcing it
   concurrently would race. Called once by batch/serve setup. *)
let preload () = ignore (Lazy.force Workloads.Registry.all)

let find workload =
  match Workloads.Registry.find workload with
  | Some e -> e
  | None -> failwith ("unknown workload " ^ workload)

(* The replay side always runs under one fixed seed: every environment
   reading comes from the trace, so the seed is inert — but keeping it
   constant makes warm replay VMs trivially baseline-compatible. *)
let replay_seed = 424242

(* A VM for the job: reset from the shard pool's baseline when one is
   supplied, booted from scratch otherwise. The two are state-identical by
   the warm-reset parity contract (tested registry-wide). *)
let boot_vm ?pool ~config (e : Workloads.Registry.entry) ~seed =
  match pool with
  | Some p -> Warm.acquire p e ~seed
  | None ->
    let config = Dejavu.with_seed seed config in
    Vm.create ~config ~natives:e.natives e.program

(* Run the VM to completion in [slice]-instruction hops, checking for
   cancellation/deadline between hops and enforcing the config's overall
   instruction limit (run_slice itself never goes Fatal on budget). *)
let drive ~slice (ctx : Dispatcher.ctx) (vm : Vm.t) =
  let limit = vm.Vm.Rt.cfg.Vm.Rt.instr_limit in
  let rec go () =
    ctx.Dispatcher.should_stop ();
    let fuel = min slice (limit - vm.Vm.Rt.stats.Vm.Rt.n_instr) in
    match Vm.run_slice ~fuel vm with
    | Vm.Rt.Running_ ->
      if vm.Vm.Rt.stats.Vm.Rt.n_instr >= limit then
        vm.Vm.Rt.status <-
          Vm.Rt.Fatal (Fmt.str "instruction limit (%d) exceeded" limit)
      else go ()
    | _ -> ()
  in
  go ()

let state_digest_hex vm = Fmt.str "%016x" (Vm.digest vm land max_int)

let simple ~status ~digest ~words =
  {
    o_status = status;
    o_digest = digest;
    o_words = words;
    o_children = [];
    o_pruned = 0;
    o_flags = 0;
  }

(* Streamed record through the one file-record bracket; returns the
   finished VM too so roundtrip can compare states without recording
   twice. *)
let record_impl ~slice ~config ?pool ctx (e : Workloads.Registry.entry) ~seed
    ~out =
  let vm = boot_vm ?pool ~config e ~seed in
  let status, sizes =
    Dejavu.record_into vm (Trace.Writer.create out) (fun _ ->
        drive ~slice ctx vm;
        Vm.string_of_status (Vm.status vm))
  in
  ( simple ~status
      ~digest:(Digest.to_hex (Digest.file out))
      ~words:sizes.Trace.total_words,
    vm )

(* Streamed replay through the one replay guard; returns the replayed VM's
   status too, so roundtrip judges it by its type. A rejected trace
   reports no digest and no leftovers. *)
let replay_impl ~slice ~config ?pool ctx (e : Workloads.Registry.entry)
    ~trace =
  let vm = boot_vm ?pool ~config e ~seed:replay_seed in
  let reader = Trace.Reader.open_file trace in
  let session, leftovers =
    Fun.protect
      ~finally:(fun () -> Trace.Reader.close reader)
      (fun () ->
        Dejavu.replay_guard vm
          ~attach:(fun () -> Replayer.attach_stream vm reader)
          ~drive:(fun () -> drive ~slice ctx vm))
  in
  let status = Vm.string_of_status (Vm.status vm) in
  let out =
    match session with
    | None -> simple ~status ~digest:"" ~words:0
    | Some _ ->
      simple ~status ~digest:(state_digest_hex vm)
        ~words:(List.length leftovers)
  in
  (out, Vm.status vm)

(* Record to a shard-private temp file, replay it back, compare states.
   The temp file never outlives the job. The recorded VM's digest is taken
   BEFORE the replay runs: under warm reuse both halves draw from the same
   pool slot, so starting the replay resets the recorded VM. *)
let run_roundtrip ~slice ~config ?pool ctx (e : Workloads.Registry.entry)
    ~seed =
  let tmp = Filename.temp_file "dvfarm" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let recorded, rec_vm =
        record_impl ~slice ~config ?pool ctx e ~seed ~out:tmp
      in
      let rec_vm_digest = state_digest_hex rec_vm in
      let replayed, status =
        replay_impl ~slice ~config ?pool ctx e ~trace:tmp
      in
      let ok =
        replayed.o_words = 0
        && String.equal rec_vm_digest replayed.o_digest
        && match status with Vm.Rt.Fatal _ -> false | _ -> true
      in
      simple
        ~status:(if ok then "ok" else "mismatch")
        ~digest:recorded.o_digest ~words:recorded.o_words)

let run_lint (e : Workloads.Registry.entry) =
  let r = Analysis.run ~name:e.name e.program in
  simple ~status:"ok" ~digest:r.Analysis.Report.summary_hash
    ~words:(List.length (Analysis.Report.racy_keys r))

let dispatch ~slice ~config ?pool (ctx : Dispatcher.ctx) (spec : spec) :
    output =
  match spec with
  | Record { workload; seed; out } ->
    fst (record_impl ~slice ~config ?pool ctx (find workload) ~seed ~out)
  | Replay { workload; trace } ->
    fst (replay_impl ~slice ~config ?pool ctx (find workload) ~trace)
  | Roundtrip { workload; seed } ->
    run_roundtrip ~slice ~config ?pool ctx (find workload) ~seed
  | Lint { workload } -> run_lint (find workload)

(* Cold entry point: one fresh VM per job. Still the reference semantics —
   the warm runner below must be indistinguishable from it. *)
let run ?(slice = 50_000) ?(config = Vm.Rt.default_config)
    (ctx : Dispatcher.ctx) (spec : spec) : output =
  dispatch ~slice ~config ctx spec

(* --- the warm runner: pools + placement --- *)

type runner = {
  run : Dispatcher.ctx -> spec -> output;
  place : spec -> Dispatcher.place;
  warm_stats : unit -> Warm.stats; (* all shards folded; call after join *)
}

(* Placement: two rules. Lint jobs run no VM, so warm affinity buys them
   nothing: they go to the shared queue, where any idle shard picks them
   up. Record, Replay and Roundtrip jobs are pinned to their workload's
   affinity shard from the first run on, so the VM booted for a workload's
   first job is the VM every repeat job finds warm. *)
let place_policy ~shards (spec : spec) : Dispatcher.place =
  match spec with
  | Lint _ -> Dispatcher.Shared
  | Record _ | Replay _ | Roundtrip _ ->
    Dispatcher.Shard (Hashtbl.hash (workload_of spec) mod shards)

let runner ?(slice = 50_000) ?(config = Vm.Rt.default_config) ?stats ~shards
    () : runner =
  if shards < 1 then invalid_arg "Job.runner: shards < 1";
  let note ~hit =
    match stats with None -> () | Some s -> Stats.on_warm s ~hit
  in
  let pools = Array.init shards (fun _ -> Warm.create ~config ~note ()) in
  let run (ctx : Dispatcher.ctx) spec =
    dispatch ~slice ~config ~pool:pools.(ctx.Dispatcher.shard) ctx spec
  in
  {
    run;
    place = place_policy ~shards;
    warm_stats =
      (fun () ->
        Array.fold_left
          (fun acc p -> Warm.merge acc (Warm.stats p))
          Warm.zero pools);
  }

(* Keeps the explorer linked into every program that links the farm's
   jobs, as it was while exploration was a job kind. perfbench scales its
   set-up time by an add loop whose speed depends on the loop's code
   address; unlinking these three modules moved that loop by 16 bytes and
   made it run 1.7x faster, so set-up read 1.5x slower with the same work.
   Drop this once the set-up scaler no longer depends on code layout. *)
let _ : Explore.Driver.runner = Sys.opaque_identity Explore.Driver.in_process
