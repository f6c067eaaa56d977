(* End-to-end benchmark for record, replay and the replay farm.

   dvbench --workload W --seed N --seconds S --trace 0|1 [--setup-only]

   Three closed-loop workloads (see NOTES.md for why each exists):
   - compute-long: one caller cycles live -> record_to -> replay_from over
     compute programs; the instruction path does nearly all the work.
   - event-dense: the same cycle over programs whose traces are 10-300x
     denser, so the record/replay hooks and the trace codec carry the load.
   - farm-mixed: two callers keep at most two Record/Replay/Lint jobs
     outstanding on a one-shard warm farm over the whole registry.

   The last line of stdout is one JSON object: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1. Every output is checked
   (replay against its own recording, farm jobs against cold references);
   a mismatch or exception is a failed operation and is never timed. *)

module Job = Server.Job
module Dispatcher = Server.Dispatcher
module Trace = Dejavu.Trace

let now = Unix.gettimeofday

let ms s = 1e3 *. s

(* ------------------------------------------------------------ arguments *)

type workload = Compute_long | Event_dense | Farm_mixed

let workloads =
  [ ("compute-long", Compute_long); ("event-dense", Event_dense); ("farm-mixed", Farm_mixed) ]

let workload_of_string w =
  match List.assoc_opt w workloads with
  | Some wl -> wl
  | None -> failwith ("unknown workload " ^ w)

let string_of_workload wl = fst (List.find (fun (_, w) -> w = wl) workloads)

type args = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  setup_only : bool;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and setup_only = ref false in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        " compute-long | event-dense | farm-mixed" );
      ("--seed", Arg.Set_int seed, " seed every generated input derives from");
      ("--seconds", Arg.Set_float seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 1 = traced run printing per-layer metrics");
      ("--setup-only", Arg.Set setup_only, " time the set-up alone and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "dvbench --workload W --seed N --seconds S --trace 0|1";
  if !seconds <= 0. then failwith "--seconds must be positive";
  {
    workload = workload_of_string !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    setup_only = !setup_only;
  }

(* ------------------------------------------------------------- programs *)

type prog = {
  name : string;
  program : Bytecode.Decl.program;
  natives : Vm.Native.spec list;
  config : Vm.Rt.config;
}

let default = Vm.Rt.default_config

(* A semispace small enough that gc-churn collects several times per run
   (the default heap never fills at this size). *)
let small_heap = { default with Vm.Rt.heap_words = 1 lsl 15 }

(* Sized so one live/record/replay takes ~5-15 ms: long enough that the
   instruction path dominates fixed costs, short enough that a run completes
   the 1000+ operations an honest p99 needs. *)
let prog ?(natives = []) ?(config = default) name program =
  { name; program; natives; config }

let compute_long () =
  let open Workloads in
  [
    prog "primes" (Compute.primes ~n:6000 ());
    prog "parsum" (Compute.parsum ~threads:4 ~size:30000 ());
    prog "mergesort" (Sorting.program ~size:512 ());
    prog "gc-churn" ~config:small_heap (Gc_churn.program ~rounds:60 ());
  ]

let event_dense () =
  let open Workloads in
  [
    prog "bank" (Bank.program ~transfers:4000 ());
    prog "timed" (Timed.program ~rounds:2000 ());
    prog "native" ~natives:Native_demo.natives (Native_demo.program ~rounds:4000 ());
    prog "webserver" (Webserver.program ~requests:3000 ());
    prog "producer-consumer" (Producer_consumer.program ~items:2000 ());
  ]

(* Farm jobs name their program by registry entry, so the farm runs the
   registry's own sizes. *)
let registry_entries names =
  List.map
    (fun n ->
      match Workloads.Registry.find n with
      | Some e -> e
      | None -> failwith ("registry has no " ^ n))
    names

let prog_of_entry (e : Workloads.Registry.entry) =
  prog e.name ~natives:e.natives e.program

let seed_for base name k = (Hashtbl.hash (base, name, k) land 0x3fffffff) + 1

(* ------------------------------------------------------------ work area *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Trace files live under the checkout, never in a system temp dir. *)
let work_dir =
  lazy
    (let top = ".bench_work" in
     if not (Sys.file_exists top) then Sys.mkdir top 0o755;
     let d = Filename.concat top (string_of_int (Unix.getpid ())) in
     rm_rf d;
     Sys.mkdir d 0o755;
     at_exit (fun () ->
         rm_rf d;
         try Sys.rmdir top with Sys_error _ -> ());
     d)

let work_path f = Filename.concat (Lazy.force work_dir) f

(* ------------------------------------------------------------ host probe *)

(* A fixed 20M-add loop, timed before and after every run: an ungated
   diagnostic that makes a slow host phase visible in the output. *)
let host_spin_ms () =
  let spin () =
    let r = ref 0 in
    for i = 1 to 20_000_000 do
      r := !r + (i land 7)
    done;
    !r
  in
  let samples =
    List.init 5 (fun _ ->
        let t0 = now () in
        ignore (Sys.opaque_identity (spin ()));
        ms (now () -. t0))
  in
  Stat.quantile (Stat.sorted_of_list samples) 0.5

(* The add loop's time in a fast phase of the 2-vCPU VM the benchmark was
   tuned on (NOTES.md, Host drift): the host speed [setup_s] is scaled to. *)
let reference_spin_ms = 13.0

let peak_rss_mb () =
  let from_proc =
    try
      let ic = open_in "/proc/self/status" in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                  Some (float_of_int kb /. 1024.))
            | _ -> go ()
            | exception End_of_file -> None
          in
          go ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* --------------------------------------------------------------- tracing *)

(* Spans recorded from the benchmark's own files around calls into each
   layer; kept in memory and written out at exit. Main domain only: farm
   service spans are stamped on the shard and added after the result
   arrives. *)
type tracer = {
  mutable spans : Stat.span list;
  mutable next_id : int;
  mutable current : int;
  mutable job : int;
  job_prog : (int, string) Hashtbl.t; (* the program each job ran *)
}

let tracer () =
  { spans = []; next_id = 0; current = -1; job = 0; job_prog = Hashtbl.create 1024 }

(* Start the spans of a new job, running [prog]. *)
let new_job tr prog =
  tr.job <- tr.job + 1;
  Hashtbl.replace tr.job_prog tr.job prog;
  tr.job

let add_span tr ~name ~parent ~job start stop =
  let id = tr.next_id in
  tr.next_id <- id + 1;
  tr.spans <- { Stat.id; name; parent; job; start; stop } :: tr.spans;
  id

let span tr name f =
  let id = tr.next_id in
  tr.next_id <- id + 1;
  let parent = tr.current in
  tr.current <- id;
  let start = now () in
  Fun.protect
    ~finally:(fun () ->
      tr.current <- parent;
      tr.spans <-
        { Stat.id; name; parent; job = tr.job; start; stop = now () } :: tr.spans)
    f

(* Mean duration and self time per span name, in ms. *)
let span_table tr =
  let spans = Array.of_list (List.rev tr.spans) in
  let self = Stat.self_times spans in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i (s : Stat.span) ->
      let n, d, sf =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace tbl s.name (n + 1, d +. (s.stop -. s.start), sf +. self.(i)))
    spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl [] |> List.sort compare

(* Mean duration of the spans called [name], of [prog]'s jobs only if
   given, in ms. *)
let span_mean_ms ?prog tr name =
  let mine (s : Stat.span) =
    s.name = name
    && match prog with None -> true | Some p -> Hashtbl.find_opt tr.job_prog s.job = Some p
  in
  let n, d =
    List.fold_left
      (fun (n, d) (s : Stat.span) -> if mine s then (n + 1, d +. (s.stop -. s.start)) else (n, d))
      (0, 0.) tr.spans
  in
  if n = 0 then 0. else ms d /. float_of_int n

let write_spans tr file =
  if not (Sys.file_exists ".bench_out") then Sys.mkdir ".bench_out" 0o755;
  let oc = open_out (Filename.concat ".bench_out" file) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tparent\tjob\tname\tstart_s\tstop_s\n";
      List.iter
        (fun (s : Stat.span) ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%.6f\t%.6f\n" s.id s.parent s.job
            s.name s.start s.stop)
        (List.rev tr.spans))

(* ---------------------------------------------------------- the cycle *)

(* Per-program accumulators for the single-caller cycle. Times are only
   added for operations whose checks passed. *)
type pstat = {
  p : prog;
  mutable visits : int;
  mutable live_s : float; (* the live runs paired with a record *)
  mutable live2_s : float; (* the live runs paired with a replay *)
  mutable rec_s : float;
  mutable rep_s : float;
  mutable instrs : float;
  mutable bytes : float;
  (* traced run only *)
  mutable crec_s : float; (* composed record, spans on *)
  mutable regir_instr : float;
  mutable mon_ops : float;
  mutable regir_mon : float;
  mutable inlines : float;
  mutable gcs : float;
  mutable alloc : float;
  mutable compiled : float;
  mutable events : float;
  mutable switches : float;
  mutable clocks : float;
  mutable native_words : float;
}

let pstat p =
  {
    p;
    visits = 0;
    live_s = 0.;
    live2_s = 0.;
    rec_s = 0.;
    rep_s = 0.;
    instrs = 0.;
    bytes = 0.;
    crec_s = 0.;
    regir_instr = 0.;
    mon_ops = 0.;
    regir_mon = 0.;
    inlines = 0.;
    gcs = 0.;
    alloc = 0.;
    compiled = 0.;
    events = 0.;
    switches = 0.;
    clocks = 0.;
    native_words = 0.;
  }

type counts = { mutable attempted : int; mutable failed : int }

let note_failure counts what msg =
  counts.failed <- counts.failed + 1;
  if counts.failed <= 5 then Printf.eprintf "dvbench: FAILED %s: %s\n%!" what msg

let is_fatal status = String.length status >= 5 && String.sub status 0 5 = "fatal"

(* [record_to], rebuilt from its public parts so each part gets a span. The
   caller checks the file is byte-identical to [record_to]'s. *)
let composed_record tr (p : prog) ~seed ~path =
  span tr "core.record" (fun () ->
      let config =
        { p.config with env_cfg = { p.config.env_cfg with Vm.Env.seed } }
      in
      let vm =
        span tr "vm.create" (fun () ->
            Vm.create ~config ~natives:p.natives p.program)
      in
      let writer = span tr "core.writer_create" (fun () -> Trace.Writer.create path) in
      match
        let session =
          span tr "core.attach" (fun () -> Dejavu.Recorder.attach_stream vm writer)
        in
        ignore (span tr "vm.run" (fun () -> Vm.run vm));
        span tr "core.record_finish" (fun () ->
            Dejavu.Recorder.finish_stream session writer)
      with
      | sizes -> (vm, sizes)
      | exception e ->
        Trace.Writer.abort writer;
        raise e)

(* [replay_from], composed the same way. Returns output, state digest and
   the unconsumed-trace warnings. *)
let composed_replay tr (p : prog) ~path =
  span tr "core.replay" (fun () ->
      let config =
        { p.config with env_cfg = { p.config.env_cfg with Vm.Env.seed = 424242 } }
      in
      let vm =
        span tr "vm.create" (fun () ->
            Vm.create ~config ~natives:p.natives p.program)
      in
      let reader, session =
        span tr "core.replay_open" (fun () ->
            let reader = Trace.Reader.open_file path in
            (reader, Dejavu.Replayer.attach_stream vm reader))
      in
      Fun.protect
        ~finally:(fun () -> Trace.Reader.close reader)
        (fun () ->
          ignore (span tr "vm.run" (fun () -> Vm.run vm));
          let left = Dejavu.Replayer.check_complete session in
          (Vm.output vm, Vm.digest vm, Vm.string_of_status (Vm.status vm), left)))

type cycle = {
  stats : pstat array;
  mutable lat : float list; (* ms, every checked-ok operation *)
  mutable pairs : (float * float) list; (* (record or replay wall, live wall) *)
  mutable n_pairs : int;
  mutable wall : float;
  counts : counts;
}

let new_cycle progs =
  {
    stats = Array.of_list (List.map pstat progs);
    lat = [];
    pairs = [];
    n_pairs = 0;
    wall = 0.;
    counts = { attempted = 0; failed = 0 };
  }

(* One visit: live, record, live again, replay, of the same program and
   seed, back to back, so each record or replay sees the same host speed as
   the live run before it. Each has its own live run so that the baselines
   of the p99 are as many distinct samples as the operations. With a tracer
   the visit also runs the composed record/replay (spans on) next to the
   plain ones, and checks the composed trace is byte-identical. *)
let visit ?tr c (ps : pstat) ~seed =
  let p = ps.p in
  let path = work_path "cycle.trace" in
  let timed f =
    let t0 = now () in
    let r = f () in
    (now () -. t0, r)
  in
  let attempt what f =
    c.counts.attempted <- c.counts.attempted + 1;
    match f () with
    | r -> Some r
    | exception e ->
      note_failure c.counts what (Printexc.to_string e);
      None
  in
  let run_live () =
    attempt ("live " ^ p.name) (fun () ->
        timed (fun () ->
            Vm.execute ~config:p.config ~natives:p.natives ~seed p.program))
  in
  let live = run_live () in
  let recd =
    attempt ("record " ^ p.name) (fun () ->
        timed (fun () ->
            Dejavu.record_to ~config:p.config ~observe:false ~natives:p.natives ~seed
              ~path p.program))
  in
  match (live, recd) with
  | None, _ | _, None -> ()
  | Some (t_live, (lvm, _)), Some (t_rec, (r, sizes)) -> (
    let n = (Vm.stats lvm).Vm.Rt.n_instr in
    let r_status = Vm.string_of_status r.Dejavu.status in
    if
      not
        (String.equal (Vm.output lvm) r.Dejavu.output
        && n = (Vm.stats r.Dejavu.vm).Vm.Rt.n_instr
        && String.equal (Vm.string_of_status (Vm.status lvm)) r_status
        && not (is_fatal r_status))
    then begin
      note_failure c.counts ("record " ^ p.name) "live and recorded runs differ"
    end
    else
      let t_crec =
        match tr with
        | None -> Some 0.
        | Some tr -> (
          ignore (new_job tr p.name);
          let cpath = work_path "composed.trace" in
          match
            c.counts.attempted <- c.counts.attempted + 1;
            let t_crec, _ = timed (fun () -> composed_record tr p ~seed ~path:cpath) in
            if not (String.equal (Digest.file cpath) (Digest.file path)) then
              failwith "composed record_to wrote different trace bytes";
            c.counts.attempted <- c.counts.attempted + 1;
            let out, dig, st, left = composed_replay tr p ~path:cpath in
            if
              not
                (String.equal out r.Dejavu.output
                && dig = r.Dejavu.state_digest && left = []
                && String.equal st r_status)
            then failwith "composed replay differs from its recording";
            t_crec
          with
          | v -> Some v
          | exception e ->
            note_failure c.counts ("composed " ^ p.name) (Printexc.to_string e);
            None)
      in
      let live2 =
        match run_live () with
        | Some (t, (vm2, _))
          when String.equal (Vm.output vm2) (Vm.output lvm)
               && (Vm.stats vm2).Vm.Rt.n_instr = n ->
          Some t
        | Some _ ->
          note_failure c.counts ("live " ^ p.name) "two live runs of one seed differ";
          None
        | None -> None
      in
      match
        attempt ("replay " ^ p.name) (fun () ->
            timed (fun () ->
                Dejavu.replay_from ~config:p.config ~observe:false ~natives:p.natives
                  ~path p.program))
      with
      | None -> ()
      | Some (t_rep, (rp, left)) ->
        match live2 with
        | None -> ()
        | Some t_live2 ->
          if
            not
              (String.equal rp.Dejavu.output r.Dejavu.output
              && rp.Dejavu.state_digest = r.Dejavu.state_digest
              && left = []
              && String.equal (Vm.string_of_status rp.Dejavu.status) r_status)
          then begin
            note_failure c.counts ("replay " ^ p.name)
              (Printf.sprintf "replay differs from its recording (%s)"
                 (String.concat "; " left))
          end
          else begin
            let s = Vm.stats lvm in
            ps.visits <- ps.visits + 1;
            ps.live_s <- ps.live_s +. t_live;
            ps.live2_s <- ps.live2_s +. t_live2;
            ps.rec_s <- ps.rec_s +. t_rec;
            ps.rep_s <- ps.rep_s +. t_rep;
            ps.instrs <- ps.instrs +. float_of_int n;
            ps.bytes <- ps.bytes +. float_of_int sizes.Trace.total_bytes;
            c.lat <- ms t_live :: ms t_rec :: ms t_live2 :: ms t_rep :: c.lat;
            c.pairs <- (t_rec, t_live) :: (t_rep, t_live2) :: c.pairs;
            c.n_pairs <- c.n_pairs + 2;
            match t_crec with
            | None -> ()
            | Some t_crec ->
              let f = float_of_int in
              ps.crec_s <- ps.crec_s +. t_crec;
              ps.regir_instr <- ps.regir_instr +. f s.Vm.Rt.n_regir_instr;
              ps.mon_ops <- ps.mon_ops +. f s.Vm.Rt.n_monitor_ops;
              ps.regir_mon <- ps.regir_mon +. f s.Vm.Rt.n_regir_mon;
              ps.inlines <- ps.inlines +. f s.Vm.Rt.n_regir_inline;
              ps.gcs <- ps.gcs +. f s.Vm.Rt.n_gc;
              ps.alloc <- ps.alloc +. f s.Vm.Rt.n_alloc_words;
              ps.compiled <- ps.compiled +. f s.Vm.Rt.n_compiled_methods;
              ps.switches <- ps.switches +. f sizes.Trace.n_switches;
              ps.clocks <- ps.clocks +. f sizes.Trace.n_clock_reads;
              ps.native_words <- ps.native_words +. f sizes.Trace.n_native_words;
              ps.events <-
                ps.events
                +. f
                     (sizes.Trace.n_switches + sizes.Trace.n_clock_reads
                    + sizes.Trace.n_inputs + sizes.Trace.n_picks
                    + s.Vm.Rt.n_native_calls)
          end)

(* Every p99 this benchmark reports needs 1000 samples, so a phase runs for
   at least [seconds] AND until it has [min_ops] samples (bounded, so a
   pathologically slow build still exits in time). *)
let min_ops = 1000

let phase_cap seconds = seconds +. 60.

let run_cycle ?tr ?(min_ops = min_ops) c ~base_seed ~seconds =
  let n = Array.length c.stats in
  let t0 = now () in
  let k = ref 0 in
  while
    let el = now () -. t0 in
    el < phase_cap seconds && (el < seconds || c.n_pairs < min_ops)
  do
    let ps = c.stats.(!k mod n) in
    visit ?tr c ps ~seed:(seed_for base_seed ps.p.name (!k / n));
    incr k
  done;
  c.wall <- now () -. t0

(* ----------------------------------------------------------- the farm *)

type fref = {
  f_entry : Workloads.Registry.entry;
  f_seed : int;
  f_trace : string; (* reference trace the Replay jobs read *)
  f_rec_md5 : string;
  f_rec_status : string;
  f_bytes : int;
  f_rep_digest : string;
  f_lint_digest : string;
  f_lint_words : int;
  f_instrs : int;
}

let no_stop = { Dispatcher.shard = 0; seq = 0; should_stop = (fun () -> ()) }

(* Cold references: every farm job is checked against what a fresh VM (or a
   fresh analysis) produces for the same spec. *)
let cold_reference ~base_seed ~slot (e : Workloads.Registry.entry) (l : Job.output) =
  let seed = seed_for base_seed e.name slot in
  let trace = work_path (Printf.sprintf "ref-%s-%d.trace" e.name slot) in
  let r = Job.run no_stop (Job.Record { workload = e.name; seed; out = trace }) in
  let p = Job.run no_stop (Job.Replay { workload = e.name; trace }) in
  let vm, _ = Vm.execute ~natives:e.natives ~seed e.program in
  if p.Job.o_words <> 0 || not (String.equal p.Job.o_status r.Job.o_status) then
    failwith ("cold reference replay of " ^ e.name ^ " does not match its recording");
  {
    f_entry = e;
    f_seed = seed;
    f_trace = trace;
    f_rec_md5 = r.Job.o_digest;
    f_rec_status = r.Job.o_status;
    f_bytes = (Unix.stat trace).Unix.st_size;
    f_rep_digest = p.Job.o_digest;
    f_lint_digest = l.Job.o_digest;
    f_lint_words = l.Job.o_words;
    f_instrs = (Vm.stats vm).Vm.Rt.n_instr;
  }

(* [Live] is the benchmark's own uninstrumented run of a farm program on the
   shard, the baseline farm jobs are set against; it is not a farm job. *)
type kind = Record | Replay | Lint | Live

(* Record:Replay:Lint at 2:2:1; 5 is coprime with the number of references
   (23 programs x 12 seeds), so every reference meets every slot of the
   pattern. *)
let pattern = [| Record; Replay; Record; Replay; Lint |]

type fjob = {
  ref_ : fref;
  idx : int; (* of [ref_] in the farm's reference array *)
  kind : kind;
  caller : int;
  spec : Job.spec option; (* None for [Live] *)
  mutable t_submit : float;
  mutable svc_start : float; (* stamped on the shard *)
  mutable svc_stop : float;
  mutable files_s : float; (* [Live] only: the file baseline, on the shard *)
}

(* One chunk of farm work set against the live round that followed it. A
   Record job's baseline is its program's live run plus the file baseline;
   every other job's is the live run alone. *)
type chunk = {
  rec_svc : float;
  rec_live : float;
  rep_svc : float;
  rep_live : float;
  pairs : (float * float) list; (* each job's (latency, baseline) *)
}

type farm = {
  refs : fref array;
  shards : int;
  mutable jobs_ok : int;
  mutable fwall : float;
  mutable chunks : chunk list; (* newest first; only with live rounds *)
  mutable svc_sum : float; (* s *)
  sums : (kind, float * float) Hashtbl.t; (* Σ service s, Σ instructions *)
  per_prog : (string, (float * float) list) Hashtbl.t; (* (service, wait) ms *)
  mutable bytes : float;
  mutable rec_instrs : float;
  live : (string, float * int) Hashtbl.t; (* per program: Σ live s, samples *)
  fcounts : counts;
  mutable warm_hits : int;
  mutable warm_misses : int;
}

let new_farm refs ~shards =
  {
    refs = Array.of_list refs;
    shards;
    jobs_ok = 0;
    fwall = 0.;
    chunks = [];
    svc_sum = 0.;
    sums = Hashtbl.create 4;
    per_prog = Hashtbl.create 32;
    bytes = 0.;
    rec_instrs = 0.;
    live = Hashtbl.create 32;
    fcounts = { attempted = 0; failed = 0 };
    warm_hits = 0;
    warm_misses = 0;
  }

(* Every Record job writes a fresh file, removed once its result is checked,
   as a farm writing new traces would: renaming over an existing file makes
   ext4 flush it to disk on the job's critical path. *)
let job (refs : fref array) idx kind ~caller ~k =
  let r = refs.(idx) in
  let w = r.f_entry.Workloads.Registry.name in
  let spec =
    match kind with
    | Record ->
      Some
        (Job.Record
           {
             workload = w;
             seed = r.f_seed;
             out = work_path (Printf.sprintf "rec-%d.trace" k);
           })
    | Replay -> Some (Job.Replay { workload = w; trace = r.f_trace })
    | Lint -> Some (Job.Lint { workload = w })
    | Live -> None
  in
  { ref_ = r; idx; kind; caller; spec; t_submit = 0.; svc_start = 0.; svc_stop = 0.; files_s = 0. }

let make_job k ~caller (refs : fref array) =
  job refs (k mod Array.length refs) pattern.(k mod Array.length pattern) ~caller ~k

let remove_output j =
  match j.spec with
  | Some (Job.Record { out; _ }) -> ( try Sys.remove out with Sys_error _ -> ())
  | _ -> ()

let describe j =
  match j.spec with
  | Some spec -> Job.describe spec
  | None -> "live:" ^ j.ref_.f_entry.Workloads.Registry.name

let check_job (j : fjob) (o : Job.output) =
  let r = j.ref_ in
  match j.kind with
  | Record ->
    String.equal o.Job.o_digest r.f_rec_md5
    && String.equal o.Job.o_status r.f_rec_status
  | Replay ->
    String.equal o.Job.o_digest r.f_rep_digest
    && o.Job.o_words = 0
    && String.equal o.Job.o_status r.f_rec_status
  | Lint ->
    String.equal o.Job.o_digest r.f_lint_digest && o.Job.o_words = r.f_lint_words
  | Live -> o.Job.o_words = r.f_instrs

(* Record seeds per farm program. Small registry programs change shape with
   the seed (a philosopher run that deadlocks early is mostly fixed cost),
   so each run spreads its jobs over several seeds rather than one. *)
let farm_seed_slots = 12

(* Cold references for every (program, seed slot), slot-major, so the first
   [List.length entries] are one per program. *)
let cold_references ~base_seed entries =
  let lints =
    List.map
      (fun (e : Workloads.Registry.entry) ->
        Job.run no_stop (Job.Lint { workload = e.name }))
      entries
  in
  List.concat_map
    (fun slot -> List.map2 (cold_reference ~base_seed ~slot) entries lints)
    (List.init farm_seed_slots Fun.id)

(* The file-system work of a streamed recording done with plain I/O and no
   recorder: five spill files holding [bytes] between them, stitched into a
   temp file that is renamed into place, the spills removed, the result read
   back for its digest and removed -- what a Record job does with the file
   system, around the recorder. On a shared 2-vCPU VM the kernel's file-system
   speed drifts apart from the interpreter's (NOTES.md), and for registry-sized
   programs this work is a third of a Record job, so the farm sets Record
   jobs against the live run plus this, both measured in the same phase. *)
let file_baseline ~bytes path =
  let part = String.make ((bytes / 5) + 1) 't' in
  let spills = List.init 5 (fun i -> Printf.sprintf "%s.%d.spill" path i) in
  List.iter
    (fun s ->
      let oc = open_out_bin s in
      output_string oc part;
      close_out oc)
    spills;
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  List.iter
    (fun s ->
      let ic = open_in_bin s in
      output_string oc (really_input_string ic (in_channel_length ic));
      close_in ic)
    spills;
  close_out oc;
  Sys.rename tmp path;
  List.iter Sys.remove spills;
  ignore (Digest.file path);
  Sys.remove path

(* A farm of [shards] shards over [refs], with its warm pools booted by one
   untimed Record/Replay/Lint of every program — that round is set-up. *)
let start_farm (f : farm) =
  let stats = Server.Stats.create () in
  let runner = Job.runner ~stats ~shards:f.shards () in
  let live (e : Workloads.Registry.entry) ~seed =
    let vm, _ = Vm.execute ~natives:e.natives ~seed e.program in
    {
      Job.o_status = Vm.string_of_status (Vm.status vm);
      o_digest = "";
      o_words = (Vm.stats vm).Vm.Rt.n_instr;
      o_children = [];
      o_pruned = 0;
      o_flags = 0;
    }
  in
  let run ctx (j : fjob) =
    j.svc_start <- now ();
    let o =
      match j.spec with
      | Some spec -> runner.Job.run ctx spec
      | None -> live j.ref_.f_entry ~seed:j.ref_.f_seed
    in
    j.svc_stop <- now ();
    if j.kind = Live then begin
      file_baseline ~bytes:j.ref_.f_bytes
        (work_path (Printf.sprintf "base-%d.trace" j.idx));
      j.files_s <- now () -. j.svc_stop
    end;
    o
  in
  let place j =
    match j.spec with Some spec -> runner.Job.place spec | None -> Dispatcher.Shared
  in
  let d = Dispatcher.create ~shards:f.shards ~place ~stats ~run () in
  let programs = Array.length f.refs / farm_seed_slots in
  let warm = ref 0 in
  for i = 0 to programs - 1 do
    List.iter
      (fun kind ->
        ignore (Dispatcher.submit d (job f.refs i kind ~caller:(!warm mod 2) ~k:!warm));
        incr warm)
      [ Record; Replay; Lint ]
  done;
  for _ = 1 to !warm do
    match Dispatcher.next d with
    | Some { r_outcome = Dispatcher.Done o; r_payload = j; _ } when check_job j o ->
      remove_output j
    | Some { r_payload = j; _ } -> failwith ("farm warm-up job failed: " ^ describe j)
    | None -> failwith "farm closed during warm-up"
  done;
  (d, stats)

let live_mean f name =
  match Hashtbl.find_opt f.live name with
  | Some (s, n) when n > 0 -> Some (s /. float_of_int n)
  | _ -> None

(* One uninstrumented run of each reference in [idxs] (distinct), on the
   shard that runs the jobs (the farm is otherwise idle), checked against its
   reference instruction count: (live, file baseline) seconds per reference
   index. *)
let live_round f d idxs =
  List.iter (fun i -> ignore (Dispatcher.submit d (job f.refs i Live ~caller:0 ~k:0))) idxs;
  let live = Array.make (Array.length f.refs) None in
  List.iter
    (fun _ ->
      f.fcounts.attempted <- f.fcounts.attempted + 1;
      match Dispatcher.next d with
      | Some { r_outcome = Dispatcher.Done o; r_payload = j; _ } when check_job j o ->
        let t = j.svc_stop -. j.svc_start in
        let name = j.ref_.f_entry.Workloads.Registry.name in
        let s, n = Option.value (Hashtbl.find_opt f.live name) ~default:(0., 0) in
        Hashtbl.replace f.live name (s +. t, n + 1);
        live.(j.idx) <- Some (t, j.files_s)
      | Some { r_payload = j; _ } ->
        note_failure f.fcounts (describe j)
          "instruction count differs from its recording"
      | None -> failwith "farm closed early")
    idxs;
  live

(* Closed loop: two callers, each resubmitting only after its result
   arrives. Every [chunk] seconds the loop lets both jobs finish; with
   [interleave_live] the shard then runs every program and seed of the
   chunk's jobs live once (with the file baseline), so each chunk's job
   costs are set against baselines taken on the same domain in the same host
   phase. A chunk is far shorter than a host phase (10 s or more). The live
   rounds are not farm wall time. Busy domains never exceed the shards plus
   the (mostly blocked) caller. *)
let run_farm ?tr f (d, stats) ~seconds ~interleave_live =
  let chunk = 1.0 in
  let refs = f.refs in
  let in_chunk = ref [] in
  let k = ref 0 in
  let submit caller =
    let j = make_job !k ~caller refs in
    incr k;
    j.t_submit <- now ();
    ignore (Dispatcher.submit d j)
  in
  let receive () =
    match Dispatcher.next d with
    | None -> failwith "farm closed early"
    | Some res ->
      let t_res = now () in
      let j = res.Dispatcher.r_payload in
      f.fcounts.attempted <- f.fcounts.attempted + 1;
      (match res.Dispatcher.r_outcome with
      | Dispatcher.Done o when check_job j o ->
        let lat = t_res -. j.t_submit and svc = j.svc_stop -. j.svc_start in
        f.jobs_ok <- f.jobs_ok + 1;
        f.svc_sum <- f.svc_sum +. svc;
        let name = j.ref_.f_entry.Workloads.Registry.name in
        Hashtbl.replace f.per_prog name
          ((ms svc, ms (lat -. svc))
          :: Option.value (Hashtbl.find_opt f.per_prog name) ~default:[]);
        in_chunk := (j.kind, j.idx, svc, lat) :: !in_chunk;
        if j.kind = Record then begin
          f.bytes <- f.bytes +. float_of_int j.ref_.f_bytes;
          f.rec_instrs <- f.rec_instrs +. float_of_int j.ref_.f_instrs
        end;
        Option.iter
          (fun tr ->
            let job = new_job tr name in
            let root = add_span tr ~name:"server.job" ~parent:(-1) ~job j.t_submit t_res in
            ignore
              (add_span tr ~name:"server.service" ~parent:root ~job j.svc_start
                 j.svc_stop))
          tr
      | Dispatcher.Done _ ->
        note_failure f.fcounts (describe j) "output differs from the cold reference"
      | Dispatcher.Failed m -> note_failure f.fcounts (describe j) m
      | Dispatcher.Timed_out -> note_failure f.fcounts (describe j) "timed out"
      | Dispatcher.Cancelled_ -> note_failure f.fcounts (describe j) "cancelled");
      remove_output j;
      j.caller
  in
  let v0 = Server.Stats.view stats in
  let t_start = now () in
  while
    let el = now () -. t_start in
    el < phase_cap seconds && (f.fwall < seconds || f.jobs_ok < min_ops)
  do
    let c0 = now () in
    submit 0;
    submit 1;
    while now () -. c0 < chunk do
      submit (receive ())
    done;
    ignore (receive ());
    ignore (receive ());
    f.fwall <- f.fwall +. (now () -. c0);
    List.iter
      (fun (kind, i, svc, _) ->
        let s, n = Option.value (Hashtbl.find_opt f.sums kind) ~default:(0., 0.) in
        Hashtbl.replace f.sums kind (s +. svc, n +. float_of_int refs.(i).f_instrs))
      !in_chunk;
    if interleave_live then begin
      let live =
        live_round f d (List.sort_uniq compare (List.map (fun (_, i, _, _) -> i) !in_chunk))
      in
      let baseline kind i =
        match (kind, live.(i)) with
        | Record, Some (l, files) -> l +. files
        | _, Some (l, _) -> l
        | _, None -> nan (* its live run failed: the run reports no result *)
      in
      let sum kind pick =
        List.fold_left
          (fun a (k, i, svc, _) -> if k <> kind then a else a +. pick svc (baseline k i))
          0. !in_chunk
      in
      f.chunks <-
        {
          rec_svc = sum Record (fun s _ -> s);
          rec_live = sum Record (fun _ b -> b);
          rep_svc = sum Replay (fun s _ -> s);
          rep_live = sum Replay (fun _ b -> b);
          pairs = List.map (fun (k, i, _, lat) -> (lat, baseline k i)) !in_chunk;
        }
        :: f.chunks
    end;
    in_chunk := []
  done;
  let v1 = Server.Stats.view stats in
  f.warm_hits <- v1.Server.Stats.v_warm_hits - v0.Server.Stats.v_warm_hits;
  f.warm_misses <- v1.Server.Stats.v_warm_misses - v0.Server.Stats.v_warm_misses;
  ignore (Dispatcher.drain d)

(* Guest Mi per second of job service, for one job kind. *)
let farm_mips f kind =
  let svc, instrs = Option.value (Hashtbl.find_opt f.sums kind) ~default:(0., 0.) in
  instrs /. 1e6 /. svc

(* ------------------------------------------------------------- metrics *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let json_number name v =
  if not (Float.is_finite v) then failwith (name ^ " is not a finite number");
  Printf.sprintf "%.17g" v

let print_result ~correct (counts : counts) metrics =
  let body =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_number x.name x.value) x.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct counts.attempted counts.failed (String.concat ", " body)

(* Median and p99 of [samples], printed with p90 and the sample count.
   Fails (the run reports no result) when p99 has too thin a tail. *)
let quantiles name samples =
  let a = Stat.sorted_of_list samples in
  match (Stat.quantile a 0.5, Stat.quantile a 0.9, Stat.quantile a 0.99) with
  | p50, p90, p99 ->
    Printf.printf "%s: p50 %.4f p90 %.4f p99 %.4f over %d samples\n" name p50 p90 p99
      (Array.length a);
    (p50, p99, Array.length a)
  | exception Stat.Refused why -> failwith (name ^ ": " ^ why)

(* How a workload's p99 latency is set against its baselines. *)
type tail =
  | Ratio_of_p99s
      (* the p99 latency over the p99 baseline: where the tail is host jitter
         (compute-long) or tiny jobs queued behind large ones (the farm), a
         p99 of per-operation ratios measures how often that happened, which
         varies from run to run; jitter hits the baselines as often as the
         operations, so two tails set like against like *)
  | P99_of_ratios
      (* the p99 of per-operation ratios: where one program's operations are
         systematically slow (event-dense: bank replays, a tenth of the
         samples at 1.6x its live run), the latency tail is that program while
         the baseline tail is jitter, and their ratio jumps between two modes
         as the jitter comes and goes *)

(* [job_p50_x] and [job_p99_x] from the (latency, baseline) pairs of the
   checked-ok operations: the exact median of the per-operation ratios, and
   the p99 as [tail] says. *)
let job_quantiles ~tail pairs =
  let x50, x99, n = quantiles "latency over baseline" (List.map (fun (l, b) -> l /. b) pairs) in
  match tail with
  | P99_of_ratios -> (x50, x99, n)
  | Ratio_of_p99s ->
    let _, l99, _ = quantiles "latency (s)" (List.map fst pairs) in
    let _, b99, _ = quantiles "baseline (s)" (List.map snd pairs) in
    (x50, l99 /. b99, n)

(* ------------------------------------------------------ traced extras *)

(* Interleaved on/off pairs for the VM's existing toggles: each program runs
   with the default config, fusion off and the register tier off, in
   rotation, so host speed cancels in the ratios. *)
let ledger progs ~base_seed ~seconds counts =
  let per = List.map (fun (p : prog) -> (p, Array.make 3 0.)) progs in
  let t0 = now () in
  let k = ref 0 in
  while now () -. t0 < seconds || !k < 2 do
    List.iter
      (fun ((p : prog), sums) ->
        let seed = seed_for base_seed p.name (1000 + !k) in
        let outs = Array.make 3 "" in
        for j = 0 to 2 do
          (* rotate the order so no config always runs first *)
          let i = (j + !k) mod 3 in
          counts.attempted <- counts.attempted + 1;
          let config =
            match i with
            | 0 -> p.config
            | 1 -> { p.config with Vm.Rt.fuse = false }
            | _ -> { p.config with Vm.Rt.regir = false }
          in
          let t = now () in
          let vm, _ = Vm.execute ~config ~natives:p.natives ~seed p.program in
          sums.(i) <- sums.(i) +. (now () -. t);
          outs.(i) <- Vm.output vm
        done;
        for i = 1 to 2 do
          if not (String.equal outs.(i) outs.(0)) then
            note_failure counts
              (Printf.sprintf "ledger %s config %d" p.name i)
              "output differs from the default config"
        done)
      per;
    incr k
  done;
  per

let saving per i =
  let on = List.fold_left (fun a (_, s) -> a +. s.(0)) 0. per in
  let off = List.fold_left (fun a (_, s) -> a +. s.(i)) 0. per in
  (off /. on) -. 1.

(* Fresh [Analysis.run] per program, three rounds: ms per program. *)
let audit_ms progs =
  List.map
    (fun (p : prog) ->
      let t = now () in
      for _ = 1 to 3 do
        ignore (Analysis.run ~name:p.name p.program)
      done;
      (p.name, ms (now () -. t) /. 3.))
    progs

(* [Warm.acquire] on the hit path (a baseline reset of a VM that has run),
   five times per program: ms per acquire, per program. *)
let warm_acquire_ms entries ~base_seed =
  let pool = Server.Warm.create () in
  List.map
    (fun (e : Workloads.Registry.entry) ->
      ignore (Vm.run (Server.Warm.acquire pool e ~seed:1));
      let total = ref 0. in
      for k = 1 to 5 do
        let t = now () in
        let vm = Server.Warm.acquire pool e ~seed:(seed_for base_seed e.name k) in
        total := !total +. (now () -. t);
        (* dirty the VM so the next acquire has a real reset to do *)
        ignore (Vm.run vm)
      done;
      (e.name, ms !total /. 5.))
    entries

(* ---------------------------------------------------------------- set-up *)

type setup = {
  cycle_progs : prog list; (* the cycle's programs (farm: the registry) *)
  farm_entries : Workloads.Registry.entry list;
  mutable refs : fref list;
  mutable farm1 : (farm * ((fjob, Job.output) Dispatcher.t * Server.Stats.t)) option;
}

let farm_names = function
  | Compute_long -> [ "primes"; "parsum"; "mergesort"; "gc-churn" ]
  | Event_dense -> [ "bank"; "timed"; "native"; "webserver"; "producer-consumer" ]
  | Farm_mixed -> Workloads.Registry.names ()

(* Everything before the timed phase: building the programs, one untimed
   live/record/replay of each (the audit stamp, first compile, page
   faults), and for the farm the cold references and the pool boot. *)
let set_up args =
  Job.preload ();
  let farm_entries = registry_entries (farm_names args.workload) in
  let cycle_progs =
    match args.workload with
    | Compute_long -> compute_long ()
    | Event_dense -> event_dense ()
    | Farm_mixed -> List.map prog_of_entry farm_entries
  in
  let s = { cycle_progs; farm_entries; refs = []; farm1 = None } in
  let first_run () =
    let c = new_cycle cycle_progs in
    Array.iter (fun ps -> visit c ps ~seed:(seed_for args.seed ps.p.name (-1))) c.stats;
    if c.counts.failed > 0 then failwith "set-up run failed its checks"
  in
  let farm () =
    s.refs <- cold_references ~base_seed:args.seed farm_entries;
    let f = new_farm s.refs ~shards:1 in
    s.farm1 <- Some (f, start_farm f)
  in
  (match (args.workload, args.trace) with
  | Farm_mixed, false -> farm ()
  | (Compute_long | Event_dense), false -> first_run ()
  | _, true ->
    first_run ();
    farm ());
  s

(* ------------------------------------------------------------ reporting *)

(* Σ num ÷ Σ den over the cycle's programs. *)
let cycle_ratio c num den =
  Stat.ratio_of_sums (Array.to_list (Array.map (fun ps -> (num ps, den ps)) c.stats))

let mi ps = ps.instrs /. 1e6

let print_cycle_table c =
  Printf.printf "%-18s %6s %10s %9s %9s %9s %10s\n" "program" "visits" "Minstr"
    "live ms" "rec ms" "rep ms" "B/Mi";
  Array.iter
    (fun ps ->
      let v = float_of_int (max 1 ps.visits) in
      Printf.printf "%-18s %6d %10.3f %9.3f %9.3f %9.3f %10.0f\n" ps.p.name ps.visits
        (ps.instrs /. v /. 1e6) (ms ps.live_s /. v) (ms ps.rec_s /. v)
        (ms ps.rep_s /. v)
        (if ps.instrs > 0. then ps.bytes /. (ps.instrs /. 1e6) else 0.))
    c.stats

(* Absolute speeds follow the host, whose speed drifts by up to 2x over
   minutes (NOTES.md), so they are printed but not gated. *)
let print_absolute ~rec_mips ~rep_mips ~jobs ~wall lat =
  let p50, p99, count = quantiles "job latency" lat in
  Printf.printf
    "ungated (host-speed bound): record_mips %.2f Mi/s  replay_mips %.2f Mi/s  \
     jobs_per_s %.1f  job_p50_ms %.3f  job_p99_ms %.3f  (%d jobs)\n"
    rec_mips rep_mips (float_of_int jobs /. wall) p50 p99 count

let end_to_end_cycle c ~tail ~setup_s =
  let ratio = cycle_ratio c in
  let x50, x99, count = job_quantiles ~tail c.pairs in
  print_cycle_table c;
  Printf.printf "visits: %d checked-ok in %.2f s; %d record/replay samples\n"
    (count / 2) c.wall count;
  print_absolute
    ~rec_mips:(ratio mi (fun ps -> ps.rec_s))
    ~rep_mips:(ratio mi (fun ps -> ps.rep_s))
    ~jobs:(List.length c.lat) ~wall:c.wall c.lat;
  [
    m "setup_s" "s" setup_s;
    m "record_slowdown" "x" (ratio (fun ps -> ps.rec_s) (fun ps -> ps.live_s));
    m "replay_slowdown" "x" (ratio (fun ps -> ps.rep_s) (fun ps -> ps.live2_s));
    m "job_p50_x" "x" x50;
    m "job_p99_x" "x" x99;
    m "trace_bytes_per_minstr" "B/Mi" (ratio (fun ps -> ps.bytes) mi);
    m "peak_rss_mb" "MiB" (peak_rss_mb ());
  ]

(* Per program: service and queue wait at p50 and p90 (a program has too few
   jobs for an honest p99; that is reported over all jobs only), the mean
   live baseline, and with [acquire] the warm-acquire time. *)
let print_farm_table ?(acquire = []) (f : farm) =
  Printf.printf "%-22s %6s %8s %8s %8s %8s %8s %8s %8s\n" "program" "jobs" "svc p50"
    "svc p90" "wait p50" "wait p90" "live ms" "Minstr" "acq ms";
  let programs = Array.length f.refs / farm_seed_slots in
  let cell = Option.fold ~none:"-" ~some:(Printf.sprintf "%.3f") in
  for i = 0 to programs - 1 do
    let name = f.refs.(i).f_entry.Workloads.Registry.name in
    let jobs = Option.value (Hashtbl.find_opt f.per_prog name) ~default:[] in
    let q pick p =
      try Some (Stat.quantile (Stat.sorted_of_list (List.map pick jobs)) p)
      with Stat.Refused _ -> None
    in
    let instrs = ref 0 in
    for slot = 0 to farm_seed_slots - 1 do
      instrs := !instrs + f.refs.((slot * programs) + i).f_instrs
    done;
    Printf.printf "%-22s %6d %8s %8s %8s %8s %8s %8.3f %8s\n" name (List.length jobs)
      (cell (q fst 0.5)) (cell (q fst 0.9)) (cell (q snd 0.5)) (cell (q snd 0.9))
      (cell (Option.map ms (live_mean f name)))
      (float_of_int !instrs /. float_of_int farm_seed_slots /. 1e6)
      (cell (List.assoc_opt name acquire))
  done

let end_to_end_farm f ~setup_s =
  let ratio num den = Stat.ratio_of_sums (List.map (fun c -> (num c, den c)) f.chunks) in
  let pairs = List.concat_map (fun c -> c.pairs) f.chunks in
  let x50, x99, _ = job_quantiles ~tail:Ratio_of_p99s pairs in
  print_farm_table f;
  Printf.printf "farm: %d checked-ok jobs in %.2f s of farm time\n" f.jobs_ok f.fwall;
  print_absolute ~rec_mips:(farm_mips f Record) ~rep_mips:(farm_mips f Replay)
    ~jobs:f.jobs_ok ~wall:f.fwall
    (List.map (fun (lat, _) -> ms lat) pairs);
  [
    m "setup_s" "s" setup_s;
    m "record_slowdown" "x" (ratio (fun c -> c.rec_svc) (fun c -> c.rec_live));
    m "replay_slowdown" "x" (ratio (fun c -> c.rep_svc) (fun c -> c.rep_live));
    m "job_p50_x" "x" x50;
    m "job_p99_x" "x" x99;
    m "trace_bytes_per_minstr" "B/Mi" (f.bytes /. (f.rec_instrs /. 1e6));
    m "peak_rss_mb" "MiB" (peak_rss_mb ());
  ]

(* --------------------------------------------------------- traced run *)

(* The traced run sends the workload's programs through every layer: the
   cycle with spans (composed record/replay next to the plain calls), the
   toggle ledger, the audit, Warm.acquire, and a one-shard farm pass with
   service spans, then an ungated two-shard pass. For farm-mixed the farm
   pass is its timed phase and the cycle runs over the registry; the cycle
   workloads' farm pass runs the registry versions of their programs. *)
let traced_run args s =
  let tr = tracer () in
  let counts = { attempted = 0; failed = 0 } in
  let absorb (c : counts) =
    counts.attempted <- counts.attempted + c.attempted;
    counts.failed <- counts.failed + c.failed
  in
  let cycle_secs, farm_secs =
    match args.workload with
    | Farm_mixed -> (Float.min args.seconds 5., args.seconds)
    | _ -> (args.seconds, Float.min args.seconds 5.)
  in
  let c = new_cycle s.cycle_progs in
  (* no percentile is taken from the traced cycle *)
  run_cycle ~tr ~min_ops:0 c ~base_seed:args.seed ~seconds:cycle_secs;
  absorb c.counts;
  print_cycle_table c;
  let f, handle = Option.get s.farm1 in
  run_farm ~tr f handle ~seconds:farm_secs ~interleave_live:false;
  absorb f.fcounts;
  let f2 = new_farm s.refs ~shards:2 in
  run_farm f2 (start_farm f2) ~seconds:(Float.min args.seconds 5.)
    ~interleave_live:false;
  absorb f2.fcounts;
  let per = ledger s.cycle_progs ~base_seed:args.seed ~seconds:3. counts in
  let audits = audit_ms s.cycle_progs in
  let acquire = warm_acquire_ms s.farm_entries ~base_seed:args.seed in
  let ratio = cycle_ratio c in
  let visits ps = float_of_int ps.visits in
  let per_run field = ratio field visits in
  let ns_per_instr t = 1e9 *. ratio t (fun ps -> ps.instrs) in
  let jobs = Hashtbl.fold (fun _ l acc -> List.rev_append l acc) f.per_prog [] in
  let svc50, svc99, _ = quantiles "service" (List.map fst jobs) in
  let wait50, wait99, _ = quantiles "queue wait" (List.map snd jobs) in
  let mean l = List.fold_left (fun a (_, t) -> a +. t) 0. l /. float_of_int (List.length l) in
  let hits = float_of_int f.warm_hits and misses = float_of_int f.warm_misses in
  (* per-program rows *)
  Printf.printf "%-18s %8s %7s %7s %7s %8s %8s %9s %8s %8s %9s\n" "program" "live ns/i"
    "regir" "mon" "inl/run" "gc/run" "rec ns/i" "rep ns/i" "fuse" "regir" "audit ms";
  Array.iter
    (fun ps ->
      let v = float_of_int (max 1 ps.visits) and ni = Float.max 1. ps.instrs in
      let sums = List.assq ps.p per in
      Printf.printf
        "%-18s %8.2f %7.3f %7.3f %7.1f %8.1f %8.2f %9.2f %+8.3f %+8.3f %9.2f\n"
        ps.p.name (1e9 *. ps.live_s /. ni) (ps.regir_instr /. ni)
        (if ps.mon_ops > 0. then ps.regir_mon /. ps.mon_ops else 0.)
        (ps.inlines /. v) (ps.gcs /. v)
        (1e9 *. (ps.rec_s -. ps.live_s) /. ni)
        (1e9 *. (ps.rep_s -. ps.live2_s) /. ni)
        ((sums.(1) /. sums.(0)) -. 1.)
        ((sums.(2) /. sums.(0)) -. 1.)
        (List.assoc ps.p.name audits))
    c.stats;
  Printf.printf "%-18s %9s %9s %9s %10s %9s %9s %9s %9s %9s %10s\n" "program"
    "create ms" "finish ms" "open ms" "alloc/run" "compiled" "events" "switches"
    "clocks" "natives" "bytes/run";
  Array.iter
    (fun ps ->
      let v = float_of_int (max 1 ps.visits) in
      let span name = span_mean_ms ~prog:ps.p.name tr name in
      Printf.printf
        "%-18s %9.4f %9.4f %9.4f %10.0f %9.1f %9.1f %9.1f %9.1f %9.1f %10.1f\n"
        ps.p.name (span "vm.create") (span "core.record_finish") (span "core.replay_open")
        (ps.alloc /. v) (ps.compiled /. v) (ps.events /. v) (ps.switches /. v)
        (ps.clocks /. v) (ps.native_words /. v) (ps.bytes /. v))
    c.stats;
  print_farm_table ~acquire f;
  Printf.printf "%-24s %10s %10s %10s\n" "span" "count" "mean ms" "self ms";
  List.iter
    (fun (name, (k, d, self)) ->
      let k' = float_of_int k in
      Printf.printf "%-24s %10d %10.4f %10.4f\n" name k (ms d /. k') (ms self /. k'))
    (span_table tr);
  write_spans tr
    (Printf.sprintf "spans-%s-%d.tsv" (string_of_workload args.workload) args.seed);
  let jobs_per_s f = float_of_int f.jobs_ok /. f.fwall in
  let speedup = jobs_per_s f2 /. jobs_per_s f in
  Printf.printf
    "farm 2 shards vs 1: %.3fx (ungated: 2 shards + the caller oversubscribe \
     2 vCPUs)\n"
    speedup;
  Printf.printf
    "tracing overhead: composed record with spans %.2f Mi/s vs plain \
     record_to %.2f Mi/s\n"
    (ratio mi (fun ps -> ps.crec_s))
    (ratio mi (fun ps -> ps.rec_s));
  ( counts,
    [
      m "vm.live_ns_per_instr" "ns" (ns_per_instr (fun ps -> ps.live_s));
      m "vm.regir_coverage" "frac" (ratio (fun ps -> ps.regir_instr) (fun ps -> ps.instrs));
      m "vm.mon_region_frac" "frac"
        (try ratio (fun ps -> ps.regir_mon) (fun ps -> ps.mon_ops)
         with Invalid_argument _ -> 0. (* no monitor ops at all *));
      m "vm.inline_splices" "count" (per_run (fun ps -> ps.inlines));
      m "vm.fuse_saving" "frac" (saving per 1);
      m "vm.regir_saving" "frac" (saving per 2);
      m "vm.create_ms" "ms" (span_mean_ms tr "vm.create");
      m "vm.gc_count" "count" (per_run (fun ps -> ps.gcs));
      m "vm.alloc_words" "words" (per_run (fun ps -> ps.alloc));
      m "vm.compiled_methods" "count" (per_run (fun ps -> ps.compiled));
      m "core.record_hook_ns_per_instr" "ns" (ns_per_instr (fun ps -> ps.rec_s -. ps.live_s));
      m "core.replay_hook_ns_per_instr" "ns" (ns_per_instr (fun ps -> ps.rep_s -. ps.live2_s));
      m "core.record_finish_ms" "ms" (span_mean_ms tr "core.record_finish");
      m "core.replay_open_ms" "ms" (span_mean_ms tr "core.replay_open");
      m "core.events" "count" (per_run (fun ps -> ps.events));
      m "core.trace_bytes" "B" (per_run (fun ps -> ps.bytes));
      m "analysis.audit_ms" "ms" (mean audits);
      m "server.service_p50_ms" "ms" svc50;
      m "server.service_p99_ms" "ms" svc99;
      m "server.queue_wait_p50_ms" "ms" wait50;
      m "server.queue_wait_p99_ms" "ms" wait99;
      m "server.warm_acquire_ms" "ms" (mean acquire);
      m "server.warm_hit_ratio" "frac" (hits /. Float.max 1. (hits +. misses));
      m "server.shard_busy_frac" "frac" (f.svc_sum /. f.fwall);
      m "server.speedup_2v1" "x" speedup;
      m "bench.trace_overhead" "frac" (ratio (fun ps -> ps.crec_s) (fun ps -> ps.rec_s) -. 1.);
    ] )

(* ------------------------------------------------------------------ main *)

let () =
  let args = parse_args () in
  let spin_before = host_spin_ms () in
  let t_setup = now () in
  let s = set_up args in
  let raw_setup_s = now () -. t_setup in
  (* Set-up is absolute work, and the host's speed swings by up to 1.9x
     between phases that outlast a run. Scaled by the add loop timed around
     it, set-up reads in seconds at the reference host speed. *)
  let spin_setup = (spin_before +. host_spin_ms ()) /. 2. in
  let setup_s = raw_setup_s *. reference_spin_ms /. spin_setup in
  if args.setup_only then begin
    Option.iter (fun (_, (d, _)) -> ignore (Dispatcher.drain d)) s.farm1;
    Printf.printf "{\"setup_s\": %.17g, \"raw_setup_s\": %.17g}\n%!" setup_s raw_setup_s;
    exit 0
  end;
  Printf.printf "set-up: %.4f s raw, add loop %.2f ms around it, %.4f s at the reference speed\n"
    raw_setup_s spin_setup setup_s;
  let counts, metrics =
    if args.trace then traced_run args s
    else
      match args.workload with
      | Farm_mixed ->
        let f, handle = Option.get s.farm1 in
        run_farm f handle ~seconds:args.seconds ~interleave_live:true;
        (f.fcounts, end_to_end_farm f ~setup_s)
      | Compute_long | Event_dense ->
        let c = new_cycle s.cycle_progs in
        run_cycle c ~base_seed:args.seed ~seconds:args.seconds;
        let tail = if args.workload = Event_dense then P99_of_ratios else Ratio_of_p99s in
        (c.counts, end_to_end_cycle c ~tail ~setup_s)
  in
  let spin_after = host_spin_ms () in
  Printf.printf "host_spin_ms: before %.2f after %.2f (ungated; a 20M-add loop)\n"
    spin_before spin_after;
  let metrics =
    if args.trace then metrics @ [ m "bench.host_spin_ms" "ms" spin_after ] else metrics
  in
  print_result ~correct:(counts.failed = 0) counts metrics
