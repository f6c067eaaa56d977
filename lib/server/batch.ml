(* Batch mode: run a list of jobs (typically "record every registry
   workload") across N shards and fold the per-job digests — in submission
   order, so the aggregate is shard-count-invariant — into one digest the
   tests compare against a sequential run. Jobs run warm by default (shard
   pools of baseline-reset VMs, warm-affinity placement); [~warm:false] keeps
   the original cold boot per job, which the warm path must match
   byte-for-byte. *)

type row = {
  b_name : string; (* workload *)
  b_op : string; (* record / replay / roundtrip / lint *)
  b_outcome : string; (* done / failed: msg / timeout / cancelled *)
  b_status : string;
  b_digest : string;
  b_attempts : int;
  b_latency : float; (* seconds, submission -> completion *)
  b_shard : int;
}

type report = {
  rows : row list; (* submission order *)
  aggregate : string; (* hex digest over per-job digests, in order *)
  ok : bool; (* every job Done *)
  wall_s : float;
  jobs_per_s : float;
  shards : int;
  stats : Stats.view;
  warm : Warm.stats; (* all shard pools folded; zero on a cold run *)
}

let row_of_result (r : (Job.spec, Job.output) Dispatcher.result) : row =
  let op =
    match r.r_payload with
    | Job.Record _ -> "record"
    | Job.Replay _ -> "replay"
    | Job.Roundtrip _ -> "roundtrip"
    | Job.Lint _ -> "lint"
  in
  let outcome, status, digest =
    match r.r_outcome with
    | Dispatcher.Done o -> ("done", o.Job.o_status, o.Job.o_digest)
    | Dispatcher.Failed msg -> ("failed: " ^ msg, "", "")
    | Dispatcher.Timed_out -> ("timeout", "", "")
    | Dispatcher.Cancelled_ -> ("cancelled", "", "")
  in
  {
    b_name = Job.workload_of r.r_payload;
    b_op = op;
    b_outcome = outcome;
    b_status = status;
    b_digest = digest;
    b_attempts = r.r_attempts;
    b_latency = r.r_latency;
    b_shard = r.r_shard;
  }

(* The aggregate folds outcome + status + digest per job, in submission
   order: two runs agree iff every job ended the same way. *)
let aggregate_of rows =
  let b = Buffer.create 256 in
  List.iter
    (fun r ->
      Buffer.add_string b r.b_name;
      Buffer.add_char b '\x00';
      Buffer.add_string b r.b_outcome;
      Buffer.add_char b '\x00';
      Buffer.add_string b r.b_status;
      Buffer.add_char b '\x00';
      Buffer.add_string b r.b_digest;
      Buffer.add_char b '\x01')
    rows;
  Digest.to_hex (Digest.string (Buffer.contents b))

let run_specs ?(shards = 4) ?config ?deadline_s ?slice ?(warm = true) specs :
    report =
  Job.preload ();
  let t0 = Unix.gettimeofday () in
  let stats = Stats.create () in
  let runner =
    if warm then Some (Job.runner ?slice ?config ~stats ~shards ()) else None
  in
  let d =
    match runner with
    | Some r ->
      Dispatcher.create ~shards ~place:r.Job.place ~stats ~run:r.Job.run ()
    | None ->
      Dispatcher.create ~shards ~stats ~run:(Job.run ?slice ?config) ()
  in
  let deadline = Option.map (fun s -> t0 +. s) deadline_s in
  List.iter (fun spec -> ignore (Dispatcher.submit d ?deadline spec)) specs;
  let results = Dispatcher.drain d in
  let wall_s = Unix.gettimeofday () -. t0 in
  let rows = List.map row_of_result results in
  {
    rows;
    aggregate = aggregate_of rows;
    ok = List.for_all (fun r -> r.b_outcome = "done") rows;
    wall_s;
    jobs_per_s =
      (if wall_s > 0. then float_of_int (List.length rows) /. wall_s else 0.);
    shards;
    stats = Stats.view stats;
    warm =
      (match runner with
      (* safe to read: Dispatcher.drain joined the shard domains *)
      | Some r -> r.Job.warm_stats ()
      | None -> Warm.zero);
  }

(* Record every registry workload into [out_dir]/NAME.trace, [rounds]
   times over (rounds > 1 exercise warm reuse: every job after a
   workload's first resets a pooled VM instead of booting; later rounds'
   traces land in NAME-rK.trace so rounds never overwrite each other
   mid-digest). *)
let run_registry ?shards ?config ?(seed = 1) ?deadline_s ?slice ?warm
    ?(rounds = 1) ~out_dir () : report =
  Job.ensure_out_dir out_dir;
  let names = Workloads.Registry.names () in
  let specs =
    List.concat_map
      (fun round ->
        List.map
          (fun name ->
            let file =
              if round = 0 then name ^ ".trace"
              else Fmt.str "%s-r%d.trace" name (round + 1)
            in
            Job.Record
              { workload = name; seed; out = Filename.concat out_dir file })
          names)
      (List.init rounds Fun.id)
  in
  run_specs ?shards ?config ?deadline_s ?slice ?warm specs

let pp_row ppf r =
  Fmt.pf ppf "%-24s %-9s shard %d  %2d att  %7.1f ms  %-10s %s" r.b_name r.b_op
    r.b_shard r.b_attempts (r.b_latency *. 1e3) r.b_outcome
    (if r.b_digest = "" then r.b_status
     else r.b_status ^ "  " ^ String.sub r.b_digest 0 12)

let pp_report ppf rep =
  List.iter (fun r -> Fmt.pf ppf "%a@\n" pp_row r) rep.rows;
  Fmt.pf ppf
    "aggregate %s (%s)@\n%d jobs / %d shards in %.2fs = %.1f jobs/s@\n%a@\n%a@\n"
    rep.aggregate
    (if rep.ok then "all done" else "FAILURES")
    (List.length rep.rows) rep.shards rep.wall_s rep.jobs_per_s Stats.pp_view
    rep.stats Warm.pp_stats rep.warm
