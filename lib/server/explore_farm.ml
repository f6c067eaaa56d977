(* Schedule exploration on the farm: the frontier fan-out driver.

   Explore is the first job kind that GENERATES jobs — each completed
   schedule returns the fresh alternative prefixes it exposed
   ([Job.output.o_children]), and this driver feeds them straight back
   into the shared dispatcher queue, so the exploration frontier spreads
   over every shard's warm VM pool instead of walking one schedule at a
   time.

   Determinism: results are consumed in submission order (the
   dispatcher's reorder buffer), children are submitted from the consumer
   loop in the order their parents complete, and each schedule's outcome
   is a pure function of its decision prefix — so the submission
   sequence, the explored set, and the report signature are identical for
   ANY shard count, including 1. Only wall-clock time varies. The
   sequential DFS in [Explore.Driver] walks the same tree in a different
   order; with an unhit schedule cap the two reach the same schedule set.

   Artifact emission stays out of the hot path: jobs only report flags
   and digests; once the frontier drains, the driver re-runs each
   interesting schedule locally (it is one prefix-forced run) to record,
   emit, and replay-verify its trace + witness. *)

module Control = Explore.Control
module Driver = Explore.Driver
module Oracle = Explore.Oracle

let run ?(shards = 4) ?(config = Vm.Rt.default_config) ?slice ?(seed = 1)
    ?(pb = 2) ?(db = 1) ?(dpor = true) ?(max_schedules = 2000)
    ?(max_artifacts = 4) ?out (e : Workloads.Registry.entry) :
    Driver.report =
  Job.preload ();
  (* build the conflict oracle before the shard domains race for it *)
  let oracle = Oracle.for_entry e in
  let stats = Stats.create () in
  let runner = Job.runner ?slice ~config ~stats ~shards () in
  let d =
    Dispatcher.create ~shards ~place:runner.Job.place ~stats
      ~run:runner.Job.run ()
  in
  let submitted = ref 0 in
  let submit prefix =
    ignore
      (Dispatcher.submit d
         (Job.Explore { workload = e.name; seed; prefix; pb; db; dpor }));
    incr submitted
  in
  let explored = ref 0 and pruned = ref 0 and aborted = ref 0 in
  let frontier_left = ref 0 in
  let digests = ref [] in
  let baseline = ref 0 in
  let interesting = ref [] in (* (prefix, fault?) in completion order *)
  let first_fail = ref None in
  submit [||];
  let outstanding = ref 1 in
  while !outstanding > 0 do
    match Dispatcher.next d with
    | None -> outstanding := 0
    | Some r ->
      decr outstanding;
      (match r.Dispatcher.r_outcome with
      | Dispatcher.Done o ->
        if o.Job.o_flags land Job.explore_aborted_bit <> 0 then incr aborted
        else begin
          incr explored;
          let dig = int_of_string ("0x" ^ o.Job.o_digest) in
          (* results arrive in submission order, so the first Done IS the
             root schedule: the baseline every divergence is judged by *)
          if !explored = 1 then baseline := dig;
          digests := dig :: !digests;
          pruned := !pruned + o.Job.o_pruned;
          let fault = o.Job.o_flags land Job.explore_fault_bit <> 0 in
          if fault && !first_fail = None then first_fail := Some !explored;
          let divergent = (not fault) && !explored > 1 && dig <> !baseline in
          if fault || divergent then begin
            let prefix =
              match r.Dispatcher.r_payload with
              | Job.Explore { prefix; _ } -> prefix
              | _ -> [||]
            in
            interesting := (prefix, fault) :: !interesting
          end;
          List.iter
            (fun child ->
              if !submitted < max_schedules then begin
                submit child;
                incr outstanding
              end
              else incr frontier_left)
            o.Job.o_children
        end
      | Dispatcher.Failed _ | Dispatcher.Timed_out | Dispatcher.Cancelled_ ->
        incr aborted)
  done;
  ignore (Dispatcher.drain d);
  (* emit + replay-verify the interesting schedules, re-run locally *)
  let failures =
    List.mapi
      (fun idx (prefix, fault) ->
        let oc = Control.run ~config ~seed ~pb ~db ~dpor ~oracle ~prefix e in
        let kind = if fault then Driver.Fault else Driver.Divergence in
        let out = if idx < max_artifacts then out else None in
        Driver.failure_of ?out ~config ~seed ~pb ~db ~dpor ~idx ~kind e oc)
      (List.rev !interesting)
  in
  {
    Driver.rp_workload = e.name;
    rp_pb = pb;
    rp_db = db;
    rp_dpor = dpor;
    rp_explored = !explored;
    rp_pruned = !pruned;
    rp_aborted = !aborted;
    rp_frontier_left = !frontier_left;
    rp_digests = List.sort_uniq compare !digests;
    rp_baseline = !baseline;
    rp_failures = failures;
    rp_first_failure_at = !first_fail;
  }
