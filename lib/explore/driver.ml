(* The systematic explorer: depth-first search over the schedule tree the
   controlled scheduler exposes, under preemption/delay bounds, with the
   DPOR-style pruning Control implements per segment.

   Each explored schedule is a full recorded session. The root schedule
   (empty prefix: never preempt, always FIFO) fixes the baseline outcome
   digest; every other schedule is classified against it:

   - FAULT: deadlock, fatal, halt, an instruction-limited run, or a thread
     death by uncaught exception (the "!! thread" marker in the output);
   - DIVERGENCE: a clean finish whose outcome digest differs from the
     baseline — the schedule-dependent outcomes a racy program exhibits.

   Both kinds are emitted (capped) as replayable DJVU2 trace files plus a
   compact witness — the decision vector, human-readable — and each
   emitted trace is immediately replayed back from its file to confirm it
   reproduces the identical failure (status, output, and state digest). *)

module Trace = Dejavu.Trace

type kind = Fault | Divergence

type failure = {
  fl_kind : kind;
  fl_status : string;
  fl_digest : int;
  fl_decisions : int array; (* the schedule witness *)
  fl_preempts : int;
  fl_trace : string option; (* emitted DJVU2 path *)
  fl_witness : string option; (* emitted witness path *)
  fl_replay_ok : bool option; (* Some: the emitted trace was re-replayed *)
}

type report = {
  rp_workload : string;
  rp_pb : int;
  rp_db : int;
  rp_dpor : bool;
  rp_explored : int; (* schedules run to completion *)
  rp_pruned : int; (* branches DPOR suppressed (bounds allowed them) *)
  rp_aborted : int; (* schedules cut short by an unready forced pick *)
  rp_frontier_left : int; (* prefixes still queued when the cap hit *)
  rp_digests : int list; (* the distinct outcome digests, sorted *)
  rp_baseline : int; (* the root schedule's outcome digest *)
  rp_failures : failure list; (* execution order *)
  rp_first_failure_at : int option; (* explored-count of the first fault *)
}

let kind_name = function Fault -> "fault" | Divergence -> "divergence"

let has_substr s sub =
  let n = String.length s and m = String.length sub in
  m = 0
  ||
  let rec go i =
    if i + m > n then false
    else if String.sub s i m = sub then true
    else go (i + 1)
  in
  go 0

(* Thread deaths leave the VM Finished but print the interpreter's
   uncaught-exception marker; everything else non-Finished is a fault
   (Running_ only survives to classification under an instruction limit,
   i.e. a live- or deadlock the limit cut short). *)
let is_fault (status : Vm.Rt.status) (output : string) =
  match status with
  | Vm.Rt.Deadlocked | Vm.Rt.Fatal _ | Vm.Rt.Halted _ | Vm.Rt.Running_ ->
    true
  | Vm.Rt.Finished -> has_substr output "!! thread"

let status_label (oc : Control.outcome) =
  let s = Vm.string_of_status oc.Control.oc_status in
  if oc.Control.oc_status = Vm.Rt.Finished && is_fault oc.oc_status oc.oc_output
  then s ^ " (thread death)"
  else s

(* Children of a completed schedule: for every decision slot the run
   discovered (at or beyond its forced prefix), one extended prefix per
   admissible untaken alternative. Returned deepest-first so a stack
   consumer explores depth-first; also folds the run's fresh pruned
   count (slots inside the prefix were expanded by an earlier run). *)
let expand ~fresh_from (oc : Control.outcome) : int array list * int =
  let dec = Control.decisions oc in
  let children = ref [] in
  let pruned = ref 0 in
  Array.iteri
    (fun i (n : Control.node) ->
      if i >= fresh_from then begin
        pruned := !pruned + n.Control.nd_pruned;
        List.iter
          (fun alt ->
            children :=
              Array.init (i + 1) (fun j -> if j = i then alt else dec.(j))
              :: !children)
          n.Control.nd_alts
      end)
    oc.Control.oc_log;
  (!children, !pruned)

(* --- the witness sidecar: a one-line schedule, human-readable --- *)

let witness_string ~workload ~seed ~pb ~db ~dpor (oc : Control.outcome) =
  let b = Buffer.create 256 in
  Buffer.add_string b "# dejavu explore schedule witness v1\n";
  Buffer.add_string
    b
    (Fmt.str "workload %s\nseed %d\npb %d\ndb %d\ndpor %b\nstatus %s\n"
       workload seed pb db dpor (status_label oc));
  Buffer.add_string b "decisions";
  Array.iter
    (fun (n : Control.node) ->
      Buffer.add_string b
        (match n.Control.nd_kind with
        | Control.Yield -> Fmt.str " y%d" n.Control.nd_taken
        | Control.Pick -> Fmt.str " p%d" n.Control.nd_taken))
    oc.Control.oc_log;
  Buffer.add_char b '\n';
  Buffer.contents b

(* Parse a witness back to the decision vector (tokens keep the slot kind
   for the reader; positionally the kinds are implied by the execution). *)
let decisions_of_witness (s : string) : int array =
  let line =
    List.find_opt
      (fun l -> String.length l > 10 && String.sub l 0 10 = "decisions ")
      (String.split_on_char '\n' s)
  in
  match line with
  | None -> [||]
  | Some l ->
    String.sub l 10 (String.length l - 10)
    |> String.split_on_char ' '
    |> List.filter_map (fun tok ->
           if tok = "" then None
           else int_of_string_opt (String.sub tok 1 (String.length tok - 1)))
    |> Array.of_list

(* Emit trace + witness for one schedule and replay the trace BACK FROM
   ITS FILE, checking it reproduces the identical failure: same status,
   same output, same state digest, every tape fully consumed. *)
let emit ~dir ~config ~seed ~pb ~db ~dpor ~idx ~kind
    (e : Workloads.Registry.entry) (oc : Control.outcome) :
    string option * string option * bool option =
  match oc.Control.oc_trace with
  | None -> (None, None, None)
  | Some trace ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let base =
      Filename.concat dir (Fmt.str "%s-%s-%03d" e.name (kind_name kind) idx)
    in
    let tpath = base ^ ".trace" and wpath = base ^ ".witness" in
    Trace.save tpath trace;
    let w = open_out_bin wpath in
    Fun.protect
      ~finally:(fun () -> close_out w)
      (fun () ->
        output_string w (witness_string ~workload:e.name ~seed ~pb ~db ~dpor oc));
    let ok =
      match Trace.load tpath with
      | exception _ -> false
      | trace' ->
        let run, leftovers =
          Dejavu.replay ~config ~natives:e.natives ~observe:false e.program
            trace'
        in
        leftovers = []
        && run.Dejavu.status = oc.Control.oc_status
        && String.equal run.Dejavu.output oc.Control.oc_output
        && run.Dejavu.state_digest = oc.Control.oc_state
    in
    (Some tpath, Some wpath, Some ok)

let failure_of ?out ~config ~seed ~pb ~db ~dpor ~idx ~kind
    (e : Workloads.Registry.entry) (oc : Control.outcome) : failure =
  let tpath, wpath, replay_ok =
    match out with
    | Some dir -> emit ~dir ~config ~seed ~pb ~db ~dpor ~idx ~kind e oc
    | None -> (None, None, None)
  in
  {
    fl_kind = kind;
    fl_status = status_label oc;
    fl_digest = oc.Control.oc_digest;
    fl_decisions = Control.decisions oc;
    fl_preempts = oc.Control.oc_preempts;
    fl_trace = tpath;
    fl_witness = wpath;
    fl_replay_ok = replay_ok;
  }

(* --- the sequential DFS --- *)

let run ?(config = Vm.Rt.default_config) ?(seed = 1) ?limit ?(pb = 2)
    ?(db = 1) ?(dpor = true) ?(max_schedules = 2000) ?(max_artifacts = 4)
    ?out ?(stop_on_failure = false) ?oracle
    (e : Workloads.Registry.entry) : report =
  let oracle =
    match oracle with Some o -> o | None -> Oracle.for_entry e
  in
  let stack = ref [ [||] ] in
  let explored = ref 0 and pruned = ref 0 and aborted = ref 0 in
  let digests = ref [] in
  let baseline = ref 0 in
  let failures = ref [] in
  let artifacts = ref 0 in
  let first_fail = ref None in
  (try
     while !stack <> [] && !explored + !aborted < max_schedules do
       match !stack with
       | [] -> assert false
       | prefix :: rest ->
         stack := rest;
         let oc =
           Control.run ~config ~seed ?limit ~pb ~db ~dpor ~oracle ~prefix e
         in
         if oc.Control.oc_aborted then incr aborted
         else begin
           incr explored;
           if !explored = 1 then baseline := oc.Control.oc_digest;
           digests := oc.Control.oc_digest :: !digests;
           let children, fresh_pruned =
             expand ~fresh_from:(Array.length prefix) oc
           in
           pruned := !pruned + fresh_pruned;
           stack := children @ !stack;
           let fault = is_fault oc.Control.oc_status oc.Control.oc_output in
           let divergent =
             (not fault) && !explored > 1
             && oc.Control.oc_digest <> !baseline
           in
           if fault || divergent then begin
             let kind = if fault then Fault else Divergence in
             let idx = List.length !failures in
             let out =
               if !artifacts < max_artifacts then out else None
             in
             if out <> None then incr artifacts;
             failures :=
               failure_of ?out ~config ~seed ~pb ~db ~dpor ~idx ~kind e oc
               :: !failures
           end;
           if fault && !first_fail = None then begin
             first_fail := Some !explored;
             if stop_on_failure then raise Exit
           end
         end
     done
   with Exit -> ());
  {
    rp_workload = e.name;
    rp_pb = pb;
    rp_db = db;
    rp_dpor = dpor;
    rp_explored = !explored;
    rp_pruned = !pruned;
    rp_aborted = !aborted;
    rp_frontier_left = List.length !stack;
    rp_digests = List.sort_uniq compare !digests;
    rp_baseline = !baseline;
    rp_failures = List.rev !failures;
    rp_first_failure_at = !first_fail;
  }

(* A stable fingerprint of an exploration — what the determinism tests
   compare across runs and shard counts (failure order is execution order
   sequentially but completion order on the farm, so failures fold in
   sorted order). *)
let signature (r : report) =
  let h = ref (Control.mix 0x5eed (Hashtbl.hash (r.rp_explored, r.rp_aborted))) in
  let digs =
    List.sort compare (List.map (fun f -> f.fl_digest) r.rp_failures)
  in
  List.iter (fun d -> h := Control.mix !h d) digs;
  !h

let pp_report ppf (r : report) =
  Fmt.pf ppf
    "explore %s: %d schedules explored, %d pruned, %d aborted, %d distinct \
     outcomes, %d failures%s%s@."
    r.rp_workload r.rp_explored r.rp_pruned r.rp_aborted
    (List.length r.rp_digests)
    (List.length r.rp_failures)
    (match r.rp_first_failure_at with
    | Some k -> Fmt.str " (first fault at schedule %d)" k
    | None -> "")
    (if r.rp_frontier_left > 0 then
       Fmt.str " [capped: %d prefixes unexplored]" r.rp_frontier_left
     else "");
  List.iter
    (fun f ->
      Fmt.pf ppf "  %-10s %s  digest %016x  preempts %d  witness %d slots%s%s@."
        (kind_name f.fl_kind) f.fl_status
        (f.fl_digest land max_int)
        f.fl_preempts
        (Array.length f.fl_decisions)
        (match f.fl_trace with Some p -> "\n    trace " ^ p | None -> "")
        (match f.fl_replay_ok with
        | Some true -> " (replays identically)"
        | Some false -> " (REPLAY MISMATCH)"
        | None -> ""))
    r.rp_failures
