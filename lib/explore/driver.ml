(* The systematic explorer: a breadth-first search over the schedule tree
   the controlled scheduler exposes, under preemption/delay bounds, with
   the DPOR-style pruning Control implements per segment.

   Each explored schedule is a full recorded session. The root schedule
   (empty prefix: never preempt, always FIFO) fixes the baseline outcome
   digest; every other schedule is classified against it:

   - FAULT: deadlock, fatal, halt, an instruction-limited run, or a thread
     death by uncaught exception (the "!! thread" marker in the output);
   - DIVERGENCE: a clean finish whose outcome digest differs from the
     baseline — the schedule-dependent outcomes a racy program exhibits.

   One loop serves every runner. The frontier is a FIFO queue of compact
   children — (parent decision vector, shared by all its siblings; slot;
   alternative) — that become prefix arrays only when submitted. A runner
   ([in_process], or the farm's shard pool) keeps up to its [pi_width]
   submissions in flight and returns their probes in submission order, so
   the submission sequence (the root, then each consumed schedule's
   children in turn) and with it the whole report are the same whatever
   the runner. The [max_schedules] cap counts submissions.

   Failure records are built after the frontier drains, by re-running each
   interesting schedule locally. With [out], the first [max_artifacts] are
   emitted as replayable DJVU2 trace files plus a compact witness — the
   decision vector, human-readable — and each emitted trace is immediately
   replayed back from its file to confirm it reproduces the identical
   failure (status, output, and state digest). *)

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
  rp_frontier_left : int; (* prefixes queued or in flight at the end *)
  rp_digests : int list; (* the distinct outcome digests, sorted *)
  rp_baseline : int; (* the root schedule's outcome digest *)
  rp_failures : failure list; (* submission order *)
  rp_first_failure_at : int option; (* explored-count of the first fault *)
}

(* What one schedule tells the search, wherever it ran. *)
type probe = {
  pr_aborted : bool; (* a forced pick named a non-ready thread *)
  pr_fault : bool;
  pr_digest : int; (* outcome digest *)
  pr_decisions : int array; (* the full vector: its children's parent *)
  pr_children : (int * int) list; (* fresh (slot, alternative), deepest first *)
  pr_pruned : int; (* fresh branches DPOR suppressed *)
}

(* What a runner needs to run schedules: the workload, seed and base config
   (to boot VMs, or keep warm ones), and the probe of one prefix — on [vm]
   when given, a VM booted for [j_entry] under [j_seed], else on a fresh
   one. *)
type job = {
  j_entry : Workloads.Registry.entry;
  j_config : Vm.Rt.config;
  j_seed : int;
  j_probe : ?vm:Vm.t -> int array -> probe;
}

(* The runner's side of the search loop: up to [pi_width] submitted
   prefixes in flight; [pi_next] returns the oldest one's probe. *)
type pipe = {
  pi_width : int;
  pi_submit : int array -> unit;
  pi_next : unit -> probe;
}

(* A runner opens a pipe for a job, hands it to the loop, and tears it
   down when the loop returns. *)
type runner = job -> (pipe -> unit) -> unit

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

(* Run one schedule and reduce it to its probe. Children are the slots the
   run discovered at or beyond its forced prefix (slots inside it were
   expanded by an earlier run), one per admissible untaken alternative,
   deepest slot first: a deep alternative changes only the tail of the
   run and exposes few fresh slots of its own, so a capped search keeps
   its frontier near one schedule's width. The pruned count is folded
   over the same fresh slots. *)
let probe ~config ~seed ~pb ~db ~dpor ~oracle e ?vm prefix : probe =
  let oc = Control.run ~config ~seed ?vm ~pb ~db ~dpor ~oracle ~prefix e in
  let children = ref [] and pruned = ref 0 in
  if not oc.Control.oc_aborted then
    for i = Array.length prefix to Array.length oc.Control.oc_log - 1 do
      let n = oc.Control.oc_log.(i) in
      pruned := !pruned + n.Control.nd_pruned;
      List.iter (fun alt -> children := (i, alt) :: !children) n.Control.nd_alts
    done;
  {
    pr_aborted = oc.Control.oc_aborted;
    pr_fault =
      (not oc.Control.oc_aborted)
      && is_fault oc.Control.oc_status oc.Control.oc_output;
    pr_digest = oc.Control.oc_digest;
    pr_decisions = Control.decisions oc;
    pr_children = !children;
    pr_pruned = !pruned;
  }

(* The default runner: one schedule at a time, on a fresh VM in this
   domain, run when the loop asks for its probe. *)
let in_process : runner =
 fun job k ->
  let pending = Queue.create () in
  k
    {
      pi_width = 1;
      pi_submit = (fun prefix -> Queue.push prefix pending);
      pi_next = (fun () -> job.j_probe (Queue.pop pending));
    }

(* A frontier entry: [parent]'s decisions up to [slot], which takes [alt]
   instead. The root is slot -1 of an empty parent. *)
type child = { parent : int array; slot : int; alt : int }

let prefix_of c =
  if c.slot < 0 then [||]
  else begin
    let p = Array.sub c.parent 0 (c.slot + 1) in
    p.(c.slot) <- c.alt;
    p
  end

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

let failure_of ~out ~config ~seed ~pb ~db ~dpor ~idx ~kind
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

(* --- the search loop --- *)

let run ?(config = Vm.Rt.default_config) ?(seed = 1) ?(pb = 2) ?(db = 1)
    ?(dpor = true) ?(max_schedules = 2000) ?(max_artifacts = 4) ?out
    ?(stop_on_failure = false) ?(runner = in_process)
    (e : Workloads.Registry.entry) : report =
  let oracle = Oracle.for_entry e in
  let frontier = Queue.create () in
  Queue.push { parent = [||]; slot = -1; alt = 0 } frontier;
  let in_flight = Queue.create () in
  let submitted = ref 0 in
  let explored = ref 0 and pruned = ref 0 and aborted = ref 0 in
  let digests = ref [] in
  let baseline = ref 0 in
  let interesting = ref [] in (* (child, fault?), newest first *)
  let first_fail = ref None in
  let consume c (p : probe) =
    if p.pr_aborted then incr aborted
    else begin
      incr explored;
      if !explored = 1 then baseline := p.pr_digest;
      digests := p.pr_digest :: !digests;
      pruned := !pruned + p.pr_pruned;
      List.iter
        (fun (slot, alt) ->
          Queue.push { parent = p.pr_decisions; slot; alt } frontier)
        p.pr_children;
      let divergent =
        (not p.pr_fault) && !explored > 1 && p.pr_digest <> !baseline
      in
      if p.pr_fault || divergent then
        interesting := (c, p.pr_fault) :: !interesting;
      if p.pr_fault && !first_fail = None then first_fail := Some !explored
    end
  in
  let job =
    {
      j_entry = e;
      j_config = config;
      j_seed = seed;
      j_probe = probe ~config ~seed ~pb ~db ~dpor ~oracle e;
    }
  in
  runner job (fun pipe ->
      let rec loop () =
        while
          Queue.length in_flight < pipe.pi_width
          && (not (Queue.is_empty frontier))
          && !submitted < max_schedules
        do
          let c = Queue.pop frontier in
          pipe.pi_submit (prefix_of c);
          Queue.push c in_flight;
          incr submitted
        done;
        if not (Queue.is_empty in_flight) then begin
          consume (Queue.pop in_flight) (pipe.pi_next ());
          if not (stop_on_failure && !first_fail <> None) then loop ()
        end
      in
      loop ());
  (* re-run each interesting schedule locally to record, emit and
     replay-verify it *)
  let failures =
    List.mapi
      (fun idx (c, fault) ->
        let oc =
          Control.run ~config ~seed ~pb ~db ~dpor ~oracle ~prefix:(prefix_of c)
            e
        in
        let kind = if fault then Fault else Divergence in
        let out = if idx < max_artifacts then out else None in
        failure_of ~out ~config ~seed ~pb ~db ~dpor ~idx ~kind e oc)
      (List.rev !interesting)
  in
  {
    rp_workload = e.name;
    rp_pb = pb;
    rp_db = db;
    rp_dpor = dpor;
    rp_explored = !explored;
    rp_pruned = !pruned;
    rp_aborted = !aborted;
    rp_frontier_left = Queue.length frontier + Queue.length in_flight;
    rp_digests = List.sort_uniq compare !digests;
    rp_baseline = !baseline;
    rp_failures = failures;
    rp_first_failure_at = !first_fail;
  }

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
