(* A replay-based debugging session: DejaVu drives a deterministic replay
   one instruction at a time; the tool side inspects the paused VM only
   through remote reflection (an Address_space), so stopping, stepping,
   querying, and resuming perturb nothing — and because the replay is
   deterministic, the session can also travel *backwards* by restarting the
   replay and stopping earlier. *)

type stop_reason =
  | Hit of Breakpoint.t
  | Watch_fired of watchpoint * int * int (* watchpoint, old, new *)
  | Step_done
  | Finished of Vm.Rt.status
  | Diverged of string

(* Watchpoints observe a static slot and stop the replay when its value
   changes — deterministically: the same watch fires at the same step on
   every replay of the same trace. *)
and watchpoint = {
  w_id : int;
  w_class : string;
  w_field : string;
  w_slot : int; (* resolved globals index *)
  mutable w_last : int;
}

(* A checkpoint pairs a whole-VM snapshot with the matching DejaVu session
   snapshot (tape cursors, logical clock), keyed by the step count. *)
type checkpoint = {
  ck_step : int;
  ck_vm : Vm.Snapshot.t;
  ck_session : Dejavu.Session.snap;
}

type t = {
  program : Bytecode.Decl.program;
  natives : Vm.Native.spec list;
  config : Vm.Rt.config;
  trace : Dejavu.Trace.t;
  mutable vm : Vm.t;
  mutable session : Dejavu.Session.t;
  mutable space : Remote_reflection.Address_space.t;
  mutable breakpoints : Breakpoint.t list;
  mutable next_bp_id : int;
  mutable steps : int; (* instructions replayed so far *)
  (* checkpoint-accelerated time travel *)
  checkpoint_interval : int; (* 0 disables automatic checkpoints *)
  mutable checkpoints : checkpoint list; (* newest first *)
  mutable restores : int; (* how many restores goto_step performed *)
  mutable watchpoints : watchpoint list;
  mutable next_watch_id : int;
}

let fresh_vm (d : t) =
  let vm = Vm.create ~config:d.config ~natives:d.natives d.program in
  let session = Dejavu.Replayer.attach vm d.trace in
  Vm.boot vm;
  d.vm <- vm;
  d.session <- session;
  d.space <- Remote_reflection.Address_space.of_vm vm;
  d.steps <- 0;
  (* checkpoints belong to the discarded VM instance *)
  d.checkpoints <- []

(* Snapshot step 0, so backwards travel never needs a fresh replay and the
   checkpoint cache is never discarded. *)
let take_checkpoint_initial (d : t) =
  d.checkpoints <-
    [
      {
        ck_step = 0;
        ck_vm = Vm.Snapshot.save d.vm;
        ck_session = Dejavu.Session.snapshot d.session;
      };
    ]

(* Start a session from a program and a recorded trace.
   [checkpoint_interval] is the automatic checkpoint period in replayed
   instructions (0 disables; time travel then replays from the start). *)
let start ?(config = Vm.Rt.default_config) ?(natives = [])
    ?(checkpoint_interval = 25_000) program trace : t =
  let vm = Vm.create ~config ~natives program in
  let session = Dejavu.Replayer.attach vm trace in
  Vm.boot vm;
  {
    program;
    natives;
    config;
    trace;
    vm;
    session;
    space = Remote_reflection.Address_space.of_vm vm;
    breakpoints = [];
    next_bp_id = 1;
    steps = 0;
    checkpoint_interval;
    checkpoints = [];
    restores = 0;
    watchpoints = [];
    next_watch_id = 1;
  }
  |> fun d ->
  if checkpoint_interval > 0 then take_checkpoint_initial d;
  d

(* Record a fresh execution (with [seed]) and open a session on its trace. *)
let record_and_start ?(config = Vm.Rt.default_config) ?(natives = [])
    ?(seed = 1) program : t * Dejavu.run =
  let run, trace = Dejavu.record ~config ~natives ~seed program in
  (start ~config ~natives program trace, run)

(* Resolve a static to its globals slot. *)
let resolve_static (d : t) ~cls ~field =
  let vm = d.vm in
  let rec go cid =
    if cid < 0 then invalid_arg (Fmt.str "no static %s.%s" cls field)
    else
      let c = vm.Vm.Rt.classes.(cid) in
      let found = ref (-1) in
      Array.iteri (fun i (n, _) -> if n = field then found := i) c.rc_statics;
      if !found >= 0 then c.rc_statics_base + !found else go c.rc_super
  in
  go (Vm.Rt.class_id vm cls)

let add_watchpoint (d : t) ~cls ~field : watchpoint =
  let slot = resolve_static d ~cls ~field in
  let w =
    {
      w_id = d.next_watch_id;
      w_class = cls;
      w_field = field;
      w_slot = slot;
      w_last = d.space.peek_global slot;
    }
  in
  d.next_watch_id <- d.next_watch_id + 1;
  d.watchpoints <- d.watchpoints @ [ w ];
  w

let remove_watchpoint (d : t) id =
  d.watchpoints <- List.filter (fun w -> w.w_id <> id) d.watchpoints

(* Did any watched static change? Updates w_last as a side effect. *)
let fired_watchpoint (d : t) : (watchpoint * int * int) option =
  List.fold_left
    (fun acc w ->
      let now = d.vm.Vm.Rt.globals.(w.w_slot) in
      if now <> w.w_last then begin
        let old = w.w_last in
        w.w_last <- now;
        match acc with None -> Some (w, old, now) | some -> some
      end
      else acc)
    None d.watchpoints

(* Silently resynchronize watchpoints (after time travel). *)
let resync_watchpoints (d : t) =
  List.iter (fun w -> w.w_last <- d.vm.Vm.Rt.globals.(w.w_slot)) d.watchpoints

let add_breakpoint (d : t) ~cls ~meth loc : Breakpoint.t =
  let b =
    { Breakpoint.bp_id = d.next_bp_id; bp_class = cls; bp_method = meth; bp_loc = loc }
  in
  d.next_bp_id <- d.next_bp_id + 1;
  d.breakpoints <- d.breakpoints @ [ b ];
  b

let remove_breakpoint (d : t) id =
  d.breakpoints <- List.filter (fun b -> b.Breakpoint.bp_id <> id) d.breakpoints

let running (d : t) = Vm.status d.vm = Vm.Rt.Running_

let position (d : t) : (Vm.Rt.rmethod * int) option =
  if running d then
    let t = Vm.Rt.cur d.vm in
    Some (t.t_meth, t.t_pc)
  else None

let hit_breakpoint (d : t) : Breakpoint.t option =
  match position d with
  | None -> None
  | Some (meth, pc) ->
    List.find_opt (fun b -> Breakpoint.matches b d.vm meth pc) d.breakpoints

(* --- checkpoints --------------------------------------------------------- *)

let take_checkpoint (d : t) =
  (* replay is deterministic, so a checkpoint for this step may already
     exist from a previous pass over this part of the timeline *)
  if not (List.exists (fun ck -> ck.ck_step = d.steps) d.checkpoints) then
    d.checkpoints <-
      List.sort
        (fun a b -> compare b.ck_step a.ck_step)
        ({
           ck_step = d.steps;
           ck_vm = Vm.Snapshot.save d.vm;
           ck_session = Dejavu.Session.snapshot d.session;
         }
        :: d.checkpoints)

let restore_checkpoint (d : t) (ck : checkpoint) =
  Vm.Snapshot.restore d.vm ck.ck_vm;
  Dejavu.Session.restore d.session ck.ck_session;
  d.steps <- ck.ck_step;
  d.restores <- d.restores + 1

(* The newest checkpoint at or before step [n]. *)
let checkpoint_before (d : t) n =
  List.find_opt (fun ck -> ck.ck_step <= n) d.checkpoints

let step1 (d : t) =
  Vm.step d.vm;
  d.steps <- d.steps + 1;
  if
    d.checkpoint_interval > 0
    && d.steps mod d.checkpoint_interval = 0
    && Vm.status d.vm = Vm.Rt.Running_
  then take_checkpoint d

(* One stop check after a step: watchpoints first, then breakpoints. *)
let stopped_here (d : t) : stop_reason option =
  match fired_watchpoint d with
  | Some (w, old, now) -> Some (Watch_fired (w, old, now))
  | None -> (
    match hit_breakpoint d with Some b -> Some (Hit b) | None -> None)

(* One replayed instruction, then [next ()]; or [Diverged] when the replay
   cannot go on: a divergence, a recorded schedule that does not fit, or
   trace bytes that turn out malformed mid-replay. *)
let step_then (d : t) next : stop_reason =
  match step1 d with
  | () -> next ()
  | exception
      ( Dejavu.Divergence msg
      | Vm.Sched.Sched_error msg
      | Dejavu.Trace.Format_error msg ) ->
    Diverged msg

(* Execute up to [n] instructions; stop early on a break/watch or end. *)
let step (d : t) n : stop_reason =
  let rec go left =
    if not (running d) then Finished (Vm.status d.vm)
    else if left = 0 then Step_done
    else
      step_then d (fun () ->
          match stopped_here d with Some r -> r | None -> go (left - 1))
  in
  go n

let continue_ (d : t) : stop_reason =
  let rec go () =
    if not (running d) then Finished (Vm.status d.vm)
    else
      step_then d (fun () ->
          match stopped_here d with Some r -> r | None -> go ())
  in
  go ()

(* Deterministic time travel to absolute step [n]: restore the newest
   checkpoint at or before [n] — both for backwards travel and to shortcut
   long forward jumps — then re-execute forward. Falls back to a fresh
   replay only when no checkpoint helps (e.g. checkpointing disabled). *)
let goto_step (d : t) n : stop_reason =
  (match checkpoint_before d n with
  | Some ck when n < d.steps || ck.ck_step > d.steps -> restore_checkpoint d ck
  | Some _ -> () (* already between the best checkpoint and the target *)
  | None -> if n < d.steps then fresh_vm d);
  let want = n - d.steps in
  let rec go left =
    if not (running d) then Finished (Vm.status d.vm)
    else if left = 0 then Step_done
    else step_then d (fun () -> go (left - 1))
  in
  let r = go want in
  resync_watchpoints d;
  r

(* --- inspection: everything below reads only through the space --------- *)

let space (d : t) = d.space

let state_digest (d : t) = Vm.digest d.vm

let output (d : t) = d.space.output_snapshot ()

let threads (d : t) : Remote_reflection.Address_space.thread_snapshot list =
  List.init (d.space.thread_count ()) (fun tid -> d.space.thread tid)

let frames (d : t) tid = Remote_reflection.Remote_frames.frames d.space tid

(* Intentionally alter an integer static in the replayed VM — the paper's
   footnote 3 feature. Returns the poke count; once non-zero, the accuracy
   guarantee for the rest of this replay is void (and [perturbed] says so). *)
let set_static (d : t) ~cls ~field value =
  let slot = resolve_static d ~cls ~field in
  d.space.poke_global slot value;
  resync_watchpoints d

let perturbed (d : t) = d.space.writes > 0

let current_line (d : t) : (string * string * int option) option =
  match position d with
  | None -> None
  | Some (meth, pc) ->
    let cls = d.vm.Vm.Rt.classes.(meth.rm_cid).rc_name in
    let line =
      match meth.rm_compiled with
      | Some c -> Remote_reflection.Remote_frames.line_of_compiled c pc
      | None -> None
    in
    Some (cls, meth.rm_name, line)
