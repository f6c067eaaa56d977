(* A replay-based debugging session: DejaVu drives a deterministic replay
   one instruction at a time; the tool side inspects the paused VM only
   through remote reflection (an Address_space), so stopping, stepping,
   querying, and resuming perturb nothing — and because the replay is
   deterministic, the session can also travel *backwards* by restoring a
   checkpoint and replaying forward to an earlier step. Whether the
   replay passed is Dejavu's verdict, decided by its replay phases. *)

type stop_reason =
  | Hit of Breakpoint.t
  | Watch_fired of watchpoint * int * int (* watchpoint, old, new *)
  | Step_done
  | Ended of Dejavu.verdict (* the replay reached its end *)

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
  trace : Dejavu.Trace.t;
  vm : Vm.t;
  session : Dejavu.Session.t;
  space : Remote_reflection.Address_space.t;
  mutable advanced : Dejavu.verdict; (* how the last advance went *)
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

let running (d : t) = Vm.status d.vm = Vm.Rt.Running_

(* The replay's verdict once it has ended; [None] while it runs. *)
let verdict (d : t) =
  if running d then None
  else Some (fst (Dejavu.replay_end d.session d.advanced))

(* Snapshot the current position, unless the replay has ended (a restored
   checkpoint resumes a running replay) or this step already has one:
   replay is deterministic, so a checkpoint for this step may exist from a
   previous pass over this part of the timeline. *)
let take_checkpoint (d : t) =
  if running d && not (List.exists (fun ck -> ck.ck_step = d.steps) d.checkpoints)
  then
    d.checkpoints <-
      List.sort
        (fun a b -> compare b.ck_step a.ck_step)
        ({
           ck_step = d.steps;
           ck_vm = Vm.Snapshot.save d.vm;
           ck_session = Dejavu.Session.snapshot d.session;
         }
        :: d.checkpoints)

(* Open a replay of [trace] on a fresh VM and boot it, through Dejavu's
   replay phases: a trace the program refuses is the [Rejected] verdict,
   and a boot that departs from the recording ends the replay at step 0.
   Step 0 is always checkpointed, so backwards travel restores it rather
   than opening the replay again. [checkpoint_interval] is the automatic
   checkpoint period in replayed instructions (0 disables; time travel
   then replays from step 0). *)
let start ?(config = Vm.Rt.default_config) ?(natives = [])
    ?(checkpoint_interval = 25_000) program trace : (t, Dejavu.verdict) result
    =
  let vm = Vm.create ~config ~natives program in
  match Dejavu.replay_open vm (fun () -> Dejavu.Replayer.attach vm trace) with
  | Error verdict -> Error verdict
  | Ok session ->
    let d =
      {
        trace;
        vm;
        session;
        space = Remote_reflection.Address_space.of_vm vm;
        advanced = Dejavu.replay_advance vm (fun () -> Vm.boot vm);
        breakpoints = [];
        next_bp_id = 1;
        steps = 0;
        checkpoint_interval;
        checkpoints = [];
        restores = 0;
        watchpoints = [];
        next_watch_id = 1;
      }
    in
    take_checkpoint d;
    Ok d

(* Record a fresh execution (with [seed]) and open a session on its trace. *)
let record_and_start ?(config = Vm.Rt.default_config) ?(natives = [])
    ?(seed = 1) program : t * Dejavu.run =
  let run, trace = Dejavu.record ~config ~natives ~seed program in
  match start ~config ~natives program trace with
  | Ok d -> (d, run)
  | Error v ->
    (* the header of a fresh recording names this very program *)
    invalid_arg ("record_and_start: " ^ Dejavu.string_of_verdict v)

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

(* --- checkpoints and replay ----------------------------------------- *)

let restore_checkpoint (d : t) (ck : checkpoint) =
  Vm.Snapshot.restore d.vm ck.ck_vm;
  Dejavu.Session.restore d.session ck.ck_session;
  d.advanced <- Dejavu.Ok (* checkpoints are taken only while running *);
  d.steps <- ck.ck_step;
  d.restores <- d.restores + 1

(* The newest checkpoint at or before step [n]. *)
let checkpoint_before (d : t) n =
  List.find_opt (fun ck -> ck.ck_step <= n) d.checkpoints

(* One replayed instruction, through Dejavu's replay phases: a failure
   ends the VM [Fatal] and leaves its verdict in [advanced]. *)
let step1 (d : t) =
  d.advanced <- Dejavu.replay_advance d.vm (fun () -> Vm.step d.vm);
  if d.advanced = Dejavu.Ok then begin
    d.steps <- d.steps + 1;
    if d.checkpoint_interval > 0 && d.steps mod d.checkpoint_interval = 0
    then take_checkpoint d
  end

(* One stop check after a step: watchpoints first, then breakpoints. *)
let stopped_here (d : t) : stop_reason option =
  match fired_watchpoint d with
  | Some (w, old, now) -> Some (Watch_fired (w, old, now))
  | None -> (
    match hit_breakpoint d with Some b -> Some (Hit b) | None -> None)

(* The one replay loop: up to [left] instructions, stopping early at the
   end of the replay with its verdict or, when [stops], at a watchpoint
   or breakpoint. *)
let rec advance (d : t) ~stops left : stop_reason =
  match verdict d with
  | Some v -> Ended v
  | None when left <= 0 -> Step_done
  | None -> (
    step1 d;
    match if stops && d.advanced = Dejavu.Ok then stopped_here d else None with
    | Some r -> r
    | None -> advance d ~stops (left - 1))

(* Execute up to [n] instructions; stop early on a break/watch or end. *)
let step (d : t) n = advance d ~stops:true n

let continue_ (d : t) = advance d ~stops:true max_int

(* Deterministic time travel to absolute step [n]: restore the newest
   checkpoint at or before [n] — for backwards travel and to shortcut
   long forward jumps — then re-execute forward. *)
let goto_step (d : t) n : stop_reason =
  (match checkpoint_before d n with
  | Some ck when n < d.steps || ck.ck_step > d.steps -> restore_checkpoint d ck
  | _ -> ());
  let r = advance d ~stops:false (n - d.steps) in
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
