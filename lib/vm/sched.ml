(* The thread package: a uniprocessor green-thread scheduler with a FIFO
   ready queue, Java monitor semantics (enter/exit, wait sets, notify), sleep
   and timed wait driven by wall-clock reads, join, and interrupt.

   Everything here is deliberately *ordinary program state*: no randomness,
   no hidden OS state. That is the paper's central cross-optimization
   benefit — because DejaVu replays the whole thread package along with the
   application, monitorenter outcomes, next-thread choices, and notify
   targets reproduce themselves and need no trace records. The only inputs
   are (a) the preemption bit sampled at yield points and (b) the wall-clock
   values read here — both captured by DejaVu as non-deterministic events. *)

(* A scheduling-layer contract violation — today only: an [h_pick] hook chose
   a thread that is not in the ready queue. Raised *before* any scheduler
   mutation, so a caller (the schedule explorer) can treat it as a pruned
   branch and keep the VM. *)
exception Sched_error of string

let illegal_monitor () = raise (Rt.Vm_exception "IllegalMonitorStateException")

(* Instrumentation: monitor ownership edges and cross-thread happens-before
   edges (join completion, interrupt delivery). No-ops unless a listener —
   e.g. the tests' sharing tracker — installed the hook. *)
let lock_event (vm : Rt.t) acquired (m : Rt.monitor) tid =
  match vm.hooks.h_lock with Some f -> f vm acquired m.m_id tid | None -> ()

let hb_event (vm : Rt.t) from_tid to_tid =
  match vm.hooks.h_hb with Some f -> f vm from_tid to_tid | None -> ()

(* --- monitors ------------------------------------------------------- *)

(* Monitor ids are assigned lazily, in execution order, so they reproduce
   exactly under replay. Id 0 means "no monitor yet". *)
let monitor_of_object (vm : Rt.t) addr =
  let mid = Layout.monitor_of vm addr in
  if mid <> 0 then vm.monitors.(mid)
  else begin
    let mid = vm.n_monitors in
    if mid >= Array.length vm.monitors then begin
      let bigger =
        Array.init
          (2 * Array.length vm.monitors)
          (fun i ->
            if i < vm.n_monitors then vm.monitors.(i)
            else
              {
                Rt.m_id = i;
                m_owner = -1;
                m_count = 0;
                m_entryq = Queue.create ();
                m_waitset = [];
              })
      in
      vm.monitors <- bigger
    end;
    vm.n_monitors <- vm.n_monitors + 1;
    Layout.set_monitor vm addr mid;
    vm.monitors.(mid)
  end

(* --- ready queue and dispatch --------------------------------------- *)

let ready (vm : Rt.t) tid =
  let t = vm.threads.(tid) in
  t.t_state <- Rt.Ready;
  Queue.add tid vm.readyq

(* Push a value onto a parked thread's operand stack (wait results are
   materialized by the waker, before the thread is runnable again). *)
let park_push (vm : Rt.t) (t : Rt.thread) v =
  Layout.stack_set vm t t.t_sp v;
  t.t_sp <- t.t_sp + 1

(* Contend for a monitor on behalf of a parked thread: acquire it if free,
   otherwise queue on the entry list. Used by notify/timeout/interrupt
   wakeups and by blocked monitorenter. *)
let contend (vm : Rt.t) (t : Rt.thread) (m : Rt.monitor) =
  if m.m_owner = -1 then begin
    m.m_owner <- t.tid;
    m.m_count <- t.t_saved_count;
    lock_event vm true m t.tid;
    ready vm t.tid
  end
  else begin
    t.t_state <- Rt.Blocked;
    Queue.add t.tid m.m_entryq
  end

let insert_sleeper (vm : Rt.t) wake tid =
  let rec ins = function
    | [] -> [ (wake, tid) ]
    | (w, id) :: rest as l ->
      if (wake, tid) < (w, id) then (wake, tid) :: l else (w, id) :: ins rest
  in
  vm.sleepers <- ins vm.sleepers

let remove_sleeper (vm : Rt.t) tid =
  vm.sleepers <- List.filter (fun (_, id) -> id <> tid) vm.sleepers

(* Wake a thread whose sleep/timed-wait deadline passed. *)
let wake_sleeper (vm : Rt.t) tid =
  let t = vm.threads.(tid) in
  match t.t_state with
  | Rt.Sleeping -> ready vm tid
  | Rt.Timed_waiting ->
    (* timed out: leave the wait set, push "not interrupted", re-acquire *)
    let m = vm.monitors.(t.t_wait_mon) in
    m.m_waitset <- List.filter (fun id -> id <> tid) m.m_waitset;
    t.t_wait_mon <- -1;
    park_push vm t 0;
    contend vm t m
  | _ -> ()

(* Wake every sleeper due at [now]. *)
let wake_due (vm : Rt.t) now =
  let rec go () =
    match vm.sleepers with
    | (w, tid) :: rest when w <= now ->
      vm.sleepers <- rest;
      wake_sleeper vm tid;
      go ()
    | _ -> ()
  in
  go ()

(* Pick the next thread to run. Reads the wall clock (a recorded event) only
   when there are sleepers — a deterministic condition. Idles the clock
   forward when sleepers are the only runnable-eventually threads. *)
let rec dispatch (vm : Rt.t) =
  if vm.sleepers <> [] then begin
    let now = Rt.read_clock vm Rt.Csched in
    wake_due vm now
  end;
  match Queue.take_opt vm.readyq with
  | Some tid ->
    let tid =
      match vm.hooks.h_pick with
      | None -> tid
      | Some pick ->
        let want = pick vm tid in
        if want = tid then tid
        else if
          not
            (want >= 0
            && want < Array.length vm.threads
            && vm.threads.(want).t_state = Rt.Ready
            && Queue.fold (fun acc t -> acc || t = want) false vm.readyq)
        then begin
          (* invalid choice: restore the FIFO head to the front of the queue
             so the scheduler is exactly as it was when dispatch began, then
             surface a typed error the caller can treat as a pruned branch *)
          let rest = Queue.create () in
          Queue.transfer vm.readyq rest;
          Queue.add tid vm.readyq;
          Queue.transfer rest vm.readyq;
          raise
            (Sched_error (Fmt.str "h_pick chose tid %d which is not ready" want))
        end
        else begin
          (* steer: pull [want] out of the ready queue, put the FIFO choice
             back at the front — the linear cost external replay schemes pay
             for not replaying the thread package *)
          let rest = Queue.create () in
          Queue.transfer vm.readyq rest;
          Queue.add tid vm.readyq;
          let found = ref false in
          Queue.iter
            (fun t -> if t = want && not !found then found := true else Queue.add t vm.readyq)
            rest;
          want
        end
    in
    vm.current <- tid;
    vm.threads.(tid).t_state <- Rt.Running
  | None ->
    if vm.live_threads = 0 then vm.status <- Rt.Finished
    else if vm.sleepers <> [] then begin
      let earliest = fst (List.hd vm.sleepers) in
      let now = Rt.read_clock vm (Rt.Cidle earliest) in
      wake_due vm (max now earliest);
      dispatch vm
    end
    else begin
      vm.current <- -1;
      vm.status <- Rt.Deadlocked
    end

(* Preemptive / voluntary thread switch from a yield point: the current
   thread goes to the back of the ready queue.

   Short-circuit: when the current thread is the only runnable one, no
   sleeper could wake (the clock is only read when sleepers exist, so none
   is read here either), and no scheme hooks the choice (h_pick) or the
   transition (h_switch), the full path would deterministically re-pick the
   same thread — skip the queue round-trip. The hook guards keep record and
   replay symmetric for every scheme: DejaVu and crew/read-log install
   neither hook in either mode, switch-map installs h_switch when recording
   and h_pick when replaying, so both modes take the slow path together. *)
let perform_thread_switch (vm : Rt.t) =
  vm.stats.n_switch <- vm.stats.n_switch + 1;
  let hooked =
    match (vm.hooks.h_pick, vm.hooks.h_switch) with
    | None, None -> false
    | _ -> true
  in
  if (not hooked) && Queue.is_empty vm.readyq && vm.sleepers = [] then ()
  else begin
    let from_tid = vm.current in
    let t = Rt.cur vm in
    ready vm t.tid;
    dispatch vm;
    match vm.hooks.h_switch with
    | Some f -> f vm from_tid vm.current
    | None -> ()
  end

(* Park the current thread in [state] (not runnable) and dispatch. *)
let park (vm : Rt.t) state =
  vm.stats.n_switch <- vm.stats.n_switch + 1;
  let from_tid = vm.current in
  (Rt.cur vm).t_state <- state;
  dispatch vm;
  (match vm.hooks.h_switch with
  | Some f -> f vm from_tid vm.current
  | None -> ())

let terminate_current (vm : Rt.t) =
  let t = Rt.cur vm in
  t.t_state <- Rt.Terminated;
  vm.live_threads <- vm.live_threads - 1;
  List.iter (fun tid -> hb_event vm t.tid tid) t.t_joiners;
  List.iter (fun tid -> ready vm tid) t.t_joiners;
  t.t_joiners <- [];
  if vm.status = Rt.Running_ then begin
    vm.stats.n_switch <- vm.stats.n_switch + 1;
    let from_tid = vm.current in
    dispatch vm;
    match vm.hooks.h_switch with
    | Some f -> f vm from_tid vm.current
    | None -> ()
  end

(* --- blocking operations (called with the current thread's pc already
       advanced past the instruction) -------------------------------- *)

let monitor_enter (vm : Rt.t) addr =
  vm.stats.n_monitor_ops <- vm.stats.n_monitor_ops + 1;
  let m = monitor_of_object vm addr in
  let t = Rt.cur vm in
  if m.m_owner = -1 then begin
    m.m_owner <- t.tid;
    m.m_count <- 1;
    lock_event vm true m t.tid
  end
  else if m.m_owner = t.tid then m.m_count <- m.m_count + 1
  else begin
    t.t_saved_count <- 1;
    Queue.add t.tid m.m_entryq;
    park vm Rt.Blocked
  end

(* Release one recursion level; on full release hand the monitor to the
   first entry-queue thread (deterministic handoff). *)
let monitor_exit (vm : Rt.t) addr =
  vm.stats.n_monitor_ops <- vm.stats.n_monitor_ops + 1;
  let mid = Layout.monitor_of vm addr in
  if mid = 0 then illegal_monitor ();
  let m = vm.monitors.(mid) in
  let t = Rt.cur vm in
  if m.m_owner <> t.tid then illegal_monitor ();
  m.m_count <- m.m_count - 1;
  if m.m_count = 0 then begin
    m.m_owner <- -1;
    lock_event vm false m t.tid;
    match Queue.take_opt m.m_entryq with
    | Some tid ->
      let w = vm.threads.(tid) in
      m.m_owner <- tid;
      m.m_count <- w.t_saved_count;
      lock_event vm true m tid;
      ready vm tid
    | None -> ()
  end

(* Full release for wait: remembers the recursion count and hands off. *)
let release_for_wait (vm : Rt.t) (m : Rt.monitor) (t : Rt.thread) =
  t.t_saved_count <- m.m_count;
  m.m_count <- 0;
  m.m_owner <- -1;
  lock_event vm false m t.tid;
  match Queue.take_opt m.m_entryq with
  | Some tid ->
    let w = vm.threads.(tid) in
    m.m_owner <- tid;
    m.m_count <- w.t_saved_count;
    lock_event vm true m tid;
    ready vm tid
  | None -> ()

(* Ownership pre-check for wait: runs before the interpreter advances pc so
   a raised IllegalMonitorStateException unwinds from the faulting pc. *)
let check_owned (vm : Rt.t) addr =
  let mid = Layout.monitor_of vm addr in
  if mid = 0 then illegal_monitor ();
  if vm.monitors.(mid).m_owner <> (Rt.cur vm).tid then illegal_monitor ()

let do_wait (vm : Rt.t) addr ~timeout_ms =
  vm.stats.n_monitor_ops <- vm.stats.n_monitor_ops + 1;
  let mid = Layout.monitor_of vm addr in
  if mid = 0 then illegal_monitor ();
  let m = vm.monitors.(mid) in
  let t = Rt.cur vm in
  if m.m_owner <> t.tid then illegal_monitor ();
  if t.t_interrupted then begin
    (* interrupted before waiting: don't wait at all *)
    t.t_interrupted <- false;
    park_push vm t 1
  end
  else begin
    m.m_waitset <- m.m_waitset @ [ t.tid ];
    t.t_wait_mon <- m.m_id;
    release_for_wait vm m t;
    match timeout_ms with
    | None -> park vm Rt.Waiting
    | Some ms ->
      let now = Rt.read_clock vm Rt.Csched in
      t.t_wake <- now + Env.millis_to_units vm.env ms;
      insert_sleeper vm t.t_wake t.tid;
      park vm Rt.Timed_waiting
  end

(* Move the first waiter (if any) to monitor contention. *)
let do_notify (vm : Rt.t) addr ~all =
  vm.stats.n_monitor_ops <- vm.stats.n_monitor_ops + 1;
  let mid = Layout.monitor_of vm addr in
  if mid = 0 then illegal_monitor ();
  let m = vm.monitors.(mid) in
  let t = Rt.cur vm in
  if m.m_owner <> t.tid then illegal_monitor ();
  let wake_one tid =
    let w = vm.threads.(tid) in
    if w.t_state = Rt.Timed_waiting then remove_sleeper vm tid;
    w.t_wait_mon <- -1;
    park_push vm w 0;
    contend vm w m
  in
  if all then begin
    let ws = m.m_waitset in
    m.m_waitset <- [];
    List.iter wake_one ws
  end
  else
    match m.m_waitset with
    | [] -> ()
    | tid :: rest ->
      m.m_waitset <- rest;
      wake_one tid

let do_sleep (vm : Rt.t) ms =
  let t = Rt.cur vm in
  if t.t_interrupted then t.t_interrupted <- false (* sleep ends immediately *)
  else if ms <= 0 then begin
    (* sleep(0): voluntary yield *)
    perform_thread_switch vm
  end
  else begin
    let now = Rt.read_clock vm Rt.Csched in
    t.t_wake <- now + Env.millis_to_units vm.env ms;
    insert_sleeper vm t.t_wake t.tid;
    park vm Rt.Sleeping
  end

let do_join (vm : Rt.t) target_tid =
  if target_tid < 0 || target_tid >= vm.n_threads then
    raise (Rt.Vm_exception "NullPointerException");
  let target = vm.threads.(target_tid) in
  if target.t_state = Rt.Terminated then
    (* the dead thread's writes are visible to the joiner right away *)
    hb_event vm target_tid (Rt.cur vm).tid
  else begin
    let t = Rt.cur vm in
    target.t_joiners <- t.tid :: target.t_joiners;
    park vm (Rt.Joining target_tid)
  end

let do_interrupt (vm : Rt.t) target_tid =
  if target_tid < 0 || target_tid >= vm.n_threads then
    raise (Rt.Vm_exception "NullPointerException");
  let w = vm.threads.(target_tid) in
  hb_event vm (Rt.cur vm).tid target_tid;
  match w.t_state with
  | Rt.Waiting | Rt.Timed_waiting ->
    let m = vm.monitors.(w.t_wait_mon) in
    m.m_waitset <- List.filter (fun id -> id <> target_tid) m.m_waitset;
    if w.t_state = Rt.Timed_waiting then remove_sleeper vm target_tid;
    w.t_wait_mon <- -1;
    park_push vm w 1 (* wait reports "interrupted" *);
    contend vm w m
  | Rt.Sleeping ->
    remove_sleeper vm target_tid;
    ready vm target_tid
  | Rt.Terminated -> ()
  | _ -> w.t_interrupted <- true
