(* The tool front end. The paper's debugger puts its Swing GUI on a third
   JVM talking to the debugger over TCP with small text packets; this module
   is that protocol layer (DESIGN.md documents the substitution): a textual
   command in, a textual reply out, carrying data rather than pixels. Any
   front end — the interactive CLI of `dvrun debug`, a test, a socket — can
   drive a session through [execute]. *)

type outcome = Reply of string | Quit

let help_text =
  {|commands:
  break CLASS METHOD [LINE|pc:N]   set a breakpoint
  delete N                         remove breakpoint N
  breaks                           list breakpoints
  watch CLASS.FIELD                stop when a static changes
  unwatch N                        remove watchpoint N
  set static CLASS.FIELD VALUE     alter the replayed VM (voids accuracy!)
  checkpoint                       snapshot the current position
  continue | c                     run to the next breakpoint
  step [N] | s [N]                 execute N instructions (default 1)
  goto N                           travel to absolute step N (replays)
  where                            current position
  threads                          thread table
  stack TID                        stack trace of a thread
  locals TID                       raw locals of every frame of a thread
  print static CLASS.FIELD         inspect a static (remote reflection)
  output                           program output so far
  digest                           state digest of the application VM
  reads                            remote words peeked so far
  info                             session summary
  help                             this text
  quit                             end the session|}

let string_of_stop (d : Session.t) (r : Session.stop_reason) =
  match r with
  | Session.Hit b -> Fmt.str "breakpoint %a" Breakpoint.pp b
  | Session.Watch_fired (w, old, now) ->
    Fmt.str "watchpoint #%d %s.%s changed %d -> %d [step %d]" w.Session.w_id
      w.Session.w_class w.Session.w_field old now d.steps
  | Session.Step_done -> (
    match Session.current_line d with
    | Some (cls, m, line) ->
      Fmt.str "stopped at %s.%s%s [step %d]" cls m
        (match line with Some l -> Fmt.str " line %d" l | None -> "")
        d.steps
    | None -> "stopped")
  | Session.Ended Dejavu.Ok ->
    Fmt.str "execution %s; verdict: ok" (Vm.string_of_status (Vm.status d.vm))
  | Session.Ended v -> Fmt.str "verdict: %a" Dejavu.pp_verdict v

let parse_loc = function
  | None -> Breakpoint.Any_pc
  | Some s -> (
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "pc" ->
      Breakpoint.Src_pc
        (int_of_string (String.sub s (i + 1) (String.length s - i - 1)))
    | _ -> Breakpoint.Line (int_of_string s))

let execute (d : Session.t) (line : string) : outcome =
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun w -> w <> "")
  in
  let reply fmt = Fmt.kstr (fun s -> Reply s) fmt in
  try
    match words with
    | [] -> Reply ""
    | [ "quit" ] | [ "q" ] -> Quit
    | [ "help" ] -> Reply help_text
    | "break" :: cls :: meth :: rest ->
      let loc = parse_loc (match rest with [] -> None | x :: _ -> Some x) in
      let b = Session.add_breakpoint d ~cls ~meth loc in
      reply "set %a" Breakpoint.pp b
    | [ "delete"; n ] ->
      Session.remove_breakpoint d (int_of_string n);
      reply "deleted"
    | [ "breaks" ] ->
      reply "%s"
        (String.concat "\n"
           (List.map (Fmt.str "%a" Breakpoint.pp) d.breakpoints))
    | [ "watch"; spec ] -> (
      match String.index_opt spec '.' with
      | None -> reply "expected CLASS.FIELD"
      | Some i ->
        let cls = String.sub spec 0 i in
        let field = String.sub spec (i + 1) (String.length spec - i - 1) in
        let w = Session.add_watchpoint d ~cls ~field in
        reply "watching %s.%s (#%d, currently %d)" cls field
          w.Session.w_id w.Session.w_last)
    | [ "unwatch"; n ] ->
      Session.remove_watchpoint d (int_of_string n);
      reply "unwatched"
    | [ "set"; "static"; spec; v ] -> (
      match String.index_opt spec '.' with
      | None -> reply "expected CLASS.FIELD"
      | Some i ->
        let cls = String.sub spec 0 i in
        let field = String.sub spec (i + 1) (String.length spec - i - 1) in
        Session.set_static d ~cls ~field (int_of_string v);
        reply
          "%s.%s set to %s — symmetry broken: replay accuracy no longer \
           guaranteed (paper, footnote 3)"
          cls field v)
    | [ "checkpoint" ] ->
      Session.take_checkpoint d;
      reply "checkpoint at step %d (%d total)" d.steps
        (List.length d.checkpoints)
    | [ "continue" ] | [ "c" ] -> reply "%s" (string_of_stop d (Session.continue_ d))
    | [ "step" ] | [ "s" ] -> reply "%s" (string_of_stop d (Session.step d 1))
    | [ "step"; n ] | [ "s"; n ] ->
      reply "%s" (string_of_stop d (Session.step d (int_of_string n)))
    | [ "goto"; n ] ->
      reply "%s" (string_of_stop d (Session.goto_step d (int_of_string n)))
    | [ "where" ] -> (
      match Session.current_line d with
      | Some (cls, m, line) ->
        reply "%s.%s%s [step %d]" cls m
          (match line with Some l -> Fmt.str " line %d" l | None -> "")
          d.steps
      | None -> reply "not running (%s)" (Vm.string_of_status d.vm.Vm.Rt.status))
    | [ "threads" ] ->
      reply "%s"
        (String.concat "\n"
           (List.map
              (fun (ts : Remote_reflection.Address_space.thread_snapshot) ->
                Fmt.str "t%d %-12s %-13s %s" ts.ts_tid ts.ts_name ts.ts_state
                  (if ts.ts_meth_uid >= 0 then
                     let m = d.space.methods.(ts.ts_meth_uid) in
                     Fmt.str "in %s pc=%d" m.rm_name ts.ts_pc
                   else ""))
              (Session.threads d)))
    | [ "stack"; tid ] ->
      let frames = Session.frames d (int_of_string tid) in
      reply "%s"
        (String.concat "\n"
           (List.mapi
              (fun i (f : Remote_reflection.Remote_frames.frame) ->
                Fmt.str "#%d %s.%s pc=%d%s" i
                  d.vm.Vm.Rt.classes.(f.rf_meth.rm_cid).rc_name
                  f.rf_meth.rm_name f.rf_pc
                  (match f.rf_line with
                  | Some l -> Fmt.str " line %d" l
                  | None -> ""))
              frames))
    | [ "locals"; tid ] ->
      let frames = Session.frames d (int_of_string tid) in
      reply "%s"
        (String.concat "\n"
           (List.mapi
              (fun i (f : Remote_reflection.Remote_frames.frame) ->
                Fmt.str "#%d %s: [%s]" i f.rf_meth.rm_name
                  (String.concat ", "
                     (Array.to_list (Array.map string_of_int f.rf_locals))))
              frames))
    | [ "print"; "static"; spec ] -> (
      match String.index_opt spec '.' with
      | None -> reply "expected CLASS.FIELD"
      | Some i ->
        let cls = String.sub spec 0 i in
        let fld = String.sub spec (i + 1) (String.length spec - i - 1) in
        let module R =
          (val Remote_reflection.Remote_object.reflection d.space)
        in
        reply "%s.%s = %s" cls fld (R.render_value (R.get_static cls fld)))
    | [ "output" ] -> reply "%s" (Session.output d)
    | [ "digest" ] -> reply "%x" (Session.state_digest d)
    | [ "reads" ] -> reply "%d remote reads" d.space.reads
    | [ "info" ] ->
      reply
        "step=%d status=%s breakpoints=%d watchpoints=%d checkpoints=%d%s \
         trace: %a"
        d.steps
        (Vm.string_of_status d.vm.Vm.Rt.status)
        (List.length d.breakpoints)
        (List.length d.watchpoints)
        (List.length d.checkpoints)
        (if Session.perturbed d then " PERTURBED" else "")
        Dejavu.Trace.pp_sizes (Dejavu.Trace.sizes d.trace)
    | _ -> reply "unknown command (try: help)"
  with
  | Failure msg -> Reply ("error: " ^ msg)
  | Invalid_argument msg -> Reply ("error: " ^ msg)
