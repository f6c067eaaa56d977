(* dvrun — run, record, replay, and compare workloads on the simulated VM.

     dvrun list                         catalogue of workloads
     dvrun run NAME [--seed N]          live run: output, status, stats
     dvrun record NAME -o T [--seed N]  record a run into trace file T
     dvrun replay NAME -i T             replay a recorded trace
     dvrun verify NAME [--seed N]       record, replay, judge the replay
     dvrun compare NAME --seeds A,B,..  run under several seeds, diff outputs
     dvrun disasm NAME                  disassemble the workload's bytecode
     dvrun debug NAME [-i T] [--batch CMDS]  replay debugger ("help")

   Exit contract, for every subcommand:
     0    done; a replay (replay, verify, debug --batch) reproduced the
          recording, a fatal end included when the replay ends the same way
     1    an outcome judged a failure: a replay that diverged or left trace
          words unconsumed, a run that ended fatal, unallowed lint findings,
          a batch or submit job that failed or got no reply, explore
          --expect-failure without a reproduced fault
     2    bad input, one line on stderr: a malformed or foreign trace (a
          rejected replay prints its verdict on stdout instead), an unknown
          workload or a .djv that does not parse, link, verify or compile,
          a path that is missing or of the wrong kind, a socket that cannot
          be bound or reached or whose path is too long, a name submit
          would send over 4,096 bytes, --shards or --rounds below 1, a
          batch --deadline that is not a positive finite number of
          seconds, a submit --deadline-ms below 0, lint with no workload,
          a server that hangs up on submit
     124  a command line cmdliner cannot parse (its usage message)
     125  an internal error, one line "dvrun: internal error: ..."
   The verdict and outcome exits are each subcommand's; 2 and 125 are
   decided in one place, the handler at the bottom of this file. *)

open Cmdliner

(* Bad input that raises no library exception of its own; the handler
   prints the message as one line and exits 2. *)
exception Refused of string

let refuse fmt = Fmt.kstr (fun msg -> raise (Refused msg)) fmt

(* A workload is either a catalogue entry or a path to a .djv assembly file
   (see lib/bytecode/parser.ml for the language). A .djv is checked whole
   before anything runs: it must parse, link, and every method must verify
   and compile, so a bad program is refused as input (exit 2) rather than
   ending a run fatal. *)
let find_workload name =
  if Filename.check_suffix name ".djv" then
    match
      let program = Bytecode.Parser.parse_file name in
      let vm = Vm.create program in
      Array.iter (fun m -> ignore (Vm.Compile.compile vm m)) vm.Vm.Rt.methods;
      program
    with
    | program ->
      {
        Workloads.Registry.name;
        description = "from file";
        program;
        natives = [];
      }
    | exception Bytecode.Parser.Error (msg, line) ->
      refuse "%s:%d: %s" name line msg
    | exception Vm.Link.Error msg -> refuse "%s: link: %s" name msg
    | exception Vm.Verify.Error msg -> refuse "%s: verify: %s" name msg
    | exception Vm.Compile.Error msg -> refuse "%s: compile: %s" name msg
  else
    match Workloads.Registry.find name with
    | Some e -> e
    | None ->
      refuse "unknown workload %S; try a .djv file or: %s" name
        (String.concat ", " (Workloads.Registry.names ()))

(* The exit contract above. *)
let exit_by_verdict v =
  Stdlib.exit
    (match v with
    | Dejavu.Ok -> 0
    | Dejavu.Diverged _ | Dejavu.Incomplete _ -> 1
    | Dejavu.Rejected _ -> 2)

(* Malformed trace files are user error, not an internal failure. *)
let load_trace path =
  try Dejavu.Trace.load path
  with Dejavu.Trace.Format_error msg ->
    refuse "%s: malformed trace (%s)" path msg

(* Socket calls report "" where the path belongs; name it. *)
let on_socket path f =
  try f ()
  with Unix.Unix_error (err, _, _) ->
    refuse "%s: %s" path (Unix.error_message err)

let pp_stats ppf (s : Vm.Rt.stats) =
  Fmt.pf ppf
    "instr=%d yields=%d switches=%d preempts=%d gcs=%d allocs=%d(%dw)@\n\
     compiled=%d classes=%d stack-grows=%d clock-reads=%d inputs=%d natives=%d \
     monitor-ops=%d exceptions=%d@\n\
     regir=%d mon-in-region=%d"
    s.n_instr s.n_yield s.n_switch s.n_preempt_req s.n_gc s.n_alloc_objects
    s.n_alloc_words s.n_compiled_methods s.n_classes_initialized
    s.n_stack_grows s.n_clock_reads s.n_input_reads s.n_native_calls
    s.n_monitor_ops s.n_exceptions s.n_regir_instr s.n_regir_mon

(* The config a subcommand's flags select; only --no-regir so far. *)
let config_of_flags no_regir =
  if no_regir then { Vm.Rt.default_config with Vm.Rt.regir = false }
  else Vm.Rt.default_config

let run_live name seed no_regir verbose =
  let e = find_workload name in
  let config = config_of_flags no_regir in
  let t0 = Sys.time () in
  let vm, st = Vm.execute ~config ~natives:e.natives ~seed e.program in
  let dt = Sys.time () -. t0 in
  Fmt.pr "--- output ---@.%s--- status: %s ---@." (Vm.output vm)
    (Vm.string_of_status st);
  if verbose then begin
    Fmt.pr "%a@." pp_stats (Vm.stats vm);
    let n = (Vm.stats vm).n_instr in
    Fmt.pr "cpu %.3fs  %.2f Mi/s@." dt
      (if dt > 0. then float_of_int n /. dt /. 1e6 else 0.)
  end;
  match st with Vm.Rt.Fatal _ -> Stdlib.exit 1 | _ -> ()

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"environment seed")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"print stats")

let no_regir_arg =
  Arg.(
    value & flag
    & info [ "no-regir" ]
        ~doc:
          "disable the register-IR compile tier (stack-bytecode dispatch \
           only); traces and digests are identical either way")

let name_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

let trace_in = Arg.info [ "i"; "input" ] ~docv:"TRACE" ~doc:"trace file to read"

let list_cmd =
  let doc = "list available workloads" in
  Cmd.v (Cmd.info "list" ~doc)
    Term.(
      const (fun () ->
          List.iter
            (fun (e : Workloads.Registry.entry) ->
              Fmt.pr "%-24s %s@." e.name e.description)
            (Lazy.force Workloads.Registry.all))
      $ const ())

let run_cmd =
  let doc = "run a workload live" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run_live $ name_arg $ seed_arg $ no_regir_arg $ verbose_arg)

(* With --compiled, every method is force-compiled (charging the same
   virtual-clock cost a run's first visit would) and its canonical kinstr
   stream prints next to the source bytecode — virtual call sites naming
   the method their declaring class's vtable holds, injected yield points
   marked [; yp] — followed by the register regions the fast loop runs in
   its place. *)
let disasm name compiled =
  let e = find_workload name in
  if not compiled then Fmt.pr "%a@." Bytecode.Disasm.pp_program e.program
  else begin
    let vm = Vm.create ~natives:e.natives e.program in
    Array.iter
      (fun (m : Vm.Rt.rmethod) -> ignore (Vm.Compile.compile vm m))
      vm.Vm.Rt.methods;
    Array.iter
      (fun (m : Vm.Rt.rmethod) ->
        Fmt.pr "%a@.%a@.@." Bytecode.Disasm.pp_method m.rm_decl
          (Vm.Kdisasm.pp_compiled vm) m)
      vm.Vm.Rt.methods
  end

let compiled_arg =
  Arg.(
    value & flag
    & info [ "compiled" ]
        ~doc:
          "show each method's canonical compiled kinstr stream, virtual \
           call sites naming the method they dispatch through, then its \
           register regions")

let disasm_cmd =
  let doc = "disassemble a workload" in
  Cmd.v (Cmd.info "disasm" ~doc) Term.(const disasm $ name_arg $ compiled_arg)

let compare_cmd =
  let doc = "run under several seeds and report output differences" in
  let seeds_arg =
    Arg.(
      value
      & opt (list int) [ 1; 2; 3; 4; 5 ]
      & info [ "seeds" ] ~docv:"A,B,.." ~doc:"seeds to try")
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(
      const (fun name seeds ->
          let e = find_workload name in
          let outs =
            List.map
              (fun seed ->
                let vm, st = Vm.execute ~natives:e.natives ~seed e.program in
                (seed, Vm.output vm, st))
              seeds
          in
          List.iter
            (fun (seed, out, st) ->
              Fmt.pr "seed %d [%s]: %s@." seed (Vm.string_of_status st)
                (String.concat " | "
                   (String.split_on_char '\n' (String.trim out))))
            outs;
          let distinct =
            List.sort_uniq compare (List.map (fun (_, o, _) -> o) outs)
          in
          Fmt.pr "distinct outputs: %d of %d@." (List.length distinct)
            (List.length outs))
      $ name_arg $ seeds_arg)

let record_cmd =
  let doc = "record a run into a trace file" in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"TRACE" ~doc:"trace file to write")
  in
  Cmd.v (Cmd.info "record" ~doc)
    Term.(
      const (fun name seed no_regir out verbose ->
          let e = find_workload name in
          let config = config_of_flags no_regir in
          (* streamed: the recorder never holds the whole trace in memory,
             and a failed run leaves no partial file; unobserved, since no
             event digest is printed *)
          let run, sizes =
            Dejavu.record_to ~config ~natives:e.natives ~seed ~observe:false
              ~path:out e.program
          in
          Fmt.pr "--- output ---@.%s--- status: %s ---@." run.Dejavu.output
            (Vm.string_of_status run.status);
          Fmt.pr "trace -> %s (%a)@." out Dejavu.Trace.pp_sizes sizes;
          if verbose then Fmt.pr "%a@." pp_stats (Vm.stats run.vm))
      $ name_arg $ seed_arg $ no_regir_arg $ out_arg $ verbose_arg)

let replay_cmd =
  let doc =
    "replay a recorded trace; exits 0 when the replay reproduces the \
     recording, 1 when it diverges or leaves trace words unconsumed, 2 on a \
     malformed or foreign trace or a bad .djv"
  in
  let in_arg = Arg.(required & opt (some string) None & trace_in) in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:
            "print stats; preempts= reads 0, since the environment's timer \
             never runs in replay: the trace supplies every switch")
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(
      const (fun name inp no_regir verbose ->
          let e = find_workload name in
          let config = config_of_flags no_regir in
          (* streamed: O(chunk) trace memory during replay; the verdict
             is the replay guard's, so no event digest is taken *)
          let run, _ =
            Dejavu.replay_from ~config ~natives:e.natives ~observe:false
              ~path:inp e.program
          in
          Fmt.pr "--- output ---@.%s--- status: %s ---@." run.Dejavu.output
            (Vm.string_of_status run.status);
          Fmt.pr "verdict: %a@." Dejavu.pp_verdict run.verdict;
          if verbose then Fmt.pr "%a@." pp_stats (Vm.stats run.vm);
          exit_by_verdict run.verdict)
      $ name_arg $ in_arg $ no_regir_arg $ verbose_arg)

let verify_cmd =
  let doc =
    "record then replay, judging the replay against the recording (exit \
     codes as for replay)"
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(
      const (fun name seed ->
          let e = find_workload name in
          let rt =
            Dejavu.verify_roundtrip ~natives:e.natives ~seed e.program
          in
          Fmt.pr "%a@." Dejavu.pp_roundtrip rt;
          exit_by_verdict rt.verdict)
      $ name_arg $ seed_arg)

let emit_cmd =
  let doc = "emit a workload as textual assembly (.djv)" in
  Cmd.v (Cmd.info "emit" ~doc)
    Term.(
      const (fun name ->
          let e = find_workload name in
          print_string (Bytecode.Emit.to_string e.program))
      $ name_arg)

let dump_cmd =
  let doc = "dump a trace file's contents in human-readable form" in
  let in_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"trace file to dump")
  in
  Cmd.v (Cmd.info "trace-dump" ~doc)
    Term.(
      const (fun inp ->
          let t = load_trace inp in
          Fmt.pr "program digest: %s@." t.Dejavu.Trace.program_digest;
          Fmt.pr "%a@." Dejavu.Trace.pp_sizes (Dejavu.Trace.sizes t);
          Fmt.pr "@.-- preemptive switches (yield-point deltas) --@.";
          Array.iteri
            (fun k d ->
              Fmt.pr "%6d" d;
              if (k + 1) mod 10 = 0 then Fmt.pr "@.")
            t.Dejavu.Trace.switches;
          (* each kind decoded in the layout of the section holding it *)
          let tapes = Dejavu.Trace.tapes t in
          let listing what f =
            try f ()
            with Dejavu.Trace.End_of_tape _ | Dejavu.Trace.Format_error _ ->
              Fmt.pr "(malformed %s tape)@." what
          in
          Fmt.pr "@.@.-- wall-clock reads --@.";
          listing "clock" (fun () ->
              let layout, tape = Dejavu.Trace.clock_source tapes in
              let prev = ref 0 in
              while Dejavu.Tape.remaining tape > 0 do
                let tag, v = Dejavu.Trace.read_clock layout tape ~prev:!prev in
                prev := v;
                Fmt.pr "%-6s %d@." (Dejavu.Trace.reason_name tag) v
              done);
          Fmt.pr "@.-- inputs --@.";
          Array.iter (fun v -> Fmt.pr "%d " v) t.Dejavu.Trace.inputs;
          Fmt.pr "@.@.-- native outcomes --@.";
          listing "native" (fun () ->
              let layout, tape = Dejavu.Trace.native_source tapes in
              while Dejavu.Tape.remaining tape > 0 do
                let id, o = Dejavu.Trace.read_native layout tape in
                Fmt.pr "native %d -> %s, %d callback(s)@." id
                  (match o.Vm.Rt.no_result with
                  | Some v -> string_of_int v
                  | None -> "void")
                  (List.length o.Vm.Rt.no_callbacks)
              done);
          (* explorer traces steer the scheduler: one tid per dispatch *)
          if t.Dejavu.Trace.picks <> [||] then begin
            Fmt.pr "@.-- dispatch picks --@.";
            Array.iteri
              (fun k tid ->
                Fmt.pr "%6d" tid;
                if (k + 1) mod 10 = 0 then Fmt.pr "@.")
              t.Dejavu.Trace.picks;
            Fmt.pr "@."
          end)
      $ in_arg)

(* --- debug: the replay debugger --- *)

(* Open a debugger session on [inp]'s trace, or on a fresh recording under
   [seed], and feed it commands: [batch]'s, echoed, or stdin's at a
   prompt, until they run out or one is "quit". *)
let debug name inp seed batch =
  let e = find_workload name in
  let d =
    match inp with
    | Some path -> (
      match
        Debugger.Session.start ~natives:e.natives e.program (load_trace path)
      with
      | Ok d -> d
      | Error v ->
        Fmt.pr "verdict: %a@." Dejavu.pp_verdict v;
        exit_by_verdict v)
    | None ->
      let d, run =
        Debugger.Session.record_and_start ~natives:e.natives ~seed e.program
      in
      Fmt.pr "recorded %s under seed %d: %s@." name seed
        (Vm.string_of_status run.Dejavu.status);
      d
  in
  let next =
    match batch with
    | Some script ->
      let cmds =
        ref
          (String.split_on_char ';' script
          |> List.map String.trim
          |> List.filter (fun s -> s <> ""))
      in
      fun () ->
        (match !cmds with
        | [] -> None
        | cmd :: rest ->
          cmds := rest;
          Fmt.pr "(dejavu) %s@." cmd;
          Some cmd)
    | None ->
      Fmt.pr "replay session open; type 'help' for commands@.";
      fun () ->
        print_string "(dejavu) ";
        flush stdout;
        In_channel.input_line stdin
  in
  let rec loop () =
    match Option.map (Debugger.Protocol.execute d) (next ()) with
    | Some (Debugger.Protocol.Reply s) ->
      if s <> "" then print_endline s;
      loop ()
    | Some Debugger.Protocol.Quit | None -> ()
  in
  loop ();
  if batch <> None then Option.iter exit_by_verdict (Debugger.Session.verdict d)

let debug_cmd =
  let doc =
    "replay debugger: breakpoints, watchpoints, stepping and time travel \
     over a replay of the trace given with -i, or of a fresh recording \
     under --seed; type 'help' for commands"
  in
  let in_arg = Arg.(value & opt (some string) None & trace_in) in
  let batch_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "batch" ] ~docv:"CMDS"
          ~doc:"run semicolon-separated commands non-interactively")
  in
  Cmd.v (Cmd.info "debug" ~doc)
    Term.(const debug $ name_arg $ in_arg $ seed_arg $ batch_arg)

(* --- lint: static race audit (lockset + thread-escape) --- *)

(* '*' matches any substring; everything else is literal. *)
let glob_match pat s =
  let np = String.length pat and ns = String.length s in
  let rec go i j =
    if i = np then j = ns
    else
      match pat.[i] with
      | '*' ->
        let rec try_ k = k <= ns && (go (i + 1) k || try_ (k + 1)) in
        try_ j
      | c -> j < ns && s.[j] = c && go (i + 1) (j + 1)
  in
  go 0 0

(* A FIFO is refused before the open would block on it. *)
let read_file path =
  if not (Sys.is_regular_file path) then
    refuse "%s: not a regular file" path;
  In_channel.with_open_bin path In_channel.input_all

(* Allow-entries for one workload from the committed baseline:
   { "workloads": [ { "name", "summary_hash", "allow": [ { "key", "why" } ],
     "allow_monitors": [...], "allow_deadlocks": [...] } ] }. [field] names
   which allow array to read; keys may use '*' globs. *)
let baseline_allows ~field baseline wl_name =
  let open Analysis.Json in
  member "workloads" baseline |> to_list
  |> List.filter (fun w -> to_string_opt (member "name" w) = Some wl_name)
  |> List.concat_map (fun w ->
         member field w |> to_list
         |> List.filter_map (fun a -> to_string_opt (member "key" a)))

let lint name_opt all json allows allow_monitors allow_deadlocks baseline_path
    =
  let entries =
    if all then Lazy.force Workloads.Registry.all
    else
      match name_opt with
      | Some n -> [ find_workload n ]
      | None -> refuse "lint: give a WORKLOAD (or .djv file) or --all"
  in
  let baseline =
    Option.map
      (fun p ->
        try Analysis.Json.parse (read_file p)
        with Analysis.Json.Parse_error msg ->
          refuse "%s: malformed baseline (%s)" p msg)
      baseline_path
  in
  let results =
    List.map
      (fun (e : Workloads.Registry.entry) ->
        (e.name, Analysis.run ~name:e.name e.program))
      entries
  in
  if json then begin
    match results with
    | [ (_, r) ] -> print_endline (Analysis.Json.to_string (Analysis.Report.to_json r))
    | _ ->
      print_endline
        (Analysis.Json.to_string
           (Analysis.Json.List
              (List.map (fun (_, r) -> Analysis.Report.to_json r) results)))
  end
  else List.iter (fun (_, r) -> Fmt.pr "%a" Analysis.Report.pp r) results;
  (* Racy, monitor-depth, and deadlock findings each fail the run unless
     matched by their own --allow-* flags or baseline allow array. *)
  let gate ~field ~flags keys_of =
    List.concat_map
      (fun (name, r) ->
        let allowed =
          flags
          @ (match baseline with
            | Some b -> baseline_allows ~field b name
            | None -> [])
        in
        keys_of r
        |> List.filter (fun k -> not (List.exists (fun p -> glob_match p k) allowed))
        |> List.map (fun k -> (name, k)))
      results
  in
  let failures =
    List.map (fun (n, k) -> ("racy", n, k))
      (gate ~field:"allow" ~flags:allows Analysis.Report.racy_keys)
    @ List.map (fun (n, k) -> ("monitor", n, k))
        (gate ~field:"allow_monitors" ~flags:allow_monitors
           Analysis.Report.monitor_keys)
    @ List.map (fun (n, k) -> ("deadlock", n, k))
        (gate ~field:"allow_deadlocks" ~flags:allow_deadlocks
           Analysis.Report.deadlock_keys)
  in
  if failures <> [] then begin
    Fmt.epr "lint: %d unallowed finding(s):@." (List.length failures);
    List.iter (fun (kind, n, k) -> Fmt.epr "  %s: [%s] %s@." n kind k) failures;
    Stdlib.exit 1
  end

let lint_cmd =
  let doc = "statically audit a workload for data races (lockset + escape)" in
  let name_opt_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"lint every registry workload")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"machine-readable JSON output")
  in
  let allow_arg =
    Arg.(
      value & opt_all string []
      & info [ "allow" ] ~docv:"GLOB"
          ~doc:"accept racy findings whose key matches GLOB (repeatable)")
  in
  let allow_monitor_arg =
    Arg.(
      value & opt_all string []
      & info [ "allow-monitor" ] ~docv:"GLOB"
          ~doc:
            "accept monitor-depth issues whose 'where: what' matches GLOB \
             (repeatable)")
  in
  let allow_deadlock_arg =
    Arg.(
      value & opt_all string []
      & info [ "allow-deadlock" ] ~docv:"GLOB"
          ~doc:
            "accept deadlock cycles whose 'lock -> lock' key matches GLOB \
             (repeatable)")
  in
  let baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "accept racy/monitor/deadlock findings allow-listed in this \
             baseline JSON (arrays: allow, allow_monitors, allow_deadlocks)")
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      const lint $ name_opt_arg $ all_arg $ json_arg $ allow_arg
      $ allow_monitor_arg $ allow_deadlock_arg $ baseline_arg)

(* The farm runs on at least one shard domain, and so does explore, and
   batch records at least one round; fewer is bad input. *)
let at_least_one flag n =
  if n < 1 then refuse "--%s must be at least 1, not %d" flag n

(* A job deadline is a positive, finite span: NaN would run every job
   without one, and one at or below 0 would time every job out. *)
let positive_deadline d =
  if not (Float.is_finite d && d > 0.) then
    refuse "--deadline must be a positive number of seconds, not %g" d

(* --- explore: systematic schedule exploration --- *)

let explore name seed pb db no_dpor max_schedules max_artifacts out shards
    expect_failure no_regir =
  at_least_one "shards" shards;
  let e = find_workload name in
  let config = config_of_flags no_regir in
  (* a bad --out is refused now, not when the search emits its first
     failing schedule *)
  if out <> "" then Server.Job.ensure_out_dir out;
  let out = if out = "" then None else Some out in
  let dpor = not no_dpor in
  let runner =
    if shards <= 1 then None else Some (Server.Explore_farm.runner ~shards)
  in
  let rep =
    Explore.Driver.run ~config ~seed ~pb ~db ~dpor ~max_schedules
      ~max_artifacts ?out ?runner e
  in
  Fmt.pr "%a" Explore.Driver.pp_report rep;
  if expect_failure then begin
    let reproduced =
      List.exists
        (fun (f : Explore.Driver.failure) ->
          f.fl_kind = Explore.Driver.Fault && f.fl_replay_ok = Some true)
        rep.Explore.Driver.rp_failures
    in
    if not reproduced then begin
      Fmt.epr
        "explore: expected a fault with a replay-verified trace; found none \
         (give --out DIR so traces are emitted)@.";
      Stdlib.exit 1
    end
  end

let explore_cmd =
  let doc =
    "systematically explore thread schedules (DPOR-pruned, bounded search)"
  in
  let pb_arg =
    Arg.(
      value & opt int 2
      & info [ "pb" ] ~docv:"N" ~doc:"preemption bound per schedule")
  in
  let db_arg =
    Arg.(
      value & opt int 1
      & info [ "db" ] ~docv:"N" ~doc:"delay bound (non-FIFO dispatch picks)")
  in
  let no_dpor_arg =
    Arg.(
      value & flag
      & info [ "no-dpor" ]
          ~doc:
            "disable conflict-based pruning (exhaustive bounded search; \
             same outcomes, many more schedules)")
  in
  let max_schedules_arg =
    Arg.(
      value & opt int 2000
      & info [ "max-schedules" ] ~docv:"N" ~doc:"schedule budget")
  in
  let max_artifacts_arg =
    Arg.(
      value & opt int 4
      & info [ "max-artifacts" ] ~docv:"N"
          ~doc:"trace/witness pairs to emit at most")
  in
  let out_arg =
    Arg.(
      value & opt string ""
      & info [ "out" ] ~docv:"DIR"
          ~doc:"emit failing schedules as replayable traces + witnesses here")
  in
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "run schedules on N farm shards (1 = in this process); the \
             report is the same for any N")
  in
  let expect_failure_arg =
    Arg.(
      value & flag
      & info [ "expect-failure" ]
          ~doc:
            "exit 1 unless a fault was found AND its emitted trace replayed \
             to the identical failure (CI smoke mode)")
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      const explore $ name_arg $ seed_arg $ pb_arg $ db_arg $ no_dpor_arg
      $ max_schedules_arg $ max_artifacts_arg $ out_arg $ shards_arg
      $ expect_failure_arg $ no_regir_arg)

(* --- the replay farm: batch / serve / submit --- *)

let shards_arg =
  Arg.(
    value & opt int 4
    & info [ "shards" ] ~docv:"N" ~doc:"worker domains (one VM each)")

let out_dir_arg =
  Arg.(
    value & opt string "_batch"
    & info [ "out" ] ~docv:"DIR" ~doc:"directory for recorded traces")

let batch_cmd =
  let doc = "record every registry workload across N shard domains" in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECS" ~doc:"per-job deadline in seconds")
  in
  let rounds_arg =
    Arg.(
      value & opt int 1
      & info [ "rounds" ] ~docv:"N"
          ~doc:"record the registry N times over (rounds > 1 reuse warm VMs)")
  in
  let cold_arg =
    Arg.(
      value & flag
      & info [ "cold" ]
          ~doc:"boot a fresh VM per job instead of resetting warm shard pools")
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(
      const (fun shards seed no_regir out_dir deadline_s rounds cold ->
          at_least_one "shards" shards;
          at_least_one "rounds" rounds;
          Option.iter positive_deadline deadline_s;
          let config = config_of_flags no_regir in
          let rep =
            Server.Batch.run_registry ~shards ~config ~seed ?deadline_s
              ~warm:(not cold) ~rounds ~out_dir ()
          in
          Fmt.pr "%a@." Server.Batch.pp_report rep;
          if not rep.Server.Batch.ok then Stdlib.exit 1)
      $ shards_arg $ seed_arg $ no_regir_arg $ out_dir_arg $ deadline_arg
      $ rounds_arg $ cold_arg)

let socket_arg =
  Arg.(
    value & opt string "/tmp/dvrun.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path")

let serve_cmd =
  let doc = "serve record/replay/roundtrip/lint jobs over a Unix socket" in
  let max_conns_arg =
    Arg.(
      value & opt int 0
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"exit after N connections (0 = serve forever)")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const (fun shards socket_path out_dir max_conns ->
          at_least_one "shards" shards;
          let srv =
            on_socket socket_path (fun () ->
                Server.Serve.create ~shards ~socket_path ~out_dir ())
          in
          Fmt.pr "serving on %s (%d shards, traces -> %s)@." socket_path
            shards out_dir;
          let max_conns = if max_conns = 0 then None else Some max_conns in
          Fun.protect
            ~finally:(fun () -> Server.Serve.shutdown srv)
            (fun () -> Server.Serve.serve ?max_conns srv);
          Fmt.pr "%a@." Server.Stats.pp_view
            (Server.Stats.view (Server.Serve.stats srv)))
      $ shards_arg $ socket_arg $ out_dir_arg $ max_conns_arg)

let submit_cmd =
  let doc = "submit jobs to a running dvrun serve and print the replies" in
  let op_arg =
    let ops =
      [ ("record", Server.Protocol.Op_record);
        ("replay", Server.Protocol.Op_replay);
        ("roundtrip", Server.Protocol.Op_roundtrip);
        ("lint", Server.Protocol.Op_lint) ]
    in
    Arg.(
      required
      & pos 0 (some (enum ops)) None
      & info [] ~docv:"OP" ~doc:"record | replay | roundtrip | lint")
  in
  let workloads_arg =
    Arg.(
      value & pos_right 0 string []
      & info [] ~docv:"WORKLOAD" ~doc:"workloads (default: whole registry)")
  in
  let trace_arg =
    Arg.(
      value & opt string ""
      & info [ "trace" ] ~docv:"PATH"
          ~doc:"server-side trace path (replay jobs)")
  in
  let deadline_ms_arg =
    Arg.(
      value & opt int 0
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"per-job deadline (0 = none)")
  in
  Cmd.v (Cmd.info "submit" ~doc)
    Term.(
      const (fun socket_path op workloads seed trace deadline_ms ->
          if deadline_ms < 0 then
            refuse "--deadline-ms must be at least 0 (0 = none), not %d"
              deadline_ms;
          let workloads =
            if workloads <> [] then workloads
            else Workloads.Registry.names ()
          in
          (* the server hangs up on a request it refuses, so refuse here *)
          List.iter
            (fun s ->
              if String.length s > Server.Protocol.max_name then
                refuse "submit: a name or trace path of %d bytes (at most %d)"
                  (String.length s) Server.Protocol.max_name)
            (trace :: workloads);
          let reqs =
            List.map
              (fun w ->
                Server.Protocol.Submit
                  {
                    q_op = op;
                    q_workload = w;
                    q_seed = seed;
                    q_trace = trace;
                    q_deadline_ms = deadline_ms;
                  })
              workloads
          in
          (* a server that hangs up mid-conversation makes a write fail
             with EPIPE; without this, SIGPIPE would kill the client *)
          Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
          let replies =
            on_socket socket_path (fun () ->
                Server.Serve.client_submit ~socket_path reqs)
          in
          let failed = ref 0 in
          List.iter
            (fun (r : Server.Protocol.reply) ->
              (* a replay or roundtrip whose verdict is not ok is a
                 failed job, its verdict the reply's status *)
              if r.p_outcome <> 0 then incr failed;
              Fmt.pr "%-24s %-9s %-10s %2d att  %7.1f ms  %s %s@."
                r.p_workload
                (Server.Protocol.string_of_op r.p_op)
                (match r.p_outcome with
                | 0 -> "done"
                | 1 -> "failed"
                | 2 -> "timeout"
                | _ -> "cancelled")
                r.p_attempts
                (float_of_int r.p_latency_us /. 1e3)
                r.p_status
                (if r.p_digest = "" then ""
                 else String.sub r.p_digest 0 (min 12 (String.length r.p_digest))))
            replies;
          let missing = List.length reqs - List.length replies in
          if missing > 0 then
            Fmt.epr "submit: %d of %d jobs got no reply@." missing
              (List.length reqs);
          if !failed > 0 || missing > 0 then Stdlib.exit 1)
      $ socket_arg $ op_arg $ workloads_arg $ seed_arg $ trace_arg
      $ deadline_ms_arg)

let main_cmd =
  let doc = "DejaVu replay platform driver (simulated Jalapeño VM)" in
  Cmd.group (Cmd.info "dvrun" ~doc)
    [
      list_cmd; run_cmd; disasm_cmd; emit_cmd; compare_cmd; record_cmd;
      replay_cmd; verify_cmd; debug_cmd; dump_cmd; lint_cmd; explore_cmd;
      batch_cmd; serve_cmd; submit_cmd;
    ]

(* The one exit handler: bad input that reached no verdict or outcome
   exit is one stderr line and 2; any other exception is a bug, one line
   and 125. *)
let () =
  let refused msg =
    Fmt.epr "dvrun: %s@." msg;
    2
  in
  exit
    (match Cmd.eval ~catch:false main_cmd with
    | code -> code
    | exception (Refused msg | Sys_error msg) -> refused msg
    | exception Dejavu.Trace.Format_error msg ->
      refused (Fmt.str "malformed input (%s)" msg)
    | exception Unix.Unix_error (err, fn, arg) ->
      refused
        (Fmt.str "%s: %s" (if arg = "" then fn else arg) (Unix.error_message err))
    | exception e ->
      Fmt.epr "dvrun: internal error: %s@." (Printexc.to_string e);
      125)
