(* dvrun — run, record, replay, and compare workloads on the simulated VM.

     dvrun list                         catalogue of workloads
     dvrun run NAME [--seed N]          live run: output, status, stats
     dvrun record NAME -o T [--seed N]  record a run into trace file T
     dvrun replay NAME -i T             replay a recorded trace (exit 1 if it
                                        ends fatal or leaves trace words)
     dvrun compare NAME --seeds A,B,..  run under several seeds, diff outputs
     dvrun disasm NAME                  disassemble the workload's bytecode *)

open Cmdliner

(* A workload is either a catalogue entry or a path to a .djv assembly file
   (see lib/bytecode/parser.ml for the language). *)
let find_workload name =
  if Filename.check_suffix name ".djv" then begin
    match Bytecode.Parser.parse_file name with
    | program ->
      {
        Workloads.Registry.name;
        description = "from file";
        program;
        natives = [];
      }
    | exception Bytecode.Parser.Error (msg, line) ->
      Fmt.epr "%s:%d: %s@." name line msg;
      Stdlib.exit 2
    | exception Sys_error msg ->
      Fmt.epr "%s@." msg;
      Stdlib.exit 2
  end
  else
    match Workloads.Registry.find name with
    | Some e -> e
    | None ->
      Fmt.epr "unknown workload %S; try a .djv file or: %s@." name
        (String.concat ", " (Workloads.Registry.names ()));
      Stdlib.exit 2

(* Malformed trace files are user error, not an internal failure. *)
let load_trace path =
  match Dejavu.Trace.load path with
  | t -> t
  | exception Dejavu.Trace.Format_error msg ->
    Fmt.epr "%s: malformed trace (%s)@." path msg;
    Stdlib.exit 2
  | exception Sys_error msg ->
    Fmt.epr "%s@." msg;
    Stdlib.exit 2

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
   stream prints next to the source bytecode — inline-cache sites marked
   [ic], injected yield points marked [; yp] — followed by the register
   regions the fast loop runs in its place. *)
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
          "show the canonical compiled kinstr stream and its register \
           regions for each method")

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
             and a failed run leaves no partial file *)
          let run, sizes =
            Dejavu.record_to ~config ~natives:e.natives ~seed ~path:out
              e.program
          in
          Fmt.pr "--- output ---@.%s--- status: %s ---@." run.Dejavu.output
            (Vm.string_of_status run.status);
          Fmt.pr "trace -> %s (%a)@." out Dejavu.Trace.pp_sizes sizes;
          if verbose then Fmt.pr "%a@." pp_stats (Vm.stats run.vm))
      $ name_arg $ seed_arg $ no_regir_arg $ out_arg $ verbose_arg)

let replay_cmd =
  let doc =
    "replay a recorded trace; exits 1 if the replay ends fatal (a divergence) \
     or leaves trace words unconsumed"
  in
  let in_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "i"; "input" ] ~docv:"TRACE" ~doc:"trace file to read")
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(
      const (fun name inp no_regir verbose ->
          let e = find_workload name in
          let config = config_of_flags no_regir in
          (* streamed: O(chunk) trace memory during replay *)
          let run, leftovers =
            match
              Dejavu.replay_from ~config ~natives:e.natives ~path:inp e.program
            with
            | r -> r
            | exception Dejavu.Trace.Format_error msg ->
              Fmt.epr "%s: malformed trace (%s)@." inp msg;
              Stdlib.exit 2
            | exception Sys_error msg ->
              Fmt.epr "%s@." msg;
              Stdlib.exit 2
          in
          Fmt.pr "--- output ---@.%s--- status: %s ---@." run.Dejavu.output
            (Vm.string_of_status run.status);
          if leftovers <> [] then
            Fmt.pr "warning: %s@." (String.concat "; " leftovers);
          if verbose then Fmt.pr "%a@." pp_stats (Vm.stats run.vm);
          (* a divergence ends the run Fatal; like verify, fail on it and
             on unconsumed trace words *)
          match run.status with
          | Vm.Rt.Fatal _ -> Stdlib.exit 1
          | _ -> if leftovers <> [] then Stdlib.exit 1)
      $ name_arg $ in_arg $ no_regir_arg $ verbose_arg)

let verify_cmd =
  let doc = "record then replay, checking the accuracy criterion" in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(
      const (fun name seed ->
          let e = find_workload name in
          let rt =
            Dejavu.verify_roundtrip ~natives:e.natives ~seed e.program
          in
          Fmt.pr "%a@." Dejavu.pp_roundtrip rt;
          if not (Dejavu.ok rt) then Stdlib.exit 1)
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
          Fmt.pr "race audit: %s@."
            (match t.Dejavu.Trace.analysis_hash with
            | "" -> "(unaudited)"
            | h -> h);
          Fmt.pr "%a@." Dejavu.Trace.pp_sizes (Dejavu.Trace.sizes t);
          Fmt.pr "@.-- preemptive switches (yield-point deltas) --@.";
          Array.iteri
            (fun k d ->
              Fmt.pr "%6d" d;
              if (k + 1) mod 10 = 0 then Fmt.pr "@.")
            t.Dejavu.Trace.switches;
          Fmt.pr "@.@.-- wall-clock reads --@.";
          let n = Array.length t.Dejavu.Trace.clocks / 2 in
          for k = 0 to n - 1 do
            Fmt.pr "%-6s %d@."
              (Dejavu.Trace.reason_name t.Dejavu.Trace.clocks.(2 * k))
              t.Dejavu.Trace.clocks.((2 * k) + 1)
          done;
          Fmt.pr "@.-- inputs --@.";
          Array.iter (fun v -> Fmt.pr "%d " v) t.Dejavu.Trace.inputs;
          Fmt.pr "@.@.-- native outcomes --@.";
          let tape =
            Dejavu.Tape.of_array "natives" t.Dejavu.Trace.natives
          in
          (try
             while Dejavu.Tape.remaining tape > 0 do
               let id, o = Dejavu.Trace.read_native_outcome tape in
               Fmt.pr "native %d -> %s, %d callback(s)@." id
                 (match o.Vm.Rt.no_result with
                 | Some v -> string_of_int v
                 | None -> "void")
                 (List.length o.Vm.Rt.no_callbacks)
             done
           with Dejavu.Trace.End_of_tape _ | Dejavu.Trace.Format_error _ ->
             Fmt.pr "(malformed native tape)@.");
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

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg ->
    Fmt.epr "%s@." msg;
    Stdlib.exit 2

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
      | None ->
        Fmt.epr "lint: give a WORKLOAD (or .djv file) or --all@.";
        Stdlib.exit 2
  in
  let baseline =
    Option.map
      (fun p ->
        match Analysis.Json.parse (read_file p) with
        | j -> j
        | exception Analysis.Json.Parse_error msg ->
          Fmt.epr "%s: malformed baseline (%s)@." p msg;
          Stdlib.exit 2)
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

(* --- explore: systematic schedule exploration --- *)

let explore name seed pb db no_dpor max_schedules max_artifacts out shards
    expect_failure no_regir =
  let e = find_workload name in
  let config = config_of_flags no_regir in
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
          let srv =
            Server.Serve.create ~shards ~socket_path ~out_dir ()
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
          let workloads =
            if workloads <> [] then workloads
            else Workloads.Registry.names ()
          in
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
          let replies = Server.Serve.client_submit ~socket_path reqs in
          let failed = ref 0 in
          List.iter
            (fun (r : Server.Protocol.reply) ->
              (* a roundtrip's status is the farm's replay verdict: "ok",
                 or "mismatch" when the replay ended fatal, left trace
                 words unconsumed, or reached a different state digest; a
                 replay fails as `dvrun replay` does, on a fatal end (a
                 divergence or a rejected trace) or on leftover words *)
              if
                r.p_outcome <> 0
                || r.p_op = Server.Protocol.Op_roundtrip
                   && r.p_status <> "ok"
                || r.p_op = Server.Protocol.Op_replay
                   && (String.starts_with ~prefix:"fatal" r.p_status
                      || r.p_words > 0)
              then incr failed;
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
          if !failed > 0 then Stdlib.exit 1)
      $ socket_arg $ op_arg $ workloads_arg $ seed_arg $ trace_arg
      $ deadline_ms_arg)

let main_cmd =
  let doc = "DejaVu replay platform driver (simulated Jalapeño VM)" in
  Cmd.group (Cmd.info "dvrun" ~doc)
    [
      list_cmd; run_cmd; disasm_cmd; emit_cmd; compare_cmd; record_cmd;
      replay_cmd; verify_cmd; dump_cmd; lint_cmd; explore_cmd; batch_cmd;
      serve_cmd; submit_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
