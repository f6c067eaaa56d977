(* Replaying a server-style workload — the paper's target domain.

   The bank workload runs teller threads that transfer money between
   accounts chosen by external input. We record a session to a trace file
   (as a field engineer would), ship the file around, reload it, and replay
   the exact session: same transfers, same interleaving, same audit. Then
   we compare the trace cost against the section-5 comparator schemes.

     dune exec examples/server_replay.exe *)

let program = Workloads.Bank.program ~accounts:10 ~tellers:4 ~transfers:60 ()

let () =
  (* 1. a day at the bank, recorded *)
  let recording, trace = Dejavu.record ~seed:20260705 program in
  Fmt.pr "--- recorded session ---@.%s" recording.Dejavu.output;
  Fmt.pr "status: %s@." (Vm.string_of_status recording.Dejavu.status);

  (* 2. persist the trace like a crash report *)
  let path = Filename.temp_file "bank" ".dejavu" in
  Dejavu.Trace.save path trace;
  let stat_size =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    close_in ic;
    n
  in
  Fmt.pr "@.trace file %s: %d bytes for %d executed instructions (%d inputs, %d switches)@."
    path stat_size
    (Vm.stats recording.Dejavu.vm).n_instr
    (Dejavu.Trace.sizes trace).n_inputs
    (Dejavu.Trace.sizes trace).n_switches;

  (* 3. back at the lab: reload and replay — no access to the original
     inputs or timing needed *)
  let loaded = Dejavu.Trace.load path in
  Sys.remove path;
  let replayed, leftovers = Dejavu.replay ~seed:1 program loaded in
  Fmt.pr "@.--- replayed session ---@.%s" replayed.Dejavu.output;
  Fmt.pr "audit identical: %b; machine state identical: %b; trace drained: %b@."
    (String.equal recording.Dejavu.output replayed.Dejavu.output)
    (recording.Dejavu.state_digest = replayed.Dejavu.state_digest)
    (leftovers = []);

  (* 4. what the same session would have cost under the other schemes *)
  Fmt.pr "@.--- trace cost comparison (words) ---@.";
  let dv_words = (Dejavu.Trace.sizes trace).total_words in
  let recorded attach =
    let config = Dejavu.with_seed 20260705 Vm.Rt.default_config in
    let vm = Vm.create ~config program in
    let b = attach vm in
    ignore (Vm.run vm);
    b
  in
  let sm =
    (Baselines.Switch_map.sizes (recorded Baselines.Switch_map.attach_record))
      .trace_words
  in
  let crew = (Baselines.Crew.sizes (recorded Baselines.Crew.attach)).trace_words in
  let rl =
    (Baselines.Read_log.sizes (recorded Baselines.Read_log.attach)).trace_words
  in
  Fmt.pr "dejavu     : %6d@." dv_words;
  Fmt.pr "switch-map : %6d (Russinovich-Cogswell: every switch + thread map)@." sm;
  Fmt.pr "read-log   : %6d (Recap/PPD: value of every shared read)@." rl;
  Fmt.pr "crew       : %6d (Instant Replay: every shared access)@." crew
