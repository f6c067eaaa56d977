(* The replay farm: work queue, dispatcher (ordering / deadline /
   cancellation), wire protocol, streamed-vs-materialized equivalence over
   the whole registry, shard-count-invariant batch digests, and an
   end-to-end serve/submit conversation over a Unix socket. *)

module T = Dejavu.Trace
module D = Server.Dispatcher
module P = Server.Protocol

let quick name f = Alcotest.test_case name `Quick f

(* --- Jobq --------------------------------------------------------------- *)

let test_jobq_fifo () =
  let q = Server.Jobq.create () in
  List.iter (fun v -> ignore (Server.Jobq.submit q v)) [ 10; 11; 12 ];
  Alcotest.(check int) "depth" 3 (Server.Jobq.depth q);
  Alcotest.(check int) "submitted" 3 (Server.Jobq.submitted q);
  let pop () =
    match Server.Jobq.pop_shard q ~shard:0 with
    | Some e -> (e.Server.Jobq.seq, e.Server.Jobq.payload)
    | None -> Alcotest.fail "queue empty"
  in
  Alcotest.(check (pair int int)) "first" (0, 10) (pop ());
  Alcotest.(check (pair int int)) "second" (1, 11) (pop ());
  Alcotest.(check (pair int int)) "third" (2, 12) (pop ());
  Server.Jobq.close q;
  Alcotest.(check bool) "drained" true
    (Server.Jobq.pop_shard q ~shard:0 = None);
  match Server.Jobq.submit q 13 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "submit on closed queue"

let test_jobq_cancel () =
  let q = Server.Jobq.create () in
  let e = Server.Jobq.submit q 1 in
  Server.Jobq.cancel e;
  (* cancelled entries still pop: every submission gets a result slot *)
  match Server.Jobq.pop_shard q ~shard:0 with
  | Some e' ->
    Alcotest.(check bool) "flagged" true (Server.Jobq.is_cancelled e')
  | None -> Alcotest.fail "cancelled entry vanished"

(* --- Dispatcher --------------------------------------------------------- *)

(* jobs finishing out of order must still emit results in submission
   order: later submissions sleep less *)
let test_dispatcher_order () =
  let d =
    D.create ~shards:3
      ~run:(fun _ctx ms ->
        Unix.sleepf (float_of_int ms /. 1e3);
        ms * 2)
      ()
  in
  let payloads = [ 50; 30; 20; 10; 1 ] in
  List.iter (fun p -> ignore (D.submit d p)) payloads;
  let rs = D.drain d in
  Alcotest.(check (list int))
    "payloads in submission order" payloads
    (List.map (fun r -> r.D.r_payload) rs);
  Alcotest.(check (list int)) "seqs" [ 0; 1; 2; 3; 4 ]
    (List.map (fun r -> r.D.r_seq) rs);
  List.iter
    (fun r ->
      match r.D.r_outcome with
      | D.Done v -> Alcotest.(check int) "result" (r.D.r_payload * 2) v
      | _ -> Alcotest.fail "job did not complete")
    rs

let test_dispatcher_deadline () =
  let d =
    D.create ~shards:1
      ~run:(fun ctx () ->
        while true do
          ctx.D.should_stop ();
          Unix.sleepf 0.002
        done)
      ()
  in
  ignore (D.submit d ~deadline:(Unix.gettimeofday () +. 0.03) ());
  match D.drain d with
  | [ r ] -> (
    match r.D.r_outcome with
    | D.Timed_out -> ()
    | _ -> Alcotest.fail "expected Timed_out")
  | _ -> Alcotest.fail "expected 1 result"

let test_dispatcher_cancel () =
  let d =
    D.create ~shards:1
      ~run:(fun ctx ms ->
        let until = Unix.gettimeofday () +. (float_of_int ms /. 1e3) in
        while Unix.gettimeofday () < until do
          ctx.D.should_stop ();
          Unix.sleepf 0.002
        done)
      ()
  in
  let a = D.submit d 500 in
  let b = D.submit d 1 in
  (* b is still queued behind a: cancelling it must not run it at all;
     cancelling a stops it mid-run at the next poll *)
  D.cancel b;
  Unix.sleepf 0.02;
  D.cancel a;
  match D.drain d with
  | [ ra; rb ] ->
    (match ra.D.r_outcome with
    | D.Cancelled_ -> ()
    | _ -> Alcotest.fail "running job not cancelled");
    Alcotest.(check int) "a started" 1 ra.D.r_attempts;
    (match rb.D.r_outcome with
    | D.Cancelled_ -> ()
    | _ -> Alcotest.fail "queued job not cancelled");
    Alcotest.(check int) "b never started" 0 rb.D.r_attempts;
    let v = Server.Stats.view (D.stats d) in
    Alcotest.(check int) "stats cancelled" 2 v.Server.Stats.v_cancelled;
    Alcotest.(check int) "stats depth drained" 0 v.Server.Stats.v_depth
  | _ -> Alcotest.fail "expected 2 results"

let test_stats_counters () =
  (* hold every job inside [run] until all four are submitted: depth only
     drops at completion, so the peak is deterministically 4 *)
  let gate = Atomic.make false in
  let d =
    D.create ~shards:2
      ~run:(fun _ n ->
        while not (Atomic.get gate) do
          Unix.sleepf 0.001
        done;
        if n < 0 then failwith "neg" else n)
      ()
  in
  List.iter (fun n -> ignore (D.submit d n)) [ 1; -1; 2; 3 ];
  Atomic.set gate true;
  ignore (D.drain d);
  let v = Server.Stats.view (D.stats d) in
  Alcotest.(check int) "submitted" 4 v.Server.Stats.v_submitted;
  Alcotest.(check int) "ok" 3 v.Server.Stats.v_succeeded;
  Alcotest.(check int) "failed" 1 v.Server.Stats.v_failed;
  Alcotest.(check int) "peak depth" 4 v.Server.Stats.v_peak_depth;
  Alcotest.(check bool) "p99 >= p50" true
    (v.Server.Stats.v_p99 >= v.Server.Stats.v_p50)

(* A quantile reports its bucket's upper edge, which for three completions
   of 29, 30 and 37 ms lies well above the max: it must be clamped so that
   p50 <= p99 <= max. *)
let test_stats_quantiles_bounded () =
  let st = Server.Stats.create () in
  List.iter
    (fun ms ->
      Server.Stats.on_submit st;
      Server.Stats.on_complete st Server.Stats.Succeeded ~latency:(ms /. 1e3))
    [ 29.; 30.; 36.7 ];
  let v = Server.Stats.view st in
  Alcotest.(check bool)
    (Fmt.str "p50 %.1f <= p99 %.1f <= max %.1f ms" (v.Server.Stats.v_p50 *. 1e3)
       (v.Server.Stats.v_p99 *. 1e3) (v.Server.Stats.v_max *. 1e3))
    true
    (v.Server.Stats.v_p50 <= v.Server.Stats.v_p99
    && v.Server.Stats.v_p99 <= v.Server.Stats.v_max)

(* --- Protocol ----------------------------------------------------------- *)

let sample_submit =
  P.Submit
    {
      q_op = P.Op_replay;
      q_workload = "fig1ab";
      q_seed = 7;
      q_trace = "/tmp/x.trace";
      q_deadline_ms = 1500;
    }

let sample_reply =
  {
    P.p_seq = 3;
    p_op = P.Op_record;
    p_workload = "bank";
    p_outcome = 0;
    p_status = "finished";
    p_digest = "deadbeef";
    p_attempts = 1;
    p_latency_us = 12345;
    p_words = 99;
  }

let test_protocol_roundtrip () =
  (match P.decode_request (P.encode_request sample_submit) with
  | P.Submit { q_workload; q_seed; q_trace; q_deadline_ms; _ } ->
    Alcotest.(check string) "workload" "fig1ab" q_workload;
    Alcotest.(check int) "seed" 7 q_seed;
    Alcotest.(check string) "trace" "/tmp/x.trace" q_trace;
    Alcotest.(check int) "deadline" 1500 q_deadline_ms
  | P.Finish -> Alcotest.fail "decoded as Finish");
  (match P.decode_request (P.encode_request P.Finish) with
  | P.Finish -> ()
  | _ -> Alcotest.fail "Finish roundtrip");
  let r = P.decode_reply (P.encode_reply sample_reply) in
  Alcotest.(check bool) "reply roundtrip" true (r = sample_reply)

let test_protocol_malformed () =
  (* truncated payload, corrupt tag, trailing garbage: Format_error, no crash *)
  let enc = P.encode_request sample_submit in
  for cut = 0 to String.length enc - 1 do
    match P.decode_request (String.sub enc 0 cut) with
    | exception T.Format_error _ -> ()
    | exception T.End_of_tape _ -> Alcotest.fail "leaked End_of_tape"
    | _ -> Alcotest.fail (Fmt.str "decoded a %d-byte prefix" cut)
  done;
  (match P.decode_request (enc ^ "zz") with
  | exception T.Format_error _ -> ()
  | _ -> Alcotest.fail "accepted trailing bytes");
  match P.decode_request "\xff\xff\xff" with
  | exception T.Format_error _ -> ()
  | _ -> Alcotest.fail "accepted garbage"

(* The ops are tags 0-3: a Submit frame whose op tag is 4 is malformed,
   while the same frame with tag 3 decodes, so only the tag is at fault. *)
let test_protocol_unknown_op () =
  let frame op =
    let b = Buffer.create 16 in
    List.iter (T.put_varint b) [ 0; op; String.length "atomicity" ];
    Buffer.add_string b "atomicity";
    List.iter (T.put_varint b) [ 1; 0; 0 ];
    Buffer.contents b
  in
  (match P.decode_request (frame 3) with
  | P.Submit { q_op = P.Op_lint; _ } -> ()
  | _ -> Alcotest.fail "op tag 3 is not lint");
  match P.decode_request (frame 4) with
  | exception T.Format_error _ -> ()
  | _ -> Alcotest.fail "accepted op tag 4"

let test_frame_truncation () =
  let path = Filename.temp_file "dvframe" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      (* length says 100, only 3 bytes follow *)
      output_binary_int oc 100;
      output_string oc "abc";
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match P.read_frame ic with
          | exception T.Format_error _ -> ()
          | _ -> Alcotest.fail "accepted truncated frame"))

(* --- streamed record/replay vs materialized ----------------------------- *)

(* for every registry workload: recording through the streaming writer must
   produce a byte-identical file to serializing the materialized trace *)
let test_stream_byte_identity_registry () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let path = Filename.temp_file "dvstream" ".trace" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let _, trace = Dejavu.record ~natives:e.natives e.program in
          let _, _ =
            Dejavu.record_to ~natives:e.natives ~path e.program
          in
          let ic = open_in_bin path in
          let streamed = really_input_string ic (in_channel_length ic) in
          close_in ic;
          Alcotest.(check bool)
            (e.name ^ ": streamed = materialized")
            true
            (String.equal (T.to_bytes trace) streamed)))
    (Lazy.force Workloads.Registry.all)

(* streaming replay must reach the same final state as materialized replay *)
let test_stream_replay_equivalence () =
  List.iter
    (fun name ->
      let e = Option.get (Workloads.Registry.find name) in
      let path = Filename.temp_file "dvrep" ".trace" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let _, _ = Dejavu.record_to ~natives:e.natives ~path e.program in
          let mat, mleft =
            Dejavu.replay ~natives:e.natives e.program (T.load path)
          in
          let str, sleft =
            Dejavu.replay_from ~natives:e.natives ~path e.program
          in
          Alcotest.(check bool) (name ^ ": both complete") true
            (mleft = [] && sleft = []);
          Alcotest.(check string)
            (name ^ ": same output")
            mat.Dejavu.output str.Dejavu.output;
          Alcotest.(check bool)
            (name ^ ": same state digest")
            true
            (mat.Dejavu.state_digest = str.Dejavu.state_digest)))
    [ "fig1ab"; "producer-consumer"; "native"; "webserver" ]

(* truncated trace file through the full streaming replay path *)
let test_stream_replay_truncated () =
  let e = Option.get (Workloads.Registry.find "fig1ab") in
  let path = Filename.temp_file "dvtrunc" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let _, _ = Dejavu.record_to ~natives:e.natives ~path e.program in
      let ic = open_in_bin path in
      let whole = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub whole 0 (String.length whole / 2));
      close_out oc;
      match Dejavu.replay_from ~natives:e.natives ~path e.program with
      | exception T.Format_error _ -> ()
      | run, _ -> (
        (* a cut landing on a section boundary can parse; replay must then
           either diverge or finish — never crash *)
        match run.Dejavu.status with
        | Vm.Rt.Fatal _ | Vm.Rt.Finished | Vm.Rt.Halted _ | Vm.Rt.Deadlocked
          ->
          ()
        | Vm.Rt.Running_ -> Alcotest.fail "replay left running"))

(* --- batch -------------------------------------------------------------- *)

let batch_specs out_dir =
  List.map
    (fun name ->
      Server.Job.Record
        {
          workload = name;
          seed = 1;
          out = Filename.concat out_dir (name ^ ".trace");
        })
    [ "fig1ab"; "racy-counter"; "producer-consumer"; "bank"; "primes"; "native" ]
  @ [
      Server.Job.Lint { workload = "fig1ab" };
      Server.Job.Roundtrip { workload = "synced-counter"; seed = 3 };
    ]

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "dvbatch-%d-%.0f" (Unix.getpid ()) (Unix.gettimeofday () *. 1e6))
  in
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let test_batch_shard_invariance () =
  with_tmp_dir (fun d1 ->
      with_tmp_dir (fun d4 ->
          let r1 = Server.Batch.run_specs ~shards:1 (batch_specs d1) in
          let r4 = Server.Batch.run_specs ~shards:4 (batch_specs d4) in
          Alcotest.(check bool) "sequential ok" true r1.Server.Batch.ok;
          Alcotest.(check bool) "sharded ok" true r4.Server.Batch.ok;
          Alcotest.(check string)
            "aggregate digest is shard-count invariant"
            r1.Server.Batch.aggregate r4.Server.Batch.aggregate;
          Alcotest.(check int) "row count" (List.length r1.Server.Batch.rows)
            (List.length r4.Server.Batch.rows)))

(* --- serve over a Unix socket ------------------------------------------- *)

let test_serve_end_to_end () =
  with_tmp_dir (fun out_dir ->
      let socket_path = Filename.concat out_dir "dv.sock" in
      let srv =
        Server.Serve.create ~shards:2 ~socket_path ~out_dir ()
      in
      let server_domain =
        Domain.spawn (fun () -> Server.Serve.serve ~max_conns:1 srv)
      in
      let reqs =
        List.map
          (fun (op, w) ->
            P.Submit
              {
                q_op = op;
                q_workload = w;
                q_seed = 1;
                q_trace = "";
                q_deadline_ms = 0;
              })
          [
            (P.Op_record, "fig1ab");
            (P.Op_lint, "bank");
            (P.Op_record, "nonexistent-workload");
          ]
      in
      let replies = Server.Serve.client_submit ~socket_path reqs in
      Domain.join server_domain;
      Server.Serve.shutdown srv;
      Alcotest.(check int) "3 replies" 3 (List.length replies);
      (match replies with
      | [ a; b; c ] ->
        Alcotest.(check string) "in order" "fig1ab" a.P.p_workload;
        Alcotest.(check int) "record done" 0 a.P.p_outcome;
        Alcotest.(check bool) "trace digest" true (String.length a.P.p_digest > 0);
        Alcotest.(check int) "lint done" 0 b.P.p_outcome;
        Alcotest.(check string) "lint status" "ok" b.P.p_status;
        Alcotest.(check int) "unknown workload fails" 1 c.P.p_outcome
      | _ -> Alcotest.fail "reply shape");
      Alcotest.(check bool) "trace file written" true
        (Sys.file_exists (Filename.concat out_dir "fig1ab-0.trace")))

(* A conversation that dies on a malformed frame must not leave its results
   in the dispatcher's reorder buffer: the next connection's reply loop
   would otherwise pull the orphaned results as its own and every later
   conversation would be desynchronized. *)
let test_serve_poisoned_conn_isolated () =
  with_tmp_dir (fun out_dir ->
      let socket_path = Filename.concat out_dir "dv.sock" in
      let srv = Server.Serve.create ~shards:2 ~socket_path ~out_dir () in
      let server_domain =
        Domain.spawn (fun () -> Server.Serve.serve ~max_conns:2 srv)
      in
      let submit op w =
        P.Submit
          {
            q_op = op;
            q_workload = w;
            q_seed = 1;
            q_trace = "";
            q_deadline_ms = 0;
          }
      in
      (* connection 1: two real submissions, then a frame with an unknown
         request tag — the server errors out before streaming any reply *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      let oc = Unix.out_channel_of_descr fd in
      P.write_request oc (submit P.Op_lint "fig1ab");
      P.write_request oc (submit P.Op_lint "primes");
      let b = Buffer.create 4 in
      T.put_varint b 7;
      output_binary_int oc (Buffer.length b);
      Buffer.output_buffer oc b;
      flush oc;
      Unix.close fd;
      (* connection 2 must see exactly its own reply, not an orphan of
         connection 1 *)
      let replies =
        Server.Serve.client_submit ~socket_path [ submit P.Op_lint "bank" ]
      in
      Domain.join server_domain;
      Server.Serve.shutdown srv;
      Alcotest.(check int) "one reply" 1 (List.length replies);
      match replies with
      | [ r ] ->
        Alcotest.(check string) "own workload" "bank" r.P.p_workload;
        Alcotest.(check int) "own job done" 0 r.P.p_outcome
      | _ -> Alcotest.fail "reply shape")

let () =
  Alcotest.run "server"
    [
      ("jobq", [ quick "fifo" test_jobq_fifo; quick "cancel" test_jobq_cancel ]);
      ( "dispatcher",
        [
          quick "in-order results" test_dispatcher_order;
          quick "deadline" test_dispatcher_deadline;
          quick "cancellation" test_dispatcher_cancel;
          quick "stats counters" test_stats_counters;
          quick "stats quantiles within max" test_stats_quantiles_bounded;
        ] );
      ( "protocol",
        [
          quick "roundtrip" test_protocol_roundtrip;
          quick "malformed payloads" test_protocol_malformed;
          quick "op tag 4 refused" test_protocol_unknown_op;
          quick "truncated frame" test_frame_truncation;
        ] );
      ( "streaming",
        [
          quick "byte identity across registry" test_stream_byte_identity_registry;
          quick "replay equivalence" test_stream_replay_equivalence;
          quick "truncated trace" test_stream_replay_truncated;
        ] );
      ("batch", [ quick "shard-count invariance" test_batch_shard_invariance ]);
      ( "serve",
        [
          quick "end to end" test_serve_end_to_end;
          quick "poisoned conn isolated" test_serve_poisoned_conn_isolated;
        ] );
    ]
