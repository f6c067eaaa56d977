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

(* A request whose workload length is [n]: tag 0, op 0, then the length
   and nothing after it. *)
let huge_length_request n =
  let b = Buffer.create 16 in
  List.iter (T.put_varint b) [ 0; 0; n ];
  Buffer.contents b

(* A string length near [max_int] must not overflow the bounds check into
   [String.sub]: Format_error, not Invalid_argument, in requests and
   replies alike. *)
let test_protocol_huge_length () =
  List.iter
    (fun n ->
      (match P.decode_request (huge_length_request n) with
      | exception T.Format_error _ -> ()
      | _ -> Alcotest.failf "request with length %d decoded" n);
      let b = Buffer.create 16 in
      (* reply: seq, op, then the workload's length *)
      List.iter (T.put_varint b) [ 1; 0; n ];
      Buffer.add_string b "bank";
      match P.decode_reply (Buffer.contents b) with
      | exception T.Format_error _ -> ()
      | _ -> Alcotest.failf "reply with length %d decoded" n)
    [ max_int; max_int - 2 ]

(* Workload names and trace paths are at most 4,096 bytes: one byte more
   in either is malformed. *)
let test_protocol_name_bound () =
  let submit ~workload ~trace =
    P.encode_request
      (P.Submit
         {
           q_op = P.Op_replay;
           q_workload = workload;
           q_seed = 1;
           q_trace = trace;
           q_deadline_ms = 0;
         })
  in
  List.iter
    (fun (what, frame) ->
      (match P.decode_request (frame 4096) with
      | P.Submit _ -> ()
      | P.Finish -> Alcotest.failf "%s of 4096 bytes decoded as Finish" what);
      match P.decode_request (frame 4097) with
      | exception T.Format_error _ -> ()
      | _ -> Alcotest.failf "%s of 4097 bytes decoded" what)
    [
      ("workload", fun n -> submit ~workload:(String.make n 'w') ~trace:"");
      ("trace", fun n -> submit ~workload:"bank" ~trace:(String.make n 't'));
    ]

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

(* Bytes through a pipe: [write] fills its write end, [read] drains its
   read end. Frames are far below the pipe's buffer size. *)
let through_pipe write read =
  let r, w = Unix.pipe () in
  let oc = Unix.out_channel_of_descr w in
  write oc;
  close_out oc;
  let ic = Unix.in_channel_of_descr r in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic)

(* A header claiming a frame just under [max_frame], then 3 bytes and a
   hang-up: reading it must cost about the bytes sent, not the claim. *)
let test_frame_claim_bounded () =
  let before = Gc.allocated_bytes () in
  (match
     through_pipe
       (fun oc ->
         output_binary_int oc ((16 * 1024 * 1024) - 1);
         output_string oc "abc")
       P.read_frame
   with
  | exception T.Format_error _ -> ()
  | _ -> Alcotest.fail "accepted truncated frame");
  let allocated = Gc.allocated_bytes () -. before in
  if allocated > 1024. *. 1024. then
    Alcotest.failf "allocated %.0f bytes for a 3-byte payload" allocated

(* Every single-byte flip, insertion and deletion of an encoded Submit,
   Finish or reply frame (length prefix included) read back through
   [read_frame] either decodes or raises [Format_error]: no other
   exception escapes the wire boundary. A proper prefix (op 3) is a
   clean EOF when empty and must raise [Format_error] otherwise, the
   length prefix cut short included. A huge length (op 4) replaces one
   payload byte by the varint of a value within 255 of [max_int] and is
   framed anew, so when the byte was a string's length the string claims
   far more bytes than the frame holds. *)
let mutant_payloads =
  [
    (P.encode_request sample_submit, fun s -> ignore (P.decode_request s));
    (P.encode_request P.Finish, fun s -> ignore (P.decode_request s));
    (P.encode_reply sample_reply, fun s -> ignore (P.decode_reply s));
  ]

let mutant_arb =
  QCheck.(quad (int_bound 2) (int_bound 4) (int_bound 1000) (int_bound 255))

let frame payload =
  through_pipe (fun oc -> P.write_frame oc payload) In_channel.input_all

let frame_mutant (which, op, pos, byte) =
  let payload, _ = List.nth mutant_payloads which in
  if op = 3 then
    let frame = frame payload in
    String.sub frame 0 (pos mod String.length frame)
  else if op = 4 then begin
    let pos = pos mod String.length payload in
    let b = Buffer.create 16 in
    T.put_varint b (max_int - byte);
    frame
      (String.sub payload 0 pos ^ Buffer.contents b
      ^ String.sub payload (pos + 1) (String.length payload - pos - 1))
  end
  else Tutil.mutate (frame payload) op pos byte

let prop_frame_mutants =
  QCheck.Test.make ~name:"protocol: frame mutants decode or raise Format_error"
    ~count:3000 mutant_arb
    (fun ((which, op, _, _) as m) ->
      let _, decode = List.nth mutant_payloads which in
      let bytes = frame_mutant m in
      match
        through_pipe
          (fun oc -> output_string oc bytes)
          (fun ic -> Option.map decode (P.read_frame ic))
      with
      | None -> op <> 3 || bytes = ""
      | Some () -> op <> 3
      | exception T.Format_error _ -> op <> 3 || bytes <> "")

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

(* An --out path that exists but is not a directory is refused before any
   job runs or any socket is bound: [Sys_error] naming the path, rather
   than one failed record per workload. *)
let test_out_not_a_directory () =
  with_tmp_dir (fun dir ->
      let file = Filename.concat dir "file" in
      close_out (open_out file);
      let refused what f =
        match f () with
        | _ -> Alcotest.failf "%s accepted a regular file as --out" what
        | exception Sys_error msg ->
          Alcotest.(check string) (what ^ " names the path")
            (file ^ ": Not a directory") msg
      in
      refused "batch" (fun () ->
          ignore (Server.Batch.run_registry ~shards:1 ~out_dir:file ()));
      let socket_path = Filename.concat dir "dv.sock" in
      refused "serve" (fun () ->
          ignore (Server.Serve.create ~shards:1 ~socket_path ~out_dir:file ()));
      Alcotest.(check bool) "serve bound no socket" false
        (Sys.file_exists socket_path))

(* --- jobs read the one replay verdict ------------------------------------ *)

(* A recording that ends fatal is reproduced, not failed: under a tiny
   instruction limit [primes] ends "fatal: instruction limit", and a cold
   Replay and Roundtrip of it are both Done with that status. A Replay
   against another program's trace is Failed, with the rejection as its
   message. *)
let test_jobs_share_the_verdict () =
  with_tmp_dir (fun dir ->
      let config = { Vm.Rt.default_config with instr_limit = 20_000 } in
      let trace = Filename.concat dir "primes.trace" in
      let ctx = { D.shard = 0; seq = 0; should_stop = ignore } in
      let recorded =
        Server.Job.run ~config ctx
          (Server.Job.Record { workload = "primes"; seed = 1; out = trace })
      in
      let status = recorded.Server.Job.o_status in
      Alcotest.(check bool) ("recording hits the limit: " ^ status) true
        (Tutil.contains status "instruction limit");
      let rep =
        Server.Batch.run_specs ~warm:false ~config
          [
            Server.Job.Replay { workload = "primes"; trace };
            Server.Job.Roundtrip { workload = "primes"; seed = 1 };
            Server.Job.Replay { workload = "racy-counter"; trace };
          ]
      in
      match rep.Server.Batch.rows with
      | [ replay; roundtrip; foreign ] ->
        List.iter
          (fun (what, (r : Server.Batch.row)) ->
            Alcotest.(check string) (what ^ " done") "done" r.b_outcome;
            Alcotest.(check string) (what ^ " status") status r.b_status)
          [ ("replay", replay); ("roundtrip", roundtrip) ];
        Alcotest.(check bool) foreign.Server.Batch.b_outcome true
          (String.starts_with ~prefix:"failed" foreign.b_outcome
          && Tutil.contains foreign.b_outcome "different program");
        Alcotest.(check bool) "batch not ok" false rep.Server.Batch.ok
      | _ -> Alcotest.fail "row shape")

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

let lint_submit w =
  P.Submit
    {
      q_op = P.Op_lint;
      q_workload = w;
      q_seed = 1;
      q_trace = "";
      q_deadline_ms = 0;
    }

(* A malformed request, written by [send_bad] on a fresh connection, ends
   its own conversation with a protocol error and no reply; the server
   goes on to serve the next connection. Each client waits at most 60 s
   for a reply, so a server that died on the bad request fails the test
   instead of hanging it. *)
let serve_survives send_bad =
  with_tmp_dir (fun out_dir ->
      let socket_path = Filename.concat out_dir "dv.sock" in
      let srv = Server.Serve.create ~shards:1 ~socket_path ~out_dir () in
      let server_domain =
        Domain.spawn (fun () -> Server.Serve.serve ~max_conns:2 srv)
      in
      let connect () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket_path);
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
        fd
      in
      let fd = connect () in
      send_bad fd (Unix.out_channel_of_descr fd);
      (* the server closes the connection without a reply *)
      let ic = Unix.in_channel_of_descr fd in
      Alcotest.(check bool) "no reply" true (P.read_reply ic = None);
      Unix.close fd;
      let fd = connect () in
      let replies =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let oc = Unix.out_channel_of_descr fd in
            P.write_request oc (lint_submit "bank");
            P.write_request oc P.Finish;
            let ic = Unix.in_channel_of_descr fd in
            let rec collect acc =
              match P.read_reply ic with
              | None -> List.rev acc
              | Some r -> collect (r :: acc)
            in
            collect [])
      in
      Domain.join server_domain;
      Server.Serve.shutdown srv;
      match replies with
      | [ r ] ->
        Alcotest.(check string) "own workload" "bank" r.P.p_workload;
        Alcotest.(check int) "own job done" 0 r.P.p_outcome
      | rs -> Alcotest.failf "%d replies, not 1" (List.length rs))

(* A frame whose workload string claims [max_int] bytes. *)
let test_serve_survives_huge_length () =
  serve_survives (fun _ oc -> P.write_frame oc (huge_length_request max_int))

(* A 9 MiB workload name fits in one frame, but the reply to its failed
   job would echo the name twice and overflow the frame limit; the server
   refuses the request instead. The client half-closes so that a server
   accepting the name would run the job and reply at once. *)
let test_serve_survives_oversized_name () =
  serve_survives (fun fd oc ->
      P.write_request oc (lint_submit (String.make (9 * 1024 * 1024) 'x'));
      Unix.shutdown fd Unix.SHUTDOWN_SEND)

(* The frame mutants above, each on its own connection to a live server:
   whatever one makes the server do (run its job, refuse the frame as a
   protocol error, or raise anything else), it ends only its own
   conversation, so a roundtrip submitted on a fresh connection afterwards
   is answered. Reads time out after 60 s, so a server that died fails
   the test instead of hanging it. *)
let test_serve_survives_frame_mutants () =
  let mutants =
    QCheck.Gen.generate ~rand:(Random.State.make [| 28 |]) ~n:60
      mutant_arb.QCheck.gen
  in
  with_tmp_dir (fun out_dir ->
      let socket_path = Filename.concat out_dir "dv.sock" in
      let srv = Server.Serve.create ~shards:1 ~socket_path ~out_dir () in
      let server_domain =
        Domain.spawn (fun () ->
            Server.Serve.serve ~max_conns:(List.length mutants + 1) srv)
      in
      let converse bytes =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.connect fd (Unix.ADDR_UNIX socket_path);
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
            (* a server that hung up early makes the write fail *)
            (try
               let oc = Unix.out_channel_of_descr fd in
               output_string oc bytes;
               flush oc;
               Unix.shutdown fd Unix.SHUTDOWN_SEND
             with Sys_error _ | Unix.Unix_error _ -> ());
            In_channel.input_all (Unix.in_channel_of_descr fd))
      in
      List.iter (fun m -> ignore (converse (frame_mutant m))) mutants;
      let roundtrip =
        P.Submit
          {
            q_op = P.Op_roundtrip;
            q_workload = "bank";
            q_seed = 1;
            q_trace = "";
            q_deadline_ms = 0;
          }
      in
      let answer = converse (frame (P.encode_request roundtrip)) in
      Domain.join server_domain;
      Server.Serve.shutdown srv;
      let rec replies ic =
        match P.read_reply ic with None -> [] | Some r -> r :: replies ic
      in
      match through_pipe (fun oc -> output_string oc answer) replies with
      | [ r ] ->
        Alcotest.(check string) "own workload" "bank" r.P.p_workload;
        Alcotest.(check int) "roundtrip done" 0 r.P.p_outcome
      | rs -> Alcotest.failf "%d replies, not 1" (List.length rs))

(* [dvrun submit] against a server that hangs up, played by a listener
   that serves one connection with [conv]. SIGPIPE is ignored here, as
   dvrun submit ignores it, so a write to the closed socket fails with
   EPIPE instead of killing the process. *)
let with_listener conv f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  with_tmp_dir (fun dir ->
      let socket_path = Filename.concat dir "dv.sock" in
      let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close lfd)
        (fun () ->
          Unix.bind lfd (Unix.ADDR_UNIX socket_path);
          Unix.listen lfd 1;
          let listener =
            Domain.spawn (fun () ->
                let fd, _ = Unix.accept lfd in
                Fun.protect
                  ~finally:(fun () -> Unix.close fd)
                  (fun () ->
                    conv (Unix.in_channel_of_descr fd)
                      (Unix.out_channel_of_descr fd)))
          in
          Fun.protect
            ~finally:(fun () -> Domain.join listener)
            (fun () -> f socket_path)))

(* The listener reads one frame and closes while the client still has
   about 1 MB to write, more than the socket buffers hold: the client's
   blocked write fails, and [client_submit] raises Sys_error, which
   dvrun submit reports in one line and exits 2. *)
let test_submit_hang_up () =
  with_listener
    (fun ic _ -> ignore (P.read_request ic))
    (fun socket_path ->
      let reqs = List.init 256 (fun _ -> lint_submit (String.make 4000 'x')) in
      match Server.Serve.client_submit ~socket_path reqs with
      | rs -> Alcotest.failf "%d replies after a hang-up" (List.length rs)
      | exception Sys_error _ -> ())

(* The listener takes both Submits and Finish but replies once: the
   client returns the one reply, and dvrun submit exits 1 on the job that
   got none. *)
let test_submit_short_replies () =
  with_listener
    (fun ic oc ->
      let rec drain () =
        match P.read_request ic with
        | None | Some P.Finish -> ()
        | Some _ -> drain ()
      in
      drain ();
      P.write_reply oc
        {
          P.p_seq = 0;
          p_op = P.Op_lint;
          p_workload = "bank";
          p_outcome = 0;
          p_status = "ok";
          p_digest = "";
          p_attempts = 1;
          p_latency_us = 0;
          p_words = 0;
        })
    (fun socket_path ->
      let replies =
        Server.Serve.client_submit ~socket_path
          [ lint_submit "bank"; lint_submit "primes" ]
      in
      Alcotest.(check int) "one reply of two" 1 (List.length replies))

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
          quick "huge string length refused" test_protocol_huge_length;
          quick "oversized names and trace paths refused"
            test_protocol_name_bound;
          quick "truncated frame" test_frame_truncation;
          quick "frame claim costs the bytes sent" test_frame_claim_bounded;
          QCheck_alcotest.to_alcotest prop_frame_mutants;
        ] );
      ( "streaming",
        [
          quick "byte identity across registry" test_stream_byte_identity_registry;
          quick "replay equivalence" test_stream_replay_equivalence;
          quick "truncated trace" test_stream_replay_truncated;
        ] );
      ( "batch",
        [
          quick "shard-count invariance" test_batch_shard_invariance;
          quick "jobs share the verdict" test_jobs_share_the_verdict;
          quick "--out not a directory" test_out_not_a_directory;
        ] );
      ( "serve",
        [
          quick "end to end" test_serve_end_to_end;
          quick "poisoned conn isolated" test_serve_poisoned_conn_isolated;
          quick "survives a huge string length" test_serve_survives_huge_length;
          quick "survives an oversized workload name"
            test_serve_survives_oversized_name;
          quick "survives frame mutants" test_serve_survives_frame_mutants;
          quick "submit survives a hang-up" test_submit_hang_up;
          quick "submit returns short replies" test_submit_short_replies;
        ] );
    ]
