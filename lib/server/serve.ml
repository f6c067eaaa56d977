(* [dvrun serve]: jobs over a Unix-domain socket. Connections are handled
   one at a time and each follows a strict shape — a burst of Submit
   frames, then Finish, then the server streams every reply back in
   submission order and closes the connection. The shard pool persists
   across connections; only the socket conversation is sequential.

   Because connections are sequential, one connection's submissions occupy
   a contiguous run of sequence numbers, so pulling [Dispatcher.next] once
   per submission yields exactly this connection's results, in order. *)

module Trace = Dejavu.Trace

type t = {
  dispatcher : (Job.spec, Job.output) Dispatcher.t;
  out_dir : string;
  socket_path : string;
  listen_fd : Unix.file_descr;
  mutable conns : int;
  mutable next_name : int; (* suffix for server-assigned trace paths *)
}

let outcome_int = function
  | Dispatcher.Done _ -> 0
  | Dispatcher.Failed _ -> 1
  | Dispatcher.Timed_out -> 2
  | Dispatcher.Cancelled_ -> 3

let reply_of_result (r : (Job.spec, Job.output) Dispatcher.result) :
    Protocol.reply =
  let op =
    match r.r_payload with
    | Job.Record _ -> Protocol.Op_record
    | Job.Replay _ -> Protocol.Op_replay
    | Job.Roundtrip _ -> Protocol.Op_roundtrip
    | Job.Lint _ -> Protocol.Op_lint
  in
  let status, digest, words =
    match r.r_outcome with
    | Dispatcher.Done o -> (o.Job.o_status, o.Job.o_digest, o.Job.o_words)
    | Dispatcher.Failed msg -> (msg, "", 0)
    | Dispatcher.Timed_out -> ("deadline exceeded", "", 0)
    | Dispatcher.Cancelled_ -> ("cancelled", "", 0)
  in
  {
    p_seq = r.r_seq;
    p_op = op;
    p_workload = Job.workload_of r.r_payload;
    p_outcome = outcome_int r.r_outcome;
    p_status = status;
    p_digest = digest;
    p_attempts = r.r_attempts;
    p_latency_us = int_of_float (r.r_latency *. 1e6);
    p_words = words;
  }

(* The server owns output naming: a record's trace lands in
   [out_dir]/NAME-SEQ.trace so concurrent submissions of the same workload
   never collide. *)
let spec_of_submit t ~seq (s : Protocol.request) : Job.spec =
  match s with
  | Protocol.Finish -> invalid_arg "spec_of_submit: Finish"
  | Protocol.Submit q -> (
    match q.q_op with
    | Protocol.Op_record ->
      Job.Record
        {
          workload = q.q_workload;
          seed = q.q_seed;
          out =
            Filename.concat t.out_dir (Fmt.str "%s-%d.trace" q.q_workload seq);
        }
    | Protocol.Op_replay ->
      Job.Replay { workload = q.q_workload; trace = q.q_trace }
    | Protocol.Op_roundtrip ->
      Job.Roundtrip { workload = q.q_workload; seed = q.q_seed }
    | Protocol.Op_lint -> Job.Lint { workload = q.q_workload })

let create ?(shards = 4) ?slice ~socket_path ~out_dir () : t =
  Job.preload ();
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  if Sys.file_exists socket_path then Sys.remove socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
  Unix.listen listen_fd 8;
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  (* warm shards: each serve worker keeps its pool of baseline-reset VMs
     across connections — exactly the long-lived process the warm path is
     for — with the runner's placement policy routing submissions *)
  let stats = Stats.create () in
  let runner = Job.runner ?slice ~stats ~shards () in
  {
    dispatcher =
      Dispatcher.create ~shards ~place:runner.Job.place ~stats
        ~run:runner.Job.run ();
    out_dir;
    socket_path;
    listen_fd;
    conns = 0;
    next_name = 0;
  }

(* One conversation: Submits until Finish (or EOF), then replies in
   submission order. For a protocol error to poison only its own
   connection, every result slot this conversation submitted must be
   consumed before the next connection is served — a malformed frame or a
   client disconnect mid-reply would otherwise leave orphaned results in
   the dispatcher's reorder buffer, and the next connection's reply loop
   would pull them as its own, desynchronizing every later conversation.
   The [finally] below discards whatever the reply loop never reached. *)
let handle_conn t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let submitted = ref 0 in
  let consumed = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      while !consumed < !submitted do
        match Dispatcher.next t.dispatcher with
        | Some _ -> incr consumed
        | None -> consumed := !submitted (* closed: no more slots coming *)
      done;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        let rec read_loop () =
          match Protocol.read_request ic with
          | None | Some Protocol.Finish -> ()
          | Some (Protocol.Submit q as req) ->
            let deadline =
              if q.q_deadline_ms > 0 then
                Some
                  (Unix.gettimeofday ()
                  +. (float_of_int q.q_deadline_ms /. 1e3))
              else None
            in
            let seq = t.next_name in
            t.next_name <- seq + 1;
            let spec = spec_of_submit t ~seq req in
            ignore (Dispatcher.submit t.dispatcher ?deadline spec);
            incr submitted;
            read_loop ()
        in
        read_loop ();
        for _ = 1 to !submitted do
          let r = Dispatcher.next t.dispatcher in
          incr consumed;
          match r with
          | None -> ()
          | Some r -> Protocol.write_reply oc (reply_of_result r)
        done
      with
      | Trace.Format_error msg ->
        (try Fmt.epr "serve: protocol error: %s@." msg with _ -> ())
      | Sys_error _ | Unix.Unix_error _ -> ())

(* Accept loop; [max_conns] bounds how many connections to serve (tests),
   [None] serves forever. *)
let serve ?max_conns t =
  let continue () =
    match max_conns with None -> true | Some n -> t.conns < n
  in
  while continue () do
    let fd, _ = Unix.accept t.listen_fd in
    t.conns <- t.conns + 1;
    handle_conn t fd
  done

let shutdown t =
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Sys.remove t.socket_path with Sys_error _ -> ());
  ignore (Dispatcher.drain t.dispatcher)

let stats t = Dispatcher.stats t.dispatcher

(* --- client side --- *)

(* Submit a batch over the socket and collect the replies, in order. *)
let client_submit ~socket_path (reqs : Protocol.request list) :
    Protocol.reply list =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      List.iter
        (fun r ->
          match r with
          | Protocol.Finish -> ()
          | Protocol.Submit _ -> Protocol.write_request oc r)
        reqs;
      Protocol.write_request oc Protocol.Finish;
      let rec collect acc =
        match Protocol.read_reply ic with
        | None -> List.rev acc
        | Some r -> collect (r :: acc)
      in
      collect [])
