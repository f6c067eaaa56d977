(* The shard pool. One VM per OCaml 5 domain: the interpreter is
   single-domain-safe by construction and shards share nothing but the work
   queues, the stats block, and the results buffer — each a small
   mutex-guarded structure touched once per job, never per instruction.

   Responsibilities:
   - place each submission (via the caller's [place] policy) on a shard's
     local queue — warm-VM affinity — or on the shared queue, which idle
     shards steal from;
   - pull entries off the queues and run them through the caller's [run]
     function, handing it a [ctx] whose [should_stop] raises on
     cancellation or an elapsed deadline (polled between VM slices);
   - run each entry at most once: a job is a pure function of its spec and
     its input files, so one that raised would raise again on every retry
     — its failure is final and reported once;
   - emit exactly one result per submission, delivered to the consumer in
     submission order through a reorder buffer (workers complete out of
     order; [next] blocks until the next sequence number lands). *)

exception Cancelled

exception Deadline_exceeded

type ctx = { shard : int; seq : int; should_stop : unit -> unit }

(* Placement decision for one submission. [Shared]: any idle shard takes
   it — the lane for jobs that gain nothing from a warm VM on one shard
   (lint) or that arrive in bursts one shard would serialize (explore).
   [Shard i]: pinned to one shard's local queue, the warm-VM affinity
   lane; it never migrates. *)
type place = Shared | Shard of int

type 'r outcome =
  | Done of 'r
  | Failed of string (* the job raised; jobs are deterministic, so final *)
  | Timed_out
  | Cancelled_

type ('a, 'r) result = {
  r_seq : int;
  r_payload : 'a;
  r_outcome : 'r outcome;
  r_attempts : int; (* 1 if the job ran, 0 if it ended while queued *)
  r_latency : float; (* submission -> completion, seconds *)
  r_shard : int;
}

type ('a, 'r) t = {
  queue : 'a Jobq.t;
  run : ctx -> 'a -> 'r;
  place : 'a -> place;
  shards : int;
  stats : Stats.t;
  m : Mutex.t;
  ready : Condition.t;
  buf : (int, ('a, 'r) result) Hashtbl.t; (* completed, not yet emitted *)
  mutable next_out : int;
  mutable domains : unit Domain.t list;
  mutable joined : bool;
}

let now () = Unix.gettimeofday ()

let execute t shard (e : 'a Jobq.entry) : ('a, 'r) result =
  let should_stop () =
    if Jobq.is_cancelled e then raise Cancelled;
    match e.deadline with
    | Some d when now () > d -> raise Deadline_exceeded
    | _ -> ()
  in
  let ctx = { shard; seq = e.seq; should_stop } in
  let finish attempts outcome =
    {
      r_seq = e.seq;
      r_payload = e.payload;
      r_outcome = outcome;
      r_attempts = attempts;
      r_latency = now () -. e.submitted_at;
      r_shard = shard;
    }
  in
  (* Deadline/cancellation check BEFORE touching any VM: an entry that
     expired or was cancelled while queued completes right here with zero
     attempts. *)
  match should_stop () with
  | exception Cancelled -> finish 0 Cancelled_
  | exception Deadline_exceeded -> finish 0 Timed_out
  | () -> (
    match t.run ctx e.payload with
    | r -> finish 1 (Done r)
    | exception Cancelled -> finish 1 Cancelled_
    | exception Deadline_exceeded -> finish 1 Timed_out
    | exception exn -> finish 1 (Failed (Printexc.to_string exn)))

let post t (r : ('a, 'r) result) =
  Stats.on_complete t.stats
    (match r.r_outcome with
    | Done _ -> Stats.Succeeded
    | Failed _ -> Stats.Failed_
    | Timed_out -> Stats.Timed_out_
    | Cancelled_ -> Stats.Cancelled_)
    ~latency:r.r_latency;
  Mutex.protect t.m (fun () ->
      Hashtbl.replace t.buf r.r_seq r;
      Condition.broadcast t.ready)

let worker t shard () =
  let rec loop () =
    match Jobq.pop_shard t.queue ~shard with
    | None -> ()
    | Some e ->
      post t (execute t shard e);
      loop ()
  in
  loop ()

let create ?(shards = 4) ?(place = fun _ -> Shared) ?stats ~run () =
  if shards < 1 then invalid_arg "Dispatcher.create: shards < 1";
  let t =
    {
      queue = Jobq.create ~shards ();
      run;
      place;
      shards;
      stats = (match stats with Some s -> s | None -> Stats.create ());
      m = Mutex.create ();
      ready = Condition.create ();
      buf = Hashtbl.create 64;
      next_out = 0;
      domains = [];
      joined = false;
    }
  in
  t.domains <- List.init shards (fun i -> Domain.spawn (worker t i));
  t

let shards t = t.shards

let stats t = t.stats

let queue_depth t = Jobq.depth t.queue

(* Count the submission before enqueueing: a fast worker can pop and
   complete the entry before this domain runs another instruction, and
   [on_complete] decrementing depth below zero would corrupt the
   depth/peak_depth gauges. The closed-queue error path undoes the count. *)
let submit t ?deadline payload =
  Stats.on_submit t.stats;
  let shard =
    match t.place payload with
    | Shared -> -1
    | Shard i -> ((i mod t.shards) + t.shards) mod t.shards
  in
  match Jobq.submit t.queue ?deadline ~shard payload with
  | e -> e
  | exception exn ->
    Stats.on_submit_rejected t.stats;
    raise exn

let cancel = Jobq.cancel

let close t =
  Jobq.close t.queue;
  (* wake consumers blocked in [next]: with the queue closed, the drained
     check can now succeed *)
  Mutex.protect t.m (fun () -> Condition.broadcast t.ready)

(* Next result in submission order; None once the queue is closed and every
   submitted entry's slot has been emitted. Waits on [ready], which [post]
   broadcasts, and which [close] must also wake — see the re-broadcast in
   [close] below.

   Only a closed queue guarantees no later submission can fill the slot, so
   an open, empty queue still blocks here. *)
let rec next t : ('a, 'r) result option =
  let r =
    Mutex.protect t.m (fun () ->
        match Hashtbl.find_opt t.buf t.next_out with
        | Some r ->
          Hashtbl.remove t.buf t.next_out;
          t.next_out <- t.next_out + 1;
          `Got r
        | None ->
          if Jobq.is_closed t.queue && t.next_out >= Jobq.submitted t.queue
          then `Drained
          else begin
            Condition.wait t.ready t.m;
            `Retry
          end)
  in
  match r with `Got r -> Some r | `Drained -> None | `Retry -> next t

let join t =
  if not t.joined then begin
    t.joined <- true;
    List.iter Domain.join t.domains;
    t.domains <- []
  end

(* Close, collect every remaining result in submission order, and join the
   shard domains. *)
let drain t : ('a, 'r) result list =
  close t;
  let rec collect acc =
    match next t with None -> List.rev acc | Some r -> collect (r :: acc)
  in
  let rs = collect [] in
  join t;
  rs
