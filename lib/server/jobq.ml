(* The farm's work queues: one shared queue any shard may pop, plus one
   local queue per shard that only its owner pops. The dispatcher's
   placement policy decides which queue a submission lands on (shard-local
   for warm-VM affinity, shared for lint jobs and explore schedules); an
   idle shard whose local queue is empty steals from the shared queue, so
   no shard sits idle while shared work waits — and local entries never
   migrate, so per-shard warm state stays per-shard.

   Entries carry the scheduling metadata (absolute deadline, cancellation
   flag); policy — skipping expired entries, honouring cancellation
   mid-run — lives in the dispatcher. Every entry is popped exactly once,
   in FIFO order per queue: a job is a pure function of its spec and its
   input files, so a failure is final and nothing is ever put back.
   Cancelled and expired entries are still popped and handed back so a
   result slot is emitted for every submission (the in-order results
   channel depends on it).

   All queues share one mutex and one condition: traffic is per job, never
   per instruction, and a single lock keeps the blocking pop's "is there
   anything I could ever take?" check atomic. *)

type 'a entry = {
  seq : int; (* submission order; also the results-channel position *)
  payload : 'a;
  deadline : float option; (* absolute Unix time *)
  submitted_at : float;
  cancelled : bool Atomic.t;
      (* written by the submitter's domain, polled by the worker running the
         entry — atomic so the flag is visible across domains without any
         other synchronizing operation between VM slices *)
}

type 'a t = {
  m : Mutex.t;
  nonempty : Condition.t;
  shared : 'a entry Queue.t;
  locals : 'a entry Queue.t array;
  mutable next_seq : int;
  mutable pending : int; (* entries sitting in any queue right now *)
  mutable closed : bool;
}

let create ?(shards = 1) () =
  if shards < 1 then invalid_arg "Jobq.create: shards < 1";
  {
    m = Mutex.create ();
    nonempty = Condition.create ();
    shared = Queue.create ();
    locals = Array.init shards (fun _ -> Queue.create ());
    next_seq = 0;
    pending = 0;
    closed = false;
  }

let shards t = Array.length t.locals

let submit t ?deadline ?(shard = -1) payload =
  if shard >= Array.length t.locals then
    invalid_arg "Jobq.submit: shard out of range";
  Mutex.protect t.m (fun () ->
      if t.closed then invalid_arg "Jobq.submit: closed queue";
      let e =
        {
          seq = t.next_seq;
          payload;
          deadline;
          submitted_at = Unix.gettimeofday ();
          cancelled = Atomic.make false;
        }
      in
      t.next_seq <- t.next_seq + 1;
      Queue.push e (if shard < 0 then t.shared else t.locals.(shard));
      t.pending <- t.pending + 1;
      Condition.broadcast t.nonempty;
      e)

(* Cooperative: a queued entry is reported Cancelled when popped; a running
   one is stopped at its next should_stop poll. *)
let cancel (e : 'a entry) = Atomic.set e.cancelled true

let is_cancelled (e : 'a entry) = Atomic.get e.cancelled

(* Block until an entry this shard may run is available: its own local
   queue first (warm-affinity work), then the shared queue (stealing).
   [None] once the queue is closed and both are empty: nothing poppable by
   this shard can ever appear. *)
let pop_shard t ~shard =
  if shard < 0 || shard >= Array.length t.locals then
    invalid_arg "Jobq.pop_shard: shard out of range";
  let local = t.locals.(shard) in
  Mutex.lock t.m;
  let rec loop () =
    match
      match Queue.take_opt local with
      | Some e -> Some e
      | None -> Queue.take_opt t.shared
    with
    | Some e ->
      t.pending <- t.pending - 1;
      Mutex.unlock t.m;
      Some e
    | None when t.closed ->
      Mutex.unlock t.m;
      None
    | None ->
      Condition.wait t.nonempty t.m;
      loop ()
  in
  loop ()

let close t =
  Mutex.protect t.m (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let depth t = Mutex.protect t.m (fun () -> t.pending)

let is_closed t = Mutex.protect t.m (fun () -> t.closed)

(* Total entries ever submitted — the results channel drains exactly this
   many slots. *)
let submitted t = Mutex.protect t.m (fun () -> t.next_seq)
