(* The farm's work queues: one shared queue any shard may pop, plus one
   local queue per shard that only its owner pops. The dispatcher's
   placement policy decides which queue a submission lands on (shard-local
   for warm-VM affinity, shared for lint and explore jobs); an
   idle shard whose local queue is empty steals from the shared queue, so
   no shard sits idle while shared work waits — and local entries never
   migrate, so per-shard warm state stays per-shard.

   Entries carry the scheduling metadata (absolute deadline, retry budget,
   backoff base, cancellation flag, earliest-start time); policy — skipping
   expired entries, honouring cancellation mid-run, backing a retry off —
   lives in the dispatcher. A retry is re-enqueued with a [not_before]
   timestamp rather than slept out on the worker domain: the shard takes
   other work and the entry becomes poppable again when its backoff
   elapses. Cancelled entries are still popped and handed back so a result
   slot is emitted for every submission (the in-order results channel
   depends on it); so are entries whose deadline has already passed —
   popping them promptly (the due-check below treats them as due) lets the
   dispatcher report the timeout without waiting out a pointless backoff.

   All queues share one mutex and one condition: traffic is per job, never
   per instruction, and a single lock keeps the blocking pop's "is there
   anything I could ever take?" check atomic. *)

type 'a entry = {
  seq : int; (* submission order; also the results-channel position *)
  payload : 'a;
  deadline : float option; (* absolute Unix time *)
  max_retries : int; (* extra attempts after the first failure *)
  backoff : float; (* base seconds, doubled per failed attempt *)
  submitted_at : float;
  home : int; (* owning shard's local queue, or -1 = shared *)
  mutable attempts : int;
  mutable not_before : float; (* absolute; 0. = poppable immediately *)
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

let submit t ?deadline ?(max_retries = 0) ?(backoff = 0.05) ?(shard = -1)
    payload =
  if shard >= Array.length t.locals then
    invalid_arg "Jobq.submit: shard out of range";
  Mutex.protect t.m (fun () ->
      if t.closed then invalid_arg "Jobq.submit: closed queue";
      let e =
        {
          seq = t.next_seq;
          payload;
          deadline;
          max_retries;
          backoff;
          submitted_at = Unix.gettimeofday ();
          home = (if shard < 0 then -1 else shard);
          attempts = 0;
          not_before = 0.;
          cancelled = Atomic.make false;
        }
      in
      t.next_seq <- t.next_seq + 1;
      Queue.push e (if shard < 0 then t.shared else t.locals.(shard));
      t.pending <- t.pending + 1;
      Condition.broadcast t.nonempty;
      e)

(* Put a popped entry back on its home queue, poppable again at
   [not_before] — the dispatcher's non-blocking retry backoff. *)
let requeue t (e : 'a entry) ~not_before =
  Mutex.protect t.m (fun () ->
      e.not_before <- not_before;
      Queue.push e (if e.home < 0 then t.shared else t.locals.(e.home));
      t.pending <- t.pending + 1;
      Condition.broadcast t.nonempty)

(* Cooperative: a queued entry is reported Cancelled when popped; a running
   one is stopped at its next should_stop poll. *)
let cancel (e : 'a entry) = Atomic.set e.cancelled true

let is_cancelled (e : 'a entry) = Atomic.get e.cancelled

(* An entry is due when its backoff has elapsed — or when waiting any
   longer is pointless: an expired deadline or a cancellation means the
   dispatcher will emit the terminal result without running anything. *)
let due now (e : 'a entry) =
  e.not_before <= now
  || Atomic.get e.cancelled
  || (match e.deadline with Some d -> now > d | None -> false)

(* First due entry, scanning at most one full rotation; not-due entries
   cycle to the back (relative order among due entries in the unscanned
   remainder is preserved, and backoff already reorders retries). *)
let take_due q now =
  let n = Queue.length q in
  let rec go i =
    if i >= n then None
    else
      let e = Queue.pop q in
      if due now e then Some e
      else begin
        Queue.push e q;
        go (i + 1)
      end
  in
  go 0

let earliest_not_before q acc =
  Queue.fold (fun acc e -> min acc e.not_before) acc q

(* Block until an entry this shard may run is available: its own local
   queue first (warm-affinity work), then the shared queue (stealing).
   [None] once the queue is closed and nothing poppable by this shard can
   ever appear. When the only candidate entries are backing off, naps in
   short slices (there is no timed Condition.wait) until the earliest
   becomes due. *)
let pop_shard t ~shard =
  if shard < 0 || shard >= Array.length t.locals then
    invalid_arg "Jobq.pop_shard: shard out of range";
  let local = t.locals.(shard) in
  Mutex.lock t.m;
  let rec loop () =
    let now = Unix.gettimeofday () in
    match
      match take_due local now with
      | Some e -> Some e
      | None -> take_due t.shared now
    with
    | Some e ->
      t.pending <- t.pending - 1;
      Mutex.unlock t.m;
      Some e
    | None ->
      if Queue.is_empty local && Queue.is_empty t.shared then
        if t.closed then begin
          (* nothing poppable by this shard can appear: submissions are
             over, and a future requeue onto these queues can only come
             from a worker that will re-check after requeueing *)
          Mutex.unlock t.m;
          None
        end
        else begin
          Condition.wait t.nonempty t.m;
          loop ()
        end
      else begin
        (* candidates exist but every one is backing off: nap outside the
           lock until the earliest is due (capped so a cancellation or a
           new submission is noticed promptly) *)
        let earliest =
          earliest_not_before local (earliest_not_before t.shared infinity)
        in
        Mutex.unlock t.m;
        Unix.sleepf (Float.max 0.0005 (Float.min (earliest -. now) 0.005));
        Mutex.lock t.m;
        loop ()
      end
  in
  loop ()

(* Single-queue compatibility pop: shard 0's view. *)
let pop t = pop_shard t ~shard:0

let close t =
  Mutex.protect t.m (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let depth t = Mutex.protect t.m (fun () -> t.pending)

let is_closed t = Mutex.protect t.m (fun () -> t.closed)

(* Total entries ever submitted — the results channel drains exactly this
   many slots. *)
let submitted t = Mutex.protect t.m (fun () -> t.next_seq)
