(* Observability for the replay farm: monotonic counters, a queue-depth
   gauge, and a log2-bucketed latency histogram cheap enough to update on
   every job completion. All updates go through one mutex — they are rare
   (per job, not per instruction) and callers sit on several domains. *)

let n_buckets = 40 (* bucket i covers [2^i, 2^(i+1)) microseconds *)

type t = {
  m : Mutex.t;
  mutable submitted : int;
  mutable succeeded : int;
  mutable failed : int;
  mutable cancelled : int;
  mutable timed_out : int;
  mutable depth : int; (* jobs submitted but not yet completed *)
  mutable peak_depth : int;
  mutable warm_hits : int; (* jobs served by a warm-VM reset *)
  mutable warm_misses : int; (* jobs that booted a VM *)
  buckets : int array;
  mutable lat_n : int;
  mutable lat_sum : float; (* seconds *)
  mutable lat_max : float;
}

(* A read-only copy for reporting, so printers never hold the mutex. *)
type view = {
  v_submitted : int;
  v_succeeded : int;
  v_failed : int;
  v_cancelled : int;
  v_timed_out : int;
  v_depth : int;
  v_peak_depth : int;
  v_warm_hits : int;
  v_warm_misses : int;
  v_mean : float;
  v_max : float;
  v_p50 : float;
  v_p99 : float;
}

let create () =
  {
    m = Mutex.create ();
    submitted = 0;
    succeeded = 0;
    failed = 0;
    cancelled = 0;
    timed_out = 0;
    depth = 0;
    peak_depth = 0;
    warm_hits = 0;
    warm_misses = 0;
    buckets = Array.make n_buckets 0;
    lat_n = 0;
    lat_sum = 0.;
    lat_max = 0.;
  }

let bucket_of_latency secs =
  let us = int_of_float (secs *. 1e6) in
  if us <= 1 then 0
  else
    (* index of the highest set bit, clamped to the table *)
    let rec msb v i = if v <= 1 then i else msb (v lsr 1) (i + 1) in
    min (n_buckets - 1) (msb us 0)

(* Upper edge of a bucket, as seconds: quantiles report a bound, not an
   interpolation — honest for a histogram this coarse. *)
let bucket_upper i = float_of_int (1 lsl (i + 1)) /. 1e6

let locked t f = Mutex.protect t.m f

let on_submit t =
  locked t (fun () ->
      t.submitted <- t.submitted + 1;
      t.depth <- t.depth + 1;
      if t.depth > t.peak_depth then t.peak_depth <- t.depth)

(* Undo an [on_submit] whose enqueue was refused (closed queue): the entry
   never existed, so neither count should reflect it. peak_depth may keep a
   transient +1 — it is a high-water mark, not an exact gauge. *)
let on_submit_rejected t =
  locked t (fun () ->
      t.submitted <- t.submitted - 1;
      t.depth <- t.depth - 1)

(* A job acquired its VM: [hit] = reset from a warm baseline, not booted. *)
let on_warm t ~hit =
  locked t (fun () ->
      if hit then t.warm_hits <- t.warm_hits + 1
      else t.warm_misses <- t.warm_misses + 1)

type terminal = Succeeded | Failed_ | Cancelled_ | Timed_out_

let on_complete t terminal ~latency =
  locked t (fun () ->
      t.depth <- t.depth - 1;
      (match terminal with
      | Succeeded -> t.succeeded <- t.succeeded + 1
      | Failed_ -> t.failed <- t.failed + 1
      | Cancelled_ -> t.cancelled <- t.cancelled + 1
      | Timed_out_ -> t.timed_out <- t.timed_out + 1);
      let i = bucket_of_latency latency in
      t.buckets.(i) <- t.buckets.(i) + 1;
      t.lat_n <- t.lat_n + 1;
      t.lat_sum <- t.lat_sum +. latency;
      if latency > t.lat_max then t.lat_max <- latency)

(* Quantile over the histogram (call under the mutex), clamped to the
   largest latency seen: a bucket's upper edge can lie far above every
   sample in it, and a bound above the max would put p99 over max. *)
let quantile_locked t p =
  if t.lat_n = 0 then 0.
  else begin
    let target =
      max 1 (int_of_float (ceil (p *. float_of_int t.lat_n)))
    in
    let acc = ref 0 and found = ref (bucket_upper (n_buckets - 1)) in
    (try
       for i = 0 to n_buckets - 1 do
         acc := !acc + t.buckets.(i);
         if !acc >= target then begin
           found := bucket_upper i;
           raise Exit
         end
       done
     with Exit -> ());
    Float.min !found t.lat_max
  end

let view t : view =
  locked t (fun () ->
      {
        v_submitted = t.submitted;
        v_succeeded = t.succeeded;
        v_failed = t.failed;
        v_cancelled = t.cancelled;
        v_timed_out = t.timed_out;
        v_depth = t.depth;
        v_peak_depth = t.peak_depth;
        v_warm_hits = t.warm_hits;
        v_warm_misses = t.warm_misses;
        v_mean = (if t.lat_n = 0 then 0. else t.lat_sum /. float_of_int t.lat_n);
        v_max = t.lat_max;
        v_p50 = quantile_locked t 0.50;
        v_p99 = quantile_locked t 0.99;
      })

let pp_view ppf v =
  Fmt.pf ppf
    "jobs: %d submitted, %d ok, %d failed, %d timed out, %d cancelled@\n\
     queue depth: %d now, %d peak; warm VMs: %d resets, %d boots@\n\
     latency: mean %.1f ms, p50 <= %.1f ms, p99 <= %.1f ms, max %.1f ms"
    v.v_submitted v.v_succeeded v.v_failed v.v_timed_out v.v_cancelled
    v.v_depth v.v_peak_depth v.v_warm_hits v.v_warm_misses
    (v.v_mean *. 1e3) (v.v_p50 *. 1e3) (v.v_p99 *. 1e3) (v.v_max *. 1e3)
