(** The simulated external environment: a virtual wall clock advancing a
    jittered amount per executed instruction (with rare cache-miss/paging
    cost spikes), a periodic timer interrupt with a varying interval, and
    an external input source. All of the machine's non-determinism lives
    here — different seeds produce different interleavings and clock
    readings, which record/replay must reproduce. A replaying VM never
    ticks it ([Rt.t.env_ticks] off): the trace supplies every switch and
    reading. *)

type config = {
  seed : int;
  base_cost : int;  (** clock units per instruction, before jitter *)
  jitter : int;  (** extra units per instruction, uniform in [0, jitter] *)
  spike_per_mille : int;  (** chance/1000 of a cost spike *)
  spike_cost : int;  (** extra units when a spike hits *)
  quantum : int;  (** mean units between timer interrupts *)
  quantum_jitter : int;  (** timer interval varies by +- this *)
  time_scale : int;  (** units per "millisecond" (sleep / timed wait) *)
  compile_cost : int;  (** units charged per compiled instruction *)
}

val default_config : config

type t = {
  cfg : config;
  rng : Prng.t;
  input_rng : Prng.t;  (** independent stream: input stable under jitter *)
  mutable now : int;
  mutable next_timer : int;
  mutable inputs : int list;  (** user-scripted inputs, consumed first *)
  mutable input_count : int;
  mutable ticks : int;
  mutable timer_fires : int;
  batch_buf : Bytes.t;  (** scratch for the batched-tick/scan stubs *)
  mutable h_valid : bool;  (** the precomputed preemption horizon is live *)
  mutable h_pending : int;  (** ticks charged but not yet drawn/applied *)
  mutable h_count : int;  (** ticks from the live fields to the scan end *)
  mutable h_fired : bool;  (** the scan-end tick crosses the timer *)
  mutable h_now : int;
  mutable h_next : int;
  h_rng : Bytes.t;  (** PRNG state at scan end *)
}

val create : ?inputs:int list -> config -> t

(** Re-seed both streams in place as if the environment had been created
    with this seed (the input stream gets the same derived seed [create]
    uses). Counters ([now], [ticks], …) are untouched: callers reusing an
    environment restore those from a snapshot first. Drops any deferred
    ticks and the cached horizon. *)
val reseed : t -> int -> unit

(** Materialize the lazily deferred ticks: replay their PRNG draws (same
    draws, same order as eager ticking) so [now]/[next_timer]/[rng] catch
    up with the logical clock. Must run before anything reads those fields
    or draws from [rng] outside the tick machinery. Idempotent; keeps the
    horizon. *)
val sync : t -> unit

(** Drop deferred ticks and the cached horizon WITHOUT materializing —
    only correct when the live fields are being overwritten wholesale
    (snapshot restore, reseed). *)
val forget : t -> unit

(** Advance the clock for one executed instruction; [true] when the timer
    interrupt fired during it. O(1) between timer fires: ticks strictly
    inside the precomputed horizon defer their draws until {!sync}. *)
val tick : t -> bool

(** [tick_batch t n] advances the clock for [n] executed instructions,
    drawing (eventually — see {!sync}) exactly the PRNG stream [n]
    successive {!tick}s draw; returns how many of the [n] instructions
    crossed the timer. The fast dispatch loop uses this for regions — the
    clock, the stream, and the preemption-request count stay bit-identical
    to per-instruction execution. *)
val tick_batch : t -> int -> int

(** The eager reference implementation of {!tick}: materializes first,
    then steps the live state with per-draw calls. The property tests
    check the lazy paths against this. *)
val tick_eager : t -> bool

(** Charge non-instruction work (e.g. method compilation) to the clock.
    Materializes deferred ticks first and invalidates the horizon (the
    shifted [now] moves future timer crossings). *)
val charge : t -> int -> unit

val read_clock : t -> int

(** Advance the clock to at least [target] (idle waiting for a sleeper);
    returns the new time. *)
val idle_until : t -> int -> int

(** A bounded draw from the environment stream by something other than
    the clock (e.g. a native): deferred tick draws land first, and the
    horizon is invalidated (the stream shifted under it). *)
val random : t -> int -> int

(** Next external input: scripted values first, then a seeded stream. *)
val read_input : t -> int

val millis_to_units : t -> int -> int
