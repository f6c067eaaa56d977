(** The jobs a farm shard runs. Each job drives one VM in fuel-bounded
    slices, polling the dispatcher's [should_stop] between slices so
    cancellation and deadlines take effect mid-program, and leaves no
    partial trace file behind on any exit path.

    {!run} is the cold path (one fresh VM per job); {!runner} is the warm
    path — per-shard {!Warm} pools and the placement policy — whose results
    are byte-identical to the cold path's (tested registry-wide). *)

type spec =
  | Record of { workload : string; seed : int; out : string }
  | Replay of { workload : string; trace : string }
  | Roundtrip of { workload : string; seed : int }
  | Lint of { workload : string }
  | Explore of {
      workload : string;
      seed : int;
      prefix : int array;
          (** forced decision vector; [[||]] is the root schedule *)
      pb : int;  (** preemption bound *)
      db : int;  (** delay (non-FIFO pick) bound *)
      dpor : bool;
    }

type output = {
  o_status : string;  (** final VM status ("ok" for lint) *)
  o_digest : string;  (** hex: trace file / VM state / analysis summary *)
  o_words : int;  (** trace words written / leftovers / racy findings *)
  o_children : int array list;
      (** explore only: fresh alternative schedule prefixes — the first
          job kind that generates further jobs (the frontier fan-out) *)
  o_pruned : int;  (** explore only: branches DPOR suppressed *)
  o_flags : int;  (** explore only: {!explore_fault_bit} / aborted bit *)
}

val explore_fault_bit : int

val explore_aborted_bit : int

(** "record:NAME" etc., for labels and wire replies. *)
val describe : spec -> string

val workload_of : spec -> string

(** Force lazily-built shared structures (the workload registry) before
    spawning shard domains; forcing a [Lazy.t] from two domains at once is
    a race. Call once from batch/serve setup. *)
val preload : unit -> unit

(** Run one job cold (fresh VM). [slice] is the cancellation-poll
    granularity in instructions (default 50_000); [config] is the base VM
    config (per-job seeds override its environment seed; default
    [Vm.Rt.default_config]). Raises [Failure] on unknown workloads,
    [Trace.Format_error] on malformed trace files, and lets
    {!Dispatcher.Cancelled}/{!Dispatcher.Deadline_exceeded} propagate. *)
val run : ?slice:int -> ?config:Vm.Rt.config -> Dispatcher.ctx -> spec -> output

(** The warm execution package for one dispatcher: [run] to pass as the
    dispatcher's run function (routes each job through its shard's warm
    pool — [ctx.shard] must be < [shards]), [place] as its placement
    policy, and [warm_stats] to fold every shard pool's counters (call
    only after the shard domains are joined).

    [place] has two rules: Lint and Explore jobs go to
    {!Dispatcher.Shared}; Record, Replay and Roundtrip jobs go to
    [Shard (Hashtbl.hash workload mod shards)], the workload's warm
    affinity shard. *)
type runner = {
  run : Dispatcher.ctx -> spec -> output;
  place : spec -> Dispatcher.place;
  warm_stats : unit -> Warm.stats;
}

(** Build a warm runner for [shards] shard domains. [config] is the base
    VM config every pool boot uses (default [Vm.Rt.default_config]);
    [stats] receives warm hit/boot counts when supplied. *)
val runner :
  ?slice:int ->
  ?config:Vm.Rt.config ->
  ?stats:Stats.t ->
  shards:int ->
  unit ->
  runner
