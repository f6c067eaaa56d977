(** Batch mode: run a set of jobs across N shards, report per-job rows in
    submission order plus an order-stable aggregate digest (shard-count
    invariant: the N-shard aggregate equals the 1-shard one; warm-vs-cold
    invariant: the warm aggregate equals the cold one). *)

type row = {
  b_name : string;
  b_op : string;
  b_outcome : string;  (** done / failed: msg / timeout / cancelled *)
  b_status : string;
  b_digest : string;
  b_attempts : int;
  b_latency : float;  (** seconds, submission to completion *)
  b_shard : int;
}

type report = {
  rows : row list;  (** submission order *)
  aggregate : string;
      (** hex digest folding each job's name/outcome/status/digest, in
          submission order *)
  ok : bool;
  wall_s : float;
  jobs_per_s : float;
  shards : int;
  stats : Stats.view;
  warm : Warm.stats;  (** all shard pools folded; zero on a cold run *)
}

(** [warm] (default true) runs jobs on shard pools of baseline-reset VMs
    with warm-affinity placement; [~warm:false] cold-boots a VM per job (the
    reference the warm path must match byte-for-byte). [config] is the
    base VM config for every job's VM (per-job seeds override its
    environment seed; default [Vm.Rt.default_config]). *)
val run_specs :
  ?shards:int ->
  ?config:Vm.Rt.config ->
  ?deadline_s:float ->
  ?slice:int ->
  ?warm:bool ->
  Job.spec list ->
  report

(** Record every registry workload into [out_dir]/NAME.trace, [rounds]
    times over (default 1; later rounds write NAME-rK.trace and exercise
    warm reuse). Creates [out_dir] if missing; raises [Sys_error] naming
    it, before any job runs, when it exists and is not a directory. *)
val run_registry :
  ?shards:int ->
  ?config:Vm.Rt.config ->
  ?seed:int ->
  ?deadline_s:float ->
  ?slice:int ->
  ?warm:bool ->
  ?rounds:int ->
  out_dir:string ->
  unit ->
  report

val pp_row : Format.formatter -> row -> unit

val pp_report : Format.formatter -> report -> unit
