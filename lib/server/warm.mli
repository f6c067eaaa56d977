(** Per-shard warm-VM pool: one booted VM per workload, reset to a
    baseline snapshot between jobs instead of re-created. A reset VM is
    state-identical to a cold boot under the job's seed (compiled-method
    rollback re-pays compile clock charges, re-installing cached bodies
    rather than recompiling; hooks reinstalled live; PRNG
    streams reseeded), so traces and digests are byte-identical to fresh
    boots — tested registry-wide.

    NOT thread-safe: a pool belongs to exactly one shard domain. *)

type t

type stats = {
  w_hits : int;  (** acquires served by a baseline reset *)
  w_misses : int;  (** acquires that had to boot a VM *)
  w_evictions : int;
  w_resident : int;  (** VMs currently held *)
}

(** [cap] bounds resident VMs (LRU eviction, default 32 — the whole
    registry fits one shard's pool); [config] is the base VM config every
    boot uses (the per-acquire seed overrides its environment seed;
    default [Vm.Rt.default_config]); [note] observes every acquire
    (hit = reset, not boot), e.g. to fold into farm-wide {!Stats}. *)
val create :
  ?cap:int -> ?config:Vm.Rt.config -> ?note:(hit:bool -> unit) -> unit -> t

(** A VM for the entry under [seed], indistinguishable from
    [Vm.create ~config:(seed-adjusted pool config)]. The returned VM is
    owned by the pool: it may be left in any state (the next acquire
    resets it). *)
val acquire : t -> Workloads.Registry.entry -> seed:int -> Vm.t

val stats : t -> stats

val merge : stats -> stats -> stats

val zero : stats

val pp_stats : Format.formatter -> stats -> unit
