(* The warm-VM pool behind a shard: one booted VM per workload, reset
   between jobs instead of re-created. Cold boot is the farm's per-job tax
   — Link.build walks the whole program, and Vm.create allocates the VM's
   tables and a fresh heap array (min(heap_words, 16384) words, grown on
   demand) — and none of it depends on the job, only on the (program,
   config) pair. So the first job for a workload on a shard boots a VM,
   captures a baseline Vm.Snapshot immediately (before anything runs or
   draws), and every later job restores that baseline and reseeds the
   environment in place: a blit of the 4-word creation heap prefix plus a
   few field writes, in place of link + allocate.

   The parity contract (tested, not assumed): a reset VM is
   state-identical to a cold boot under the job's seed. Snapshot.restore
   un-installs methods compiled since the save, so warm jobs re-pay the
   compile-time clock charges a cold boot pays; the bodies come back from
   each method's code cache, so a warm job does not compile them again
   (compiling would yield the same body: it depends only on the
   method and the VM's linked image). Hooks are reinstalled live
   (sessions mutate them, snapshots don't cover them); Env.reseed re-points
   both PRNG streams. Traces and digests are therefore byte-identical —
   the whole point, since a replay service that perturbed results by
   recycling VMs would be useless.

   A pool belongs to exactly one shard domain — acquire is called only by
   its owner, so there is no lock. The [stats] snapshot is read by the
   submitting domain after the shard domains are joined, which is the
   synchronization point. Capacity is bounded (default 32 resident VMs,
   enough for the whole 23-workload registry on one shard). A resident VM
   keeps the heap its workload grew: 128 KiB at boot, at most two
   heap_words semispaces (8 MiB each by default) after a collection.
   Eviction is least-recently-used, whole-VM. *)

type slot = {
  vm : Vm.t;
  baseline : Vm.Snapshot.t;
  mutable last_used : int; (* pool tick of the latest acquire *)
}

type stats = {
  w_hits : int; (* acquires served by a reset *)
  w_misses : int; (* acquires that had to boot *)
  w_evictions : int;
  w_resident : int; (* VMs currently held *)
}

type t = {
  cap : int;
  config : Vm.Rt.config; (* base config (seed overridden per acquire) *)
  table : (string, slot) Hashtbl.t; (* workload name -> warm slot *)
  note : hit:bool -> unit; (* per-acquire observer (farm-wide stats) *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(cap = 32) ?(config = Vm.Rt.default_config)
    ?(note = fun ~hit:_ -> ()) () =
  if cap < 1 then invalid_arg "Warm.create: cap < 1";
  {
    cap;
    config;
    table = Hashtbl.create 16;
    note;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun name slot acc ->
        match acc with
        | Some (_, best) when best.last_used <= slot.last_used -> acc
        | _ -> Some (name, slot))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (name, _) ->
    Hashtbl.remove t.table name;
    t.evictions <- t.evictions + 1

(* A VM for [e] under [seed], state-identical to a cold boot: reset from
   the baseline when the workload is resident, booted (and remembered)
   otherwise. The caller runs whatever it likes on the VM — including
   leaving it mid-program on cancellation or failure — because the next
   acquire restores the baseline regardless. *)
let acquire t (e : Workloads.Registry.entry) ~seed : Vm.t =
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.table e.name with
  | Some slot ->
    t.hits <- t.hits + 1;
    t.note ~hit:true;
    slot.last_used <- t.tick;
    Vm.reset ~seed slot.vm slot.baseline;
    slot.vm
  | None ->
    t.misses <- t.misses + 1;
    t.note ~hit:false;
    if Hashtbl.length t.table >= t.cap then evict_lru t;
    let config = Dejavu.with_seed seed t.config in
    let vm = Vm.create ~config ~natives:e.natives e.program in
    (* snapshot before anything runs or draws: this baseline, restored and
       reseeded, must equal a fresh create under any seed *)
    let baseline = Vm.Snapshot.save vm in
    Hashtbl.replace t.table e.name { vm; baseline; last_used = t.tick };
    vm

let stats t : stats =
  {
    w_hits = t.hits;
    w_misses = t.misses;
    w_evictions = t.evictions;
    w_resident = Hashtbl.length t.table;
  }

let merge (a : stats) (b : stats) : stats =
  {
    w_hits = a.w_hits + b.w_hits;
    w_misses = a.w_misses + b.w_misses;
    w_evictions = a.w_evictions + b.w_evictions;
    w_resident = a.w_resident + b.w_resident;
  }

let zero : stats = { w_hits = 0; w_misses = 0; w_evictions = 0; w_resident = 0 }

let pp_stats ppf (s : stats) =
  Fmt.pf ppf "warm: %d hits / %d boots, %d evicted, %d resident" s.w_hits
    s.w_misses s.w_evictions s.w_resident
