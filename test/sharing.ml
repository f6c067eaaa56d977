(* Dynamic sharing tracker, the tests' cross-check of the static race
   audit.

   A vector-clock happens-before race detector (FastTrack-lite) over the
   heap hooks. Locations are concrete heap words (or globals slots), each
   mapped back to the *static analysis's* field key — "C.f" by declaring
   class, "C.f (static)", or "[]" for any array element — so a dynamic
   race witness is directly comparable with `dvrun lint` output: the
   dynamic-vs-static property test asserts every key reported racy here is
   also reported racy statically.

   Happens-before is built from program order plus the synchronization
   edges the scheduler announces (h_lock release/acquire pairs, h_spawn,
   and h_hb join/interrupt edges) — NOT from the observed uniprocessor
   interleaving, which would order everything and hide every race.

   The per-word keying assumes addresses are stable, so the tracker
   invalidates itself if the collector runs ([valid] turns false); callers
   size the heap so test workloads stay GC-free.

   The [skip] predicate is the static analysis's consumer hook: field keys
   proven thread-local may skip all bookkeeping. Skip tables are
   precomputed per class (one bool per flattened slot) at attach so the
   per-access fast path is two array loads. *)

module Rt = Vm.Rt
module Layout = Vm.Layout

(* Per-word detector state under one happens-before family. *)
type hbloc = {
  mutable l_w_tid : int; (* last writer, -1 when never written *)
  mutable l_w_clk : int;
  mutable l_reads : (int * int) list; (* (tid, clk), newest per tid *)
}

type loc = {
  l_key : string;
  l_full : hbloc; (* full HB: program order + lock + spawn/join edges *)
  l_weak : hbloc; (* spawn/join-only HB: the conflict-pair order *)
}

(* One vector-clock family. The tracker runs two: the *full* family sees
   every synchronization edge and detects races (FastTrack); the *weak*
   family sees only spawn/join/interrupt edges — cross-thread same-word
   pairs with a write left unordered by it are *conflicts*, the dynamic
   analogue of the static MHP conflict-pair set (which likewise refuses
   to let locks refute overlap). Static ordering facts are built from
   spawn/join/once structure only, so every dynamic conflict's key must
   sit in the static conflict set — the containment the tests pin. *)
type fam = { mutable f_vcs : int array array }
(* tid -> vector clock, [||] = unborn *)

type t = {
  sh_vm : Rt.t;
  sh_full : fam;
  sh_weak : fam;
  sh_locks : (int, int array) Hashtbl.t; (* monitor id -> release clock *)
  sh_locs : (int, loc) Hashtbl.t; (* heap word (or -1-gidx) -> state *)
  sh_racy : (string, string) Hashtbl.t; (* key -> witness description *)
  sh_conflicts : (string, string) Hashtbl.t; (* key -> witness *)
  sh_touched : (string, int list) Hashtbl.t; (* key -> touching tids *)
  sh_static_keys : string array; (* globals index -> key *)
  sh_static_skip : bool array;
  sh_field_keys : string array array; (* cid -> slot keys, lazy *)
  sh_field_skip : bool array array;
  sh_array_skip : bool;
  mutable sh_n_tracked : int;
  mutable sh_n_skipped : int;
  sh_gc0 : int;
  mutable sh_valid : bool;
  (* previous hooks, chained and restored on detach *)
  sh_prev_read : (Rt.t -> int -> int -> unit) option;
  sh_prev_write : (Rt.t -> int -> int -> unit) option;
  sh_prev_lock : (Rt.t -> bool -> int -> int -> unit) option;
  sh_prev_hb : (Rt.t -> int -> int -> unit) option;
  sh_prev_spawn : (Rt.t -> int -> unit) option;
}

(* vector clocks: plain int arrays indexed by tid, grown on demand;
   entry 0 means "before that thread did anything" *)

let vc_get c tid = if tid < Array.length c then c.(tid) else 0

let vc_grown c n =
  if Array.length c >= n then c
  else begin
    let d = Array.make n 0 in
    Array.blit c 0 d 0 (Array.length c);
    d
  end

let thread_vc fam tid =
  if tid >= Array.length fam.f_vcs then begin
    let bigger =
      Array.make (max (tid + 1) (2 * Array.length fam.f_vcs)) [||]
    in
    Array.blit fam.f_vcs 0 bigger 0 (Array.length fam.f_vcs);
    fam.f_vcs <- bigger
  end;
  if fam.f_vcs.(tid) = [||] then begin
    let c = Array.make (tid + 1) 0 in
    c.(tid) <- 1;
    fam.f_vcs.(tid) <- c
  end;
  fam.f_vcs.(tid)

(* dst := dst ⊔ src, returning the (possibly regrown) dst *)
let vc_join dst src =
  let dst = vc_grown dst (Array.length src) in
  Array.iteri (fun i v -> if v > dst.(i) then dst.(i) <- v) src;
  dst

let tick fam tid =
  let c = thread_vc fam tid in
  c.(tid) <- c.(tid) + 1

(* lock edges feed the full family only *)
let on_acquire t mid tid =
  match Hashtbl.find_opt t.sh_locks mid with
  | None -> ()
  | Some l -> t.sh_full.f_vcs.(tid) <- vc_join (thread_vc t.sh_full tid) l

let on_release t mid tid =
  Hashtbl.replace t.sh_locks mid (Array.copy (thread_vc t.sh_full tid));
  tick t.sh_full tid

let fam_hb fam from_tid to_tid =
  let src = thread_vc fam from_tid in
  fam.f_vcs.(to_tid) <- vc_join (thread_vc fam to_tid) src;
  tick fam from_tid

(* spawn/join/interrupt edges feed both families *)
let on_hb t from_tid to_tid =
  if from_tid <> to_tid then begin
    fam_hb t.sh_full from_tid to_tid;
    fam_hb t.sh_weak from_tid to_tid
  end

(* --- location keys, per-class caches ------------------------------ *)

(* the static analysis's key conventions *)
let static_suffix = Analysis.Lockset.static_suffix

let array_key = Analysis.Prog.array_key

(* declaring class of flattened instance-field slot [i]: walk up while
   the super's layout still covers the slot (supers flatten first) *)
let rec declarer (classes : Rt.rclass array) cid i =
  let c = classes.(cid) in
  if c.Rt.rc_super >= 0
     && i < Array.length classes.(c.Rt.rc_super).Rt.rc_fields
  then declarer classes c.Rt.rc_super i
  else c

let class_tables t cid =
  if t.sh_field_keys.(cid) = [||] then begin
    let c = t.sh_vm.Rt.classes.(cid) in
    let n = Array.length c.Rt.rc_fields in
    if n = 0 then begin
      (* distinguish "no fields" from "not yet computed" *)
      t.sh_field_keys.(cid) <- [| "" |];
      t.sh_field_skip.(cid) <- [| false |]
    end
    else begin
      t.sh_field_keys.(cid) <-
        Array.init n (fun i ->
            (declarer t.sh_vm.Rt.classes cid i).Rt.rc_name
            ^ "." ^ fst c.Rt.rc_fields.(i));
      t.sh_field_skip.(cid) <- Array.make n false
    end
  end;
  (t.sh_field_keys.(cid), t.sh_field_skip.(cid))

(* --- the access path ---------------------------------------------- *)

let note_touch t key tid =
  let cur =
    match Hashtbl.find_opt t.sh_touched key with Some l -> l | None -> []
  in
  if not (List.mem tid cur) then Hashtbl.replace t.sh_touched key (tid :: cur)

let race t key ~writer_side tid other =
  if not (Hashtbl.mem t.sh_racy key) then
    Hashtbl.replace t.sh_racy key
      (Fmt.str "t%d %s races with t%d" tid
         (if writer_side then "write" else "read")
         other)

let conflict t key tid other =
  if not (Hashtbl.mem t.sh_conflicts key) then
    Hashtbl.replace t.sh_conflicts key
      (Fmt.str "t%d and t%d unordered by spawn/join" tid other)

(* The FastTrack-lite step for one access under one family. *)
let hb_access fam (h : hbloc) write tid ~on_unordered =
  let c = thread_vc fam tid in
  (* write-before-me check applies to reads and writes alike *)
  if h.l_w_tid >= 0 && h.l_w_tid <> tid && h.l_w_clk > vc_get c h.l_w_tid
  then on_unordered h.l_w_tid;
  if write then begin
    List.iter
      (fun (r_tid, r_clk) ->
        if r_tid <> tid && r_clk > vc_get c r_tid then on_unordered r_tid)
      h.l_reads;
    h.l_w_tid <- tid;
    h.l_w_clk <- vc_get c tid;
    h.l_reads <- []
  end
  else
    h.l_reads <-
      (tid, vc_get c tid) :: List.filter (fun (r, _) -> r <> tid) h.l_reads

let access t write addr slot =
  if t.sh_valid && t.sh_vm.Rt.stats.Rt.n_gc <> t.sh_gc0 then
    t.sh_valid <- false;
  if t.sh_valid then begin
    let skip, key =
      if addr < 0 then (t.sh_static_skip.(slot), t.sh_static_keys.(slot))
      else begin
        let cid = Layout.class_of t.sh_vm addr in
        if t.sh_vm.Rt.classes.(cid).Rt.rc_elem <> Rt.Not_array then
          (t.sh_array_skip, array_key)
        else
          let keys, skips = class_tables t cid in
          let i = slot - Layout.header_words in
          (skips.(i), keys.(i))
      end
    in
    if skip then t.sh_n_skipped <- t.sh_n_skipped + 1
    else begin
      t.sh_n_tracked <- t.sh_n_tracked + 1;
      let tid = t.sh_vm.Rt.current in
      let word = if addr < 0 then -1 - slot else addr + slot in
      let loc =
        match Hashtbl.find_opt t.sh_locs word with
        | Some l -> l
        | None ->
          let fresh () = { l_w_tid = -1; l_w_clk = 0; l_reads = [] } in
          let l = { l_key = key; l_full = fresh (); l_weak = fresh () } in
          Hashtbl.replace t.sh_locs word l;
          l
      in
      note_touch t key tid;
      hb_access t.sh_full loc.l_full write tid ~on_unordered:(fun other ->
          race t loc.l_key ~writer_side:write tid other);
      hb_access t.sh_weak loc.l_weak write tid ~on_unordered:(fun other ->
          conflict t loc.l_key tid other)
    end
  end

(* --- wiring -------------------------------------------------------- *)

let attach ?(skip = fun _ -> false) (vm : Rt.t) : t =
  let n_classes = Array.length vm.Rt.classes in
  let static_keys = Array.make (max 1 vm.Rt.nglobals) "" in
  Array.iter
    (fun (c : Rt.rclass) ->
      Array.iteri
        (fun i (fname, _) ->
          static_keys.(c.Rt.rc_statics_base + i) <-
            c.Rt.rc_name ^ "." ^ fname ^ static_suffix)
        c.Rt.rc_statics)
    vm.Rt.classes;
  let t =
    {
      sh_vm = vm;
      sh_full = { f_vcs = Array.make 8 [||] };
      sh_weak = { f_vcs = Array.make 8 [||] };
      sh_locks = Hashtbl.create 16;
      sh_locs = Hashtbl.create 4096;
      sh_racy = Hashtbl.create 8;
      sh_conflicts = Hashtbl.create 8;
      sh_touched = Hashtbl.create 64;
      sh_static_keys = static_keys;
      sh_static_skip = Array.map skip static_keys;
      sh_field_keys = Array.make n_classes [||];
      sh_field_skip = Array.make n_classes [||];
      sh_array_skip = skip array_key;
      sh_n_tracked = 0;
      sh_n_skipped = 0;
      sh_gc0 = vm.Rt.stats.Rt.n_gc;
      sh_valid = true;
      sh_prev_read = vm.Rt.hooks.Rt.h_heap_read;
      sh_prev_write = vm.Rt.hooks.Rt.h_heap_write;
      sh_prev_lock = vm.Rt.hooks.Rt.h_lock;
      sh_prev_hb = vm.Rt.hooks.Rt.h_hb;
      sh_prev_spawn = vm.Rt.hooks.Rt.h_spawn;
    }
  in
  (* precompute skip tables for every registered class now, so the skip
     predicate never runs on the access path *)
  for cid = 0 to n_classes - 1 do
    let keys, skips = class_tables t cid in
    Array.iteri (fun i k -> skips.(i) <- k <> "" && skip k) keys
  done;
  let chain1 prev f =
    Some (fun vm a -> (match prev with Some g -> g vm a | None -> ()); f a)
  and chain2 prev f =
    Some
      (fun vm a b ->
        (match prev with Some g -> g vm a b | None -> ());
        f a b)
  in
  vm.Rt.hooks.Rt.h_heap_read <-
    chain2 t.sh_prev_read (fun addr slot -> access t false addr slot);
  vm.Rt.hooks.Rt.h_heap_write <-
    chain2 t.sh_prev_write (fun addr slot -> access t true addr slot);
  vm.Rt.hooks.Rt.h_lock <-
    Some
      (fun vm acq mid tid ->
        (match t.sh_prev_lock with Some g -> g vm acq mid tid | None -> ());
        if acq then on_acquire t mid tid else on_release t mid tid);
  vm.Rt.hooks.Rt.h_hb <-
    chain2 t.sh_prev_hb (fun from_tid to_tid -> on_hb t from_tid to_tid);
  vm.Rt.hooks.Rt.h_spawn <-
    chain1 t.sh_prev_spawn (fun new_tid ->
        (* spawn edge: parent is the currently running thread; the boot
           thread has no parent (current is still -1 at that point) *)
        if vm.Rt.current >= 0 then on_hb t vm.Rt.current new_tid);
  t

let detach (t : t) =
  let vm = t.sh_vm in
  vm.Rt.hooks.Rt.h_heap_read <- t.sh_prev_read;
  vm.Rt.hooks.Rt.h_heap_write <- t.sh_prev_write;
  vm.Rt.hooks.Rt.h_lock <- t.sh_prev_lock;
  vm.Rt.hooks.Rt.h_hb <- t.sh_prev_hb;
  vm.Rt.hooks.Rt.h_spawn <- t.sh_prev_spawn

let valid t = t.sh_valid

let n_tracked t = t.sh_n_tracked

let n_skipped t = t.sh_n_skipped

let racy_keys t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.sh_racy [])

let racy_witness t key = Hashtbl.find_opt t.sh_racy key

(* keys with a cross-thread write-involving pair left unordered by
   spawn/join alone — always a superset of [racy_keys] *)
let conflict_keys t =
  List.sort compare
    (Hashtbl.fold (fun k _ acc -> k :: acc) t.sh_conflicts [])

let conflict_witness t key = Hashtbl.find_opt t.sh_conflicts key

(* keys dynamically touched by >= 2 distinct threads *)
let shared_keys t =
  List.sort compare
    (Hashtbl.fold
       (fun k tids acc -> if List.length tids >= 2 then k :: acc else acc)
       t.sh_touched [])
