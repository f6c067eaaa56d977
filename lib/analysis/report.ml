(* Race-audit report: pair-based classification of every field and
   allocation site as thread-local / lock-consistent / racy, with method:pc
   provenance, plus the conflict-pair set, static deadlock findings, and
   the monitor-depth issues. This is the output of `dvrun lint`; its
   summary hash is the lint job's digest.

   Classification: for a field key, consider all pairs of non-confined
   accesses with at least one write. A pair *conflicts* when its bases may
   alias ({!Mhp.may_alias} — per-root allocation tags refute cross-thread
   aliasing of thread-private structures) and the two program points may
   happen in parallel ({!Mhp.may_overlap} over spawn/join/once structure).
   Racy = some conflicting pair has an empty must-lockset intersection;
   lock-consistent = conflicting pairs exist but every one shares a lock;
   thread-local = no conflicting pair at all (genuinely private state,
   read-only sharing, spawn/join-ordered publication, or provably disjoint
   per-thread objects).

   The conflict-pair set — every (access site, field) in some conflicting
   pair — is deliberately *not* refuted by locks: lock-ordered accesses
   still contend for order, which makes them exactly the branch points a
   DPOR-style explorer must enumerate (and the sites the dynamic sharing
   tracker of the tests may observe as spawn/join-unordered). Both the
   conflict set and the deadlock findings fold into the summary hash. *)

module Decl = Bytecode.Decl
module Check = Bytecode.Check

type status = Thread_local | Lock_consistent | Racy

let status_name = function
  | Thread_local -> "thread_local"
  | Lock_consistent -> "lock_consistent"
  | Racy -> "racy"

type acc_view = {
  av_where : string;
  av_root : string;
  av_write : bool;
  av_locks : string list;
}

type finding = {
  f_kind : [ `Field | `Site ];
  f_key : string;
  f_status : status;
  f_why : string;
  f_accesses : acc_view list;
}

type t = {
  name : string;
  findings : finding list;
  conflicts : (string * string list) list;  (* field key -> conflict sites *)
  n_conflict_pairs : int;
  deadlocks : Lockorder.finding list;
  monitor_issues : Check.issue list;
  converged : bool;
  n_roots : int;
  summary_hash : string;
  mhp_ms : float;  (* classification incl. MHP/alias pair tests *)
  deadlock_ms : float;  (* lock-order graph + cycle search *)
}

(* --- summary hash: FNV-1a over the sorted classification lines --- *)

let hash_lines lines =
  let mix h c = (h lxor c) * 0x100000001b3 land max_int in
  let h =
    List.fold_left
      (fun h line -> String.fold_left (fun h c -> mix h (Char.code c)) (mix h 0x1f) line)
      0x3bf29ce484222325 (List.sort compare lines)
  in
  Printf.sprintf "%016x" h

(* --- the analysis driver --- *)

let lock_str = Fmt.str "%a" Lockset.pp_name

let build ?(name = "program") (p : Decl.program) : t =
  let prog = Prog.build p in
  let cg = Callgraph.build prog in
  let res = Lockset.analyze_program cg in
  let escaping = Escape.solve res in
  let mhp = Mhp.build cg in
  let roots = cg.Callgraph.roots in
  let n_roots = Array.length roots in
  let root_label r =
    if r >= 0 && r < n_roots then roots.(r).Callgraph.r_label else "?"
  in
  let confined (a : Lockset.access) =
    a.Lockset.acc_base <> []
    && List.for_all
         (function
           | Lockset.NSite (i, _) -> not escaping.(i)
           | _ -> false)
         a.Lockset.acc_base
  in
  let t_mhp = Sys.time () in
  (* group accesses by field key, preserving harvest order *)
  let by_field : (string, Lockset.access list) Hashtbl.t = Hashtbl.create 32 in
  let field_order = ref [] in
  List.iter
    (fun (a : Lockset.access) ->
      let k = a.Lockset.acc_field in
      (match Hashtbl.find_opt by_field k with
      | None ->
        field_order := k :: !field_order;
        Hashtbl.replace by_field k [ a ]
      | Some l -> Hashtbl.replace by_field k (a :: l)))
    res.Lockset.accesses;
  let field_order = List.rev !field_order in
  let view (a : Lockset.access) =
    {
      av_where = a.Lockset.acc_where;
      av_root = root_label a.Lockset.acc_root;
      av_write = a.Lockset.acc_write;
      av_locks = List.map lock_str a.Lockset.acc_locks;
    }
  in
  let inter l1 l2 = List.filter (fun x -> List.mem x l2) l1 in
  let conflict_sites : (string, (string, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let n_conflict_pairs = ref 0 in
  let add_conflict field (a : Lockset.access) (b : Lockset.access) =
    incr n_conflict_pairs;
    let tbl =
      match Hashtbl.find_opt conflict_sites field with
      | Some t -> t
      | None ->
        let t = Hashtbl.create 4 in
        Hashtbl.replace conflict_sites field t;
        t
    in
    Hashtbl.replace tbl a.Lockset.acc_where ();
    Hashtbl.replace tbl b.Lockset.acc_where ()
  in
  let field_findings =
    List.map
      (fun key ->
        let accs = List.rev (Hashtbl.find by_field key) in
        let shared = List.filter (fun a -> not (confined a)) accs in
        (* candidate pairs: both shared, at least one write *)
        let alias_refuted = ref false in
        let rec pairs acc = function
          | [] -> acc
          | a :: rest ->
            pairs
              (List.fold_left
                 (fun acc b ->
                   if a.Lockset.acc_write || b.Lockset.acc_write then begin
                     let overlap =
                       Mhp.may_overlap mhp (Mhp.of_access a) (Mhp.of_access b)
                     in
                     let alias =
                       Mhp.may_alias a.Lockset.acc_base b.Lockset.acc_base
                     in
                     if overlap && not alias then alias_refuted := true;
                     if overlap && alias then begin
                       add_conflict key a b;
                       (a, b) :: acc
                     end
                     else acc
                   end
                   else acc)
                 acc rest)
              rest
        in
        let conc = List.rev (pairs [] shared) in
        let racy_pair =
          List.find_opt
            (fun ((a : Lockset.access), (b : Lockset.access)) ->
              inter a.Lockset.acc_locks b.Lockset.acc_locks = [])
            conc
        in
        let status, why =
          match (racy_pair, conc) with
          | Some (a, b), _ ->
            ( Racy,
              Fmt.str "%s and %s can interleave with no common lock"
                a.Lockset.acc_where b.Lockset.acc_where )
          | None, [] ->
            let why =
              if accs <> [] && List.for_all confined accs then
                "all bases are thread-confined allocations"
              else if not (List.exists (fun a -> a.Lockset.acc_write) accs)
              then "never written"
              else if !alias_refuted then
                "accesses touch provably distinct objects (per-thread \
                 allocation)"
              else "no concurrent conflicting accesses (spawn/join ordered)"
            in
            (Thread_local, why)
          | None, (a0, b0) :: _ ->
            let common =
              List.fold_left
                (fun acc (a, b) ->
                  inter acc (inter a.Lockset.acc_locks b.Lockset.acc_locks))
                (inter a0.Lockset.acc_locks b0.Lockset.acc_locks)
                conc
            in
            let why =
              match common with
              | l :: _ -> Fmt.str "guarded by %s" (lock_str l)
              | [] -> "every concurrent pair shares some lock"
            in
            (Lock_consistent, why)
        in
        {
          f_kind = `Field;
          f_key = key;
          f_status = status;
          f_why = why;
          f_accesses = List.map view accs;
        })
      field_order
  in
  let conflicts =
    (* canonical order: sorted by field key, sites sorted within each field —
       stable across runs and independent of both hashtable iteration and
       the source harvest order, so json output and the explorer's pruning
       set are reproducible byte-for-byte *)
    List.filter_map
      (fun key ->
        match Hashtbl.find_opt conflict_sites key with
        | None -> None
        | Some tbl ->
          let sites = Hashtbl.fold (fun s () acc -> s :: acc) tbl [] in
          Some (key, List.sort compare sites))
      field_order
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let mhp_ms = (Sys.time () -. t_mhp) *. 1000. in
  (* allocation sites *)
  let racy_fields =
    List.filter_map
      (fun f -> if f.f_status = Racy then Some f.f_key else None)
      field_findings
  in
  let site_findings =
    Array.to_list res.Lockset.sites
    |> List.map (fun (s : Lockset.site) ->
           let key = Fmt.str "new %s @@ %s" s.Lockset.site_desc s.Lockset.site_where in
           let touches_racy =
             List.exists
               (fun (a : Lockset.access) ->
                 List.mem a.Lockset.acc_field racy_fields
                 && List.exists
                      (function
                        | Lockset.NSite (i, _) -> i = s.Lockset.site_id
                        | _ -> false)
                      a.Lockset.acc_base)
               res.Lockset.accesses
           in
           let status, why =
             if not escaping.(s.Lockset.site_id) then
               (Thread_local, "confined to its allocating thread")
             else if touches_racy then
               (Racy, "escapes and backs a racy field access")
             else (Lock_consistent, "escapes to another thread")
           in
           {
             f_kind = `Site;
             f_key = key;
             f_status = status;
             f_why = why;
             f_accesses = [];
           })
  in
  let t_dl = Sys.time () in
  let deadlocks = Lockorder.detect mhp res in
  let deadlock_ms = (Sys.time () -. t_dl) *. 1000. in
  let monitor_issues = Check.check_monitors p in
  let findings = field_findings @ site_findings in
  let summary_hash =
    hash_lines
      (List.map
         (fun f ->
           (match f.f_kind with `Field -> "field " | `Site -> "site ")
           ^ f.f_key ^ " " ^ status_name f.f_status)
         findings
      @ List.concat_map
          (fun (field, sites) ->
            List.map (fun s -> "conflict " ^ field ^ " @ " ^ s) sites)
          conflicts
      @ List.map
          (fun (d : Lockorder.finding) ->
            "deadlock " ^ String.concat " -> " d.Lockorder.dl_cycle)
          deadlocks
      @ List.map (fun (i : Check.issue) -> "monitor " ^ i.Check.where ^ ": " ^ i.Check.what)
          monitor_issues
      @ [ (if res.Lockset.converged then "converged" else "diverged") ])
  in
  {
    name;
    findings;
    conflicts;
    n_conflict_pairs = !n_conflict_pairs;
    deadlocks;
    monitor_issues;
    converged = res.Lockset.converged;
    n_roots;
    summary_hash;
    mhp_ms;
    deadlock_ms;
  }

let racy_keys t =
  List.filter_map
    (fun f -> if f.f_status = Racy then Some f.f_key else None)
    t.findings

(* Field keys (including "[]" and "(static)" keys) the dynamic Observer may
   skip bookkeeping for. MHP/alias refinement only grows this set: a field
   whose every access pair is spawn/join-ordered or provably disjoint is
   Thread_local here even when its objects escape. *)
let thread_local_fields t =
  List.filter_map
    (fun f ->
      if f.f_kind = `Field && f.f_status = Thread_local then Some f.f_key
      else None)
    t.findings

(* Field keys with at least one conflicting access pair — the superset the
   dynamic conflict tracker may report, and the DPOR pruning domain. *)
let conflict_fields t = List.map fst t.conflicts

(* (site, field) branch points for a systematic explorer, sorted by
   (site, field) so the pruning set enumerates identically everywhere. *)
let branch_points t =
  List.concat_map (fun (f, sites) -> List.map (fun s -> (s, f)) sites)
    t.conflicts
  |> List.sort compare

let deadlock_keys t =
  List.map
    (fun (d : Lockorder.finding) -> String.concat " -> " d.Lockorder.dl_cycle)
    t.deadlocks

let monitor_keys t =
  List.map
    (fun (i : Check.issue) -> i.Check.where ^ ": " ^ i.Check.what)
    t.monitor_issues

(* --- rendering --- *)

let pp_status ppf s = Fmt.string ppf (status_name s)

let pp ppf t =
  let count s =
    List.length (List.filter (fun f -> f.f_status = s) t.findings)
  in
  Fmt.pf ppf
    "lint %s: %d findings (%d racy, %d lock-consistent, %d thread-local), %d \
     conflict pairs, %d deadlocks, %d roots, hash %s%s@."
    t.name (List.length t.findings) (count Racy) (count Lock_consistent)
    (count Thread_local) t.n_conflict_pairs (List.length t.deadlocks)
    t.n_roots t.summary_hash
    (if t.converged then "" else " [NOT CONVERGED]");
  List.iter
    (fun f ->
      Fmt.pf ppf "  %-15s %s — %s@." (status_name f.f_status) f.f_key f.f_why;
      let n = List.length f.f_accesses in
      List.iteri
        (fun i a ->
          if i < 8 then
            Fmt.pf ppf "      %s %s [%s]%s@."
              (if a.av_write then "write" else "read ")
              a.av_where a.av_root
              (match a.av_locks with
              | [] -> ""
              | l -> " locks{" ^ String.concat ", " l ^ "}"))
        f.f_accesses;
      if n > 8 then Fmt.pf ppf "      … %d more accesses@." (n - 8))
    t.findings;
  if t.conflicts <> [] then begin
    Fmt.pf ppf "  conflict pairs (DPOR branch points):@.";
    List.iter
      (fun (field, sites) ->
        Fmt.pf ppf "      %s: %s@." field (String.concat ", " sites))
      t.conflicts
  end;
  if t.deadlocks <> [] then begin
    Fmt.pf ppf "  deadlock cycles:@.";
    List.iter
      (fun (d : Lockorder.finding) ->
        Fmt.pf ppf "      %s — %s@."
          (String.concat " -> " d.Lockorder.dl_cycle)
          d.Lockorder.dl_why)
      t.deadlocks
  end;
  if t.monitor_issues <> [] then begin
    Fmt.pf ppf "  monitor-depth issues:@.";
    List.iter
      (fun (i : Check.issue) -> Fmt.pf ppf "      %a@." Check.pp_issue i)
      t.monitor_issues
  end

let to_json t : Json.t =
  let finding f =
    Json.Obj
      ([
         ("key", Json.Str f.f_key);
         ("kind", Json.Str (match f.f_kind with `Field -> "field" | `Site -> "site"));
         ("status", Json.Str (status_name f.f_status));
         ("why", Json.Str f.f_why);
       ]
      @
      if f.f_accesses = [] then []
      else
        [
          ( "accesses",
            Json.List
              (List.map
                 (fun a ->
                   Json.Obj
                     [
                       ("where", Json.Str a.av_where);
                       ("root", Json.Str a.av_root);
                       ("write", Json.Bool a.av_write);
                       ("locks", Json.List (List.map (fun l -> Json.Str l) a.av_locks));
                     ])
                 f.f_accesses) );
        ])
  in
  Json.Obj
    [
      ("program", Json.Str t.name);
      ("summary_hash", Json.Str t.summary_hash);
      ("converged", Json.Bool t.converged);
      ("roots", Json.Int t.n_roots);
      ("n_conflict_pairs", Json.Int t.n_conflict_pairs);
      ("findings", Json.List (List.map finding t.findings));
      ( "conflicts",
        Json.List
          (List.map
             (fun (field, sites) ->
               Json.Obj
                 [ ("field", Json.Str field); ("sites", Json.strings sites) ])
             t.conflicts) );
      ( "branch_points",
        Json.List
          (List.map
             (fun (site, field) ->
               Json.Obj [ ("site", Json.Str site); ("field", Json.Str field) ])
             (branch_points t)) );
      ( "deadlocks",
        Json.List
          (List.map
             (fun (d : Lockorder.finding) ->
               Json.Obj
                 [
                   ("cycle", Json.strings d.Lockorder.dl_cycle);
                   ("sites", Json.strings d.Lockorder.dl_sites);
                   ("why", Json.Str d.Lockorder.dl_why);
                 ])
             t.deadlocks) );
      ( "monitor_issues",
        Json.List
          (List.map
             (fun (i : Check.issue) ->
               Json.Obj
                 [ ("where", Json.Str i.Check.where); ("what", Json.Str i.Check.what) ])
             t.monitor_issues) );
    ]
