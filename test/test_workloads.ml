(* Catalogue-wide checks: every workload runs to its expected terminal
   state across seeds, its semantic invariants hold, and the flagship
   server workload conserves requests under every schedule. *)

open Tutil

let all () = Lazy.force Workloads.Registry.all

let test_catalogue_completes () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      List.iter
        (fun seed ->
          let vm, st = run ~natives:e.natives ~seed e.program in
          match st with
          | Vm.Rt.Finished | Vm.Rt.Halted _ | Vm.Rt.Deadlocked ->
            Alcotest.(check bool)
              (Fmt.str "%s/%d output or deadlock" e.name seed)
              true
              (String.length (Vm.output vm) > 0 || st = Vm.Rt.Deadlocked)
          | st ->
            Alcotest.failf "%s/%d: %s" e.name seed (Vm.string_of_status st))
        [ 1; 3 ])
    (all ())

let test_catalogue_checks_clean () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      Alcotest.(check (list string)) (e.name ^ " static checks") []
        (List.map
           (fun i -> Fmt.str "%a" Bytecode.Check.pp_issue i)
           (Bytecode.Check.check e.program)))
    (all ())

let test_catalogue_verifies () =
  (* every method of every workload passes the dataflow verifier, and its
     lowered region table re-checks against the canonical code (the
     compiler never runs that audit; this is where it runs) *)
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let vm = Vm.create ~natives:e.natives e.program in
      Array.iter
        (fun (m : Vm.Rt.rmethod) ->
          match Vm.Compile.compile vm m with
          | _ -> (
            try Vm.Regir.check m
            with Vm.Regir.Error msg ->
              Alcotest.failf "%s: %s region audit: %s" e.name m.rm_name msg)
          | exception Vm.Verify.Error msg ->
            Alcotest.failf "%s: %s rejected: %s" e.name m.rm_name msg)
        vm.Vm.Rt.methods)
    (all ())

(* The region audit rejects a corrupted table. Compile synced-counter,
   rewrite the first region [corrupt] applies to, and require
   [Regir.check] on that method to fail with a message naming [rule]. The
   untouched method passes first, so the failure is the corruption's. *)
let expect_rejected ~rule corrupt () =
  let e =
    match Workloads.Registry.find "synced-counter" with
    | Some e -> e
    | None -> Alcotest.fail "synced-counter workload missing"
  in
  let vm = Vm.create ~natives:e.natives e.program in
  let hit =
    Array.to_list vm.Vm.Rt.methods
    |> List.find_map (fun (m : Vm.Rt.rmethod) ->
           let c = Vm.Compile.compile vm m in
           Vm.Regir.check m;
           let regions = c.Vm.Rt.k_regions in
           Array.to_list (Array.mapi (fun pc r -> (pc, r)) regions)
           |> List.find_map (fun (pc, r) ->
                  match r with
                  | None -> None
                  | Some r ->
                    Option.map
                      (fun r' -> (m, regions, pc, r'))
                      (corrupt c.Vm.Rt.k_code r)))
  in
  match hit with
  | None -> Alcotest.failf "no region to corrupt for %S" rule
  | Some (m, regions, pc, r') -> (
    regions.(pc) <- Some r';
    match Vm.Regir.check m with
    | () -> Alcotest.failf "audit accepted a region at %d breaking %S" pc rule
    | exception Vm.Regir.Error msg ->
      if not (contains msg rule) then
        Alcotest.failf "audit rejected for another reason: %s" msg)

(* Replace op [i] of [r] with [f op] for the first op it maps to [Some]. *)
let rewrite_op f (r : Vm.Rt.region) =
  let ops = r.Vm.Rt.r_ops in
  let rec go i =
    if i >= Array.length ops then None
    else
      match f ops.(i) with
      | Some op ->
        let ops = Array.copy ops in
        ops.(i) <- op;
        Some { r with Vm.Rt.r_ops = ops }
      | None -> go (i + 1)
  in
  go 0

let is_call code p =
  match code.(p) with
  | Vm.Rt.KInvokestatic _ | Vm.Rt.KInvokevirtual _ -> true
  | _ -> false

let wrong_sp _code =
  rewrite_op (function
    | Vm.Rt.RInstr (p, s) -> Some (Vm.Rt.RInstr (p, s + 1))
    | _ -> None)

(* the call's own op, then an [REnd] behind it *)
let call_not_last code (r : Vm.Rt.region) =
  let ops = r.Vm.Rt.r_ops in
  match ops.(Array.length ops - 1) with
  | Vm.Rt.RInstr (p, s) when is_call code p ->
    Some { r with Vm.Rt.r_ops = Array.append ops [| Vm.Rt.REnd (p + 1, s) |] }
  | _ -> None

(* the branch's pc and its canonical sp slot before it *)
let instr_on_branch _code =
  rewrite_op (function
    | Vm.Rt.RIf (_, _, fall, a) -> Some (Vm.Rt.RInstr (fall - 1, a + 2))
    | Vm.Rt.RIfz (_, _, fall, a) -> Some (Vm.Rt.RInstr (fall - 1, a + 1))
    | _ -> None)

let one_tick_short _code =
  rewrite_op (function
    | Vm.Rt.RTick k when k >= 2 -> Some (Vm.Rt.RTick (k - 1))
    | _ -> None)

let test_webserver_conservation () =
  List.iter
    (fun seed ->
      let p = Workloads.Webserver.program ~workers:3 ~requests:40 () in
      let out, st = run_output ~seed p in
      Alcotest.check status_testable (Fmt.str "seed %d" seed) Vm.Rt.Finished st;
      Alcotest.(check bool) "served all" true (contains out "served=40");
      (* hits + misses = number of get requests; both are printed *)
      let field name =
        out |> String.split_on_char '\n'
        |> List.find_map (fun l ->
               if
                 String.length l > String.length name
                 && String.sub l 0 (String.length name) = name
               then
                 int_of_string_opt
                   (String.sub l (String.length name)
                      (String.length l - String.length name))
               else None)
      in
      match (field "hits=", field "misses=") with
      | Some h, Some m ->
        Alcotest.(check bool) "gets bounded" true (h >= 0 && m >= 0 && h + m <= 40)
      | _ -> Alcotest.fail "missing stats")
    [ 1; 2; 3; 4 ]

let test_webserver_replay () =
  let p = Workloads.Webserver.program () in
  let rt = Dejavu.verify_roundtrip ~seed:9 p in
  Alcotest.(check bool) "roundtrip" true (rt.Dejavu.verdict = Dejavu.Ok)

let test_catalogue_distinct_names () =
  let names = Workloads.Registry.names () in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "catalogue is rich" true (List.length names >= 20)

(* Every record and replay takes its program's digest, and a farm cycles
   the whole catalogue: after one pass, a second pass over every workload
   must hit the cache (the physically same string), not recompute. *)
let test_catalogue_digests_cached () =
  let digests =
    List.map
      (fun (e : Workloads.Registry.entry) -> Bytecode.Decl.digest e.program)
      (all ())
  in
  List.iter2
    (fun (e : Workloads.Registry.entry) d ->
      Alcotest.(check bool)
        (e.name ^ " digest cached")
        true
        (Bytecode.Decl.digest e.program == d))
    (all ()) digests

let () =
  Alcotest.run "workloads"
    [
      ( "catalogue",
        [
          quick "all complete" test_catalogue_completes;
          quick "all pass static checks" test_catalogue_checks_clean;
          quick "all pass the verifier" test_catalogue_verifies;
          quick "distinct names" test_catalogue_distinct_names;
          quick "digests cached" test_catalogue_digests_cached;
        ] );
      ( "region audit",
        [
          quick "rejects an RInstr with the wrong sp slot"
            (expect_rejected ~rule:"carries sp slot" wrong_sp);
          quick "rejects a call RInstr before the last op"
            (expect_rejected ~rule:"a call or return before the last op"
               call_not_last);
          quick "rejects an RInstr on a branch"
            (expect_rejected ~rule:"runs an instruction with its own op"
               instr_on_branch);
          quick "rejects ticks one short of r_n"
            (expect_rejected ~rule:"ticks for" one_tick_short);
        ] );
      ( "webserver",
        [
          quick "request conservation" test_webserver_conservation;
          quick "replay" test_webserver_replay;
        ] );
    ]
