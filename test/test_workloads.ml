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
  (* every method of every workload passes the dataflow verifier, and —
     with the compile-time audit on — the lowered region table re-checks
     against the canonical code. Production configs skip the audit for
     wall time; this is where it runs. *)
  let config = { Vm.Rt.default_config with Vm.Rt.audit = true } in
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let vm = Vm.create ~config ~natives:e.natives e.program in
      Array.iter
        (fun (m : Vm.Rt.rmethod) ->
          match Vm.Compile.compile vm m with
          | _ -> ()
          | exception Vm.Verify.Error msg ->
            Alcotest.failf "%s: %s rejected: %s" e.name m.rm_name msg)
        vm.Vm.Rt.methods)
    (all ())

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
  Alcotest.(check bool) "roundtrip" true (Dejavu.ok rt)

let test_catalogue_distinct_names () =
  let names = Workloads.Registry.names () in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "catalogue is rich" true (List.length names >= 20)

let () =
  Alcotest.run "workloads"
    [
      ( "catalogue",
        [
          quick "all complete" test_catalogue_completes;
          quick "all pass static checks" test_catalogue_checks_clean;
          quick "all pass the verifier" test_catalogue_verifies;
          quick "distinct names" test_catalogue_distinct_names;
        ] );
      ( "webserver",
        [
          quick "request conservation" test_webserver_conservation;
          quick "replay" test_webserver_replay;
        ] );
    ]
