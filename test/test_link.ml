(* Boot-image construction: class ids, field flattening, vtables, subtype
   displays, statics allotment, string-literal pools — plus environment
   mechanics (clock, timer, inputs) and the PRNG. *)

open Tutil

let vm_of prog = Vm.create prog

let class_of vm name = Vm.Rt.the_class vm (Vm.Rt.class_id vm name)

let test_builtin_ids () =
  let vm = vm_of (main_prog [ i I.Ret ]) in
  Alcotest.(check int) "Object is cid 0" 0 (Vm.Rt.class_id vm "Object");
  Alcotest.(check bool) "String registered" true
    (Vm.Rt.class_id vm "String" > 0);
  Alcotest.(check bool) "Throwable registered" true
    (Vm.Rt.class_id vm "Throwable" > 0);
  List.iter
    (fun n -> ignore (Vm.Rt.class_id vm n))
    Bytecode.Decl.exception_classes

let test_field_flattening () =
  let extra =
    [
      D.cdecl "A" ~fields:[ D.field "a1"; D.field ~ty:I.Tref "a2" ] [];
      D.cdecl ~super:"A" "B" ~fields:[ D.field "b1" ] [];
    ]
  in
  let vm = vm_of (main_prog ~extra_classes:extra [ i I.Ret ]) in
  let b = class_of vm "B" in
  Alcotest.(check int) "three fields" 3 (Array.length b.rc_fields);
  Alcotest.(check string) "inherited first" "a1" (fst b.rc_fields.(0));
  Alcotest.(check string) "own last" "b1" (fst b.rc_fields.(2));
  Alcotest.(check int) "index of a2" 1 (Hashtbl.find b.rc_field_index "a2")

let test_vtable_override () =
  let m name body =
    A.method_ ~static:false ~args:[ I.Tobj name ] ~ret:I.Tint ~nlocals:1 "f" body
  in
  let extra =
    [
      D.cdecl "P" [ m "P" [ i (I.Const 1); i I.Retv ] ];
      D.cdecl ~super:"P" "Q" [ m "P" [ i (I.Const 2); i I.Retv ] ];
      D.cdecl ~super:"Q" "R" [];
    ]
  in
  let vm = vm_of (main_prog ~extra_classes:extra [ i I.Ret ]) in
  let p = class_of vm "P" and q = class_of vm "Q" and r = class_of vm "R" in
  Alcotest.(check int) "same slot count" (Array.length p.rc_vtable)
    (Array.length q.rc_vtable);
  let slot = Hashtbl.find p.rc_vslot_of "f" in
  Alcotest.(check bool) "Q overrides" true
    (q.rc_vtable.(slot) <> p.rc_vtable.(slot));
  Alcotest.(check int) "R inherits Q's" q.rc_vtable.(slot) r.rc_vtable.(slot)

let test_override_signature_mismatch () =
  let extra =
    [
      D.cdecl "P"
        [ A.method_ ~static:false ~args:[ I.Tobj "P" ] ~nlocals:1 "f" [ i I.Ret ] ];
      D.cdecl ~super:"P" "Q"
        [
          A.method_ ~static:false ~args:[ I.Tobj "Q"; I.Tint ] ~nlocals:2 "f"
            [ i I.Ret ];
        ];
    ]
  in
  match vm_of (main_prog ~extra_classes:extra [ i I.Ret ]) with
  | exception Vm.Link.Error _ -> ()
  | _ -> Alcotest.fail "bad override accepted"

(* A rejected program's message is one line, every issue in it: the CLI
   reports bad input in one stderr line. *)
let test_rejection_is_one_line () =
  let prog =
    Bytecode.Parser.parse_string
      "class T {\n  method main() locals 1 {\n    new Nope\n    pop\n\
      \    new Gone\n    pop\n    ret\n  }\n}\n"
  in
  match vm_of prog with
  | exception Vm.Link.Error msg ->
    Alcotest.(check bool)
      ("no newline: " ^ msg)
      false
      (String.contains msg '\n');
    Alcotest.(check bool) ("both classes named: " ^ msg) true
      (contains msg "Nope" && contains msg "Gone")
  | _ -> Alcotest.fail "unknown classes accepted"

let test_subtype_display () =
  let extra =
    [ D.cdecl "P" []; D.cdecl ~super:"P" "Q" []; D.cdecl ~super:"Q" "R" [];
      D.cdecl "X" [] ]
  in
  let vm = vm_of (main_prog ~extra_classes:extra [ i I.Ret ]) in
  let id n = Vm.Rt.class_id vm n in
  Alcotest.(check bool) "R <= P" true
    (Vm.Rt.is_subclass vm ~sub:(id "R") ~sup:(id "P"));
  Alcotest.(check bool) "P <= Object" true
    (Vm.Rt.is_subclass vm ~sub:(id "P") ~sup:0);
  Alcotest.(check bool) "P not <= R" false
    (Vm.Rt.is_subclass vm ~sub:(id "P") ~sup:(id "R"));
  Alcotest.(check bool) "X not <= P" false
    (Vm.Rt.is_subclass vm ~sub:(id "X") ~sup:(id "P"));
  Alcotest.(check int) "lca R X = Object" 0 (Vm.Rt.lca vm (id "R") (id "X"));
  Alcotest.(check int) "lca R Q = Q" (id "Q") (Vm.Rt.lca vm (id "R") (id "Q"))

let test_statics_allotment () =
  let extra =
    [
      D.cdecl "A" ~statics:[ D.field "x"; D.field ~ty:I.Tref "y" ] [];
      D.cdecl "B" ~statics:[ D.field "z" ] [];
    ]
  in
  let vm = vm_of (main_prog ~extra_classes:extra [ i I.Ret ]) in
  let a = class_of vm "A" and b = class_of vm "B" in
  Alcotest.(check bool) "disjoint bases" true
    (a.rc_statics_base <> b.rc_statics_base);
  Alcotest.(check bool) "ref flag derived" true
    vm.Vm.Rt.global_refs.(a.rc_statics_base + 1);
  Alcotest.(check bool) "int flag derived" false
    vm.Vm.Rt.global_refs.(a.rc_statics_base)

let test_string_pool () =
  let m =
    A.method_ ~nlocals:0 "main"
      [
        i (I.Sconst "a");
        i I.Pop;
        i (I.Sconst "b");
        i I.Pop;
        i (I.Sconst "a");
        i I.Pop;
        i I.Ret;
      ]
  in
  let vm = vm_of (prog1 [ m ]) in
  let t = class_of vm "T" in
  Alcotest.(check int) "distinct literals pooled" 2
    (Array.length t.rc_string_lits)

let test_lazy_initialization () =
  (* classes are registered at boot but initialized only on first use *)
  let extra = [ D.cdecl "Lazy" ~statics:[ D.field "v" ] [] ] in
  let vm = vm_of (main_prog ~extra_classes:extra [ i I.Ret ]) in
  ignore (Vm.run vm);
  Alcotest.(check bool) "untouched class never initialized" true
    ((class_of vm "Lazy").rc_state = Vm.Rt.Registered)

(* --- env -------------------------------------------------------------- *)

let test_env_tick_advances () =
  let env = Vm.Env.create Vm.Env.default_config in
  let t0 = Vm.Env.read_clock env in
  let fired = ref 0 in
  for _ = 1 to 10_000 do
    if Vm.Env.tick env then incr fired
  done;
  (* read_clock materializes the lazily deferred ticks *)
  Alcotest.(check bool) "clock advanced" true (Vm.Env.read_clock env > t0);
  Alcotest.(check bool) "timer fired" true (!fired > 0);
  Alcotest.(check int) "fires counted" !fired env.timer_fires

let test_env_determinism () =
  let run_ticks seed =
    let env = Vm.Env.create { Vm.Env.default_config with seed } in
    for _ = 1 to 5_000 do
      ignore (Vm.Env.tick env)
    done;
    (Vm.Env.read_clock env, env.timer_fires)
  in
  Alcotest.(check bool) "same seed same trajectory" true
    (run_ticks 42 = run_ticks 42);
  Alcotest.(check bool) "different seed different trajectory" true
    (run_ticks 42 <> run_ticks 43)

let test_env_scripted_inputs () =
  let env = Vm.Env.create ~inputs:[ 7; 8 ] Vm.Env.default_config in
  Alcotest.(check int) "first" 7 (Vm.Env.read_input env);
  Alcotest.(check int) "second" 8 (Vm.Env.read_input env);
  (* afterwards: the seeded stream, still deterministic *)
  let v1 = Vm.Env.read_input env in
  let env2 = Vm.Env.create ~inputs:[ 7; 8 ] Vm.Env.default_config in
  ignore (Vm.Env.read_input env2);
  ignore (Vm.Env.read_input env2);
  Alcotest.(check int) "stream deterministic" v1 (Vm.Env.read_input env2)

let test_env_idle () =
  let env = Vm.Env.create Vm.Env.default_config in
  let t = Vm.Env.idle_until env 500_000 in
  Alcotest.(check int) "advanced to target" 500_000 t;
  Alcotest.(check int) "no going back" 500_000 (Vm.Env.idle_until env 100)

let test_prng () =
  let a = Vm.Prng.create 1 and b = Vm.Prng.create 1 in
  let xs = List.init 100 (fun _ -> Vm.Prng.int a 1000) in
  let ys = List.init 100 (fun _ -> Vm.Prng.int b 1000) in
  Alcotest.(check bool) "deterministic" true (xs = ys);
  Alcotest.(check bool) "in range" true (List.for_all (fun x -> x >= 0 && x < 1000) xs);
  let c = Vm.Prng.copy a in
  Alcotest.(check int) "copy independent" (Vm.Prng.int a 97) (Vm.Prng.int c 97)

let () =
  Alcotest.run "link-env"
    [
      ( "link",
        [
          quick "builtin ids" test_builtin_ids;
          quick "field flattening" test_field_flattening;
          quick "vtable override" test_vtable_override;
          quick "bad override rejected" test_override_signature_mismatch;
          quick "rejection is one line" test_rejection_is_one_line;
          quick "subtype display / lca" test_subtype_display;
          quick "statics allotment" test_statics_allotment;
          quick "string pool" test_string_pool;
          quick "lazy initialization" test_lazy_initialization;
        ] );
      ( "env",
        [
          quick "tick advances" test_env_tick_advances;
          quick "determinism" test_env_determinism;
          quick "scripted inputs" test_env_scripted_inputs;
          quick "idle" test_env_idle;
          quick "prng" test_prng;
        ] );
    ]
