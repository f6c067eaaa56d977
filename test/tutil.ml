(* Shared helpers for the test suites. *)

module I = Bytecode.Instr
module D = Bytecode.Decl
module A = Bytecode.Asm

let i = A.i

let l = A.label

let quick name f = Alcotest.test_case name `Quick f

(* A replay verdict, printed as dvrun prints it. *)
let verdict = Alcotest.testable Dejavu.pp_verdict ( = )

(* [trace] with its first native callback rewritten by [f] (uid and
   arguments). The native outcomes are decoded and re-encoded in their own
   layout, so nothing else changes. *)
let tamper_first_callback f (trace : Dejavu.Trace.t) =
  let pending = ref true in
  let outcomes =
    List.map
      (fun (id, (o : Vm.Rt.native_outcome)) ->
        match o.no_callbacks with
        | cb :: rest when !pending ->
          pending := false;
          (id, { o with no_callbacks = f cb :: rest })
        | _ -> (id, o))
      (Layouts.native_outcomes trace)
  in
  if !pending then Alcotest.fail "trace has no native callback";
  Layouts.with_native_outcomes (Layouts.native_layout trace) outcomes trace

(* A one-class program named "T". *)
let prog1 ?(statics = []) ?(fields = []) ?(extra_classes = []) methods :
    D.program =
  D.program ~main_class:"T"
    (extra_classes @ [ D.cdecl "T" ~statics ~fields methods ])

(* Run and return (vm, status). *)
let run ?config ?natives ?inputs ?(seed = 1) ?limit prog =
  Vm.execute ?config ?natives ?inputs ~seed ?limit prog

let run_output ?config ?natives ?inputs ?seed ?limit prog =
  let vm, st = run ?config ?natives ?inputs ?seed ?limit prog in
  (Vm.output vm, st)

(* Assert a program finishes and prints [expected]. *)
let expect_output ?config ?natives ?inputs ?seed ?limit prog expected =
  let out, st = run_output ?config ?natives ?inputs ?seed ?limit prog in
  (match st with
  | Vm.Rt.Finished | Vm.Rt.Halted _ -> ()
  | st -> Alcotest.failf "did not finish: %s (output %S)" (Vm.string_of_status st) out);
  Alcotest.(check string) "output" expected out

(* A main method printing whatever [body] leaves as its effects. *)
let main_method ?(nlocals = 4) body = A.method_ ~nlocals "main" body

(* Build a program whose main is just [body]. *)
let main_prog ?statics ?fields ?extra_classes ?nlocals body =
  prog1 ?statics ?fields ?extra_classes [ main_method ?nlocals body ]

(* Shorthand: expected output from printed ints. *)
let printed ints = String.concat "" (List.map (fun n -> string_of_int n ^ "\n") ints)

(* A small-heap / small-stack config to provoke GC and growth. *)
let tiny_config =
  {
    Vm.Rt.default_config with
    Vm.Rt.heap_words = 3000;
    stack_init = 64;
    stack_max = 4096;
  }

(* [s] with one byte changed, for mutant properties: [op] 0 flips byte
   [pos] (xor a nonzero mask), 1 inserts [byte] before it, 2 deletes it;
   [pos] wraps around the string. *)
let mutate s op pos byte =
  let n = String.length s in
  match op with
  | 0 ->
    let pos = pos mod n in
    String.mapi
      (fun i c ->
        if i = pos then Char.chr (Char.code c lxor (1 + (byte mod 255))) else c)
      s
  | 1 ->
    let pos = pos mod (n + 1) in
    String.sub s 0 pos ^ String.make 1 (Char.chr byte) ^ String.sub s pos (n - pos)
  | _ ->
    let pos = pos mod n in
    String.sub s 0 pos ^ String.sub s (pos + 1) (n - pos - 1)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let status_testable =
  Alcotest.testable
    (fun ppf st -> Fmt.string ppf (Vm.string_of_status st))
    (fun a b -> a = b)
