(* Property-based tests (QCheck): codec roundtrips, interpreter correctness
   against an OCaml reference evaluator, execution determinism, replay
   accuracy on randomly generated multithreaded programs, GC transparency,
   and a fuzzer asserting the VM never crashes at the OCaml level — random
   programs are either rejected (check/link/verify) or run to a status. *)

open Tutil

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- codec ---------------------------------------------------------------- *)

let prop_varint_roundtrip =
  qtest ~count:1000 "varint roundtrip" QCheck.int (fun v ->
      let buf = Buffer.create 16 in
      Dejavu.Trace.put_varint buf v;
      let got, pos = Dejavu.Trace.get_varint (Buffer.contents buf) 0 in
      got = v && pos = Buffer.length buf)

(* Edge values first, then uniform 63-bit: QCheck.int alone rarely visits
   the extremes where the zigzag/shift logic can go wrong. *)
let extreme_int_gen =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 1 ]);
        (8, map (fun (a, b) -> a lxor (b lsl 31)) (pair int int));
      ])

let prop_varint_roundtrip_extremes =
  qtest ~count:2000 "varint roundtrip at 63-bit extremes"
    (QCheck.make ~print:string_of_int extreme_int_gen) (fun v ->
      let buf = Buffer.create 16 in
      Dejavu.Trace.put_varint buf v;
      let got, pos = Dejavu.Trace.get_varint (Buffer.contents buf) 0 in
      got = v && pos = Buffer.length buf)

(* Malformed varint streams must always surface as Format_error — never an
   out-of-range read, a silent wrong value, or a non-Trace exception. *)
let decodes_or_format_error s =
  match Dejavu.Trace.get_varint s 0 with
  | _, pos -> pos <= String.length s
  | exception Dejavu.Trace.Format_error _ -> true

let prop_varint_truncated =
  qtest ~count:500 "truncated varints yield Format_error"
    (QCheck.make ~print:string_of_int extreme_int_gen) (fun v ->
      let buf = Buffer.create 16 in
      Dejavu.Trace.put_varint buf v;
      let s = Buffer.contents buf in
      (* every proper prefix that still ends mid-value must be rejected *)
      List.for_all
        (fun k ->
          match Dejavu.Trace.get_varint (String.sub s 0 k) 0 with
          | exception Dejavu.Trace.Format_error _ -> true
          | _ -> false)
        (List.init (String.length s - 1) (fun k -> k)))

let prop_varint_oversized =
  qtest ~count:200 "oversized varints yield Format_error"
    QCheck.(int_range 9 20)
    (fun n ->
      (* n continuation bytes (>= 9 shifts past bit 56) then a terminator *)
      let s = String.make n '\xff' ^ "\x01" in
      match Dejavu.Trace.get_varint s 0 with
      | exception Dejavu.Trace.Format_error _ -> true
      | _ -> false)

let prop_varint_noncanonical =
  qtest ~count:500 "non-canonical trailing 0x00 yields Format_error"
    QCheck.(int_range 1 8)
    (fun n ->
      (* n continuation bytes then a zero final byte: decodes to a value
         the encoder would have written shorter — must be rejected *)
      let s = String.make n '\x81' ^ "\x00" in
      match Dejavu.Trace.get_varint s 0 with
      | exception Dejavu.Trace.Format_error _ -> true
      | _ -> false)

let garbage_gen =
  QCheck.string_gen_of_size (QCheck.Gen.int_range 0 24) QCheck.Gen.char

let prop_varint_garbage_total =
  qtest ~count:2000 "arbitrary bytes: decode or Format_error, never a crash"
    garbage_gen decodes_or_format_error

let arr_gen = QCheck.(array_of_size (Gen.int_bound 200) int)

let prop_trace_roundtrip =
  qtest ~count:200 "trace bytes roundtrip"
    QCheck.(quad arr_gen arr_gen arr_gen arr_gen)
    (fun (a, b, c, d) ->
      let t =
        {
          Dejavu.Trace.program_digest = "prop";
          analysis_hash = "prop-audit";
          switches = a;
          clocks = b;
          inputs = c;
          natives = d;
          picks = [||];
        }
      in
      let t' = Dejavu.Trace.of_bytes (Dejavu.Trace.to_bytes t) in
      t'.Dejavu.Trace.switches = a
      && t'.Dejavu.Trace.clocks = b
      && t'.Dejavu.Trace.inputs = c
      && t'.Dejavu.Trace.natives = d)

(* --- interpreter vs reference evaluator ----------------------------------- *)

type aop = OAdd of int | OSub of int | OMul of int | ODiv of int | ORem of int
         | OAnd of int | OOr of int | OXor of int | ONeg

let aop_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> OAdd n) (int_range (-1000) 1000);
        map (fun n -> OSub n) (int_range (-1000) 1000);
        map (fun n -> OMul n) (int_range (-30) 30);
        map (fun n -> ODiv n) (oneof [ int_range 1 50; int_range (-50) (-1) ]);
        map (fun n -> ORem n) (oneof [ int_range 1 50; int_range (-50) (-1) ]);
        map (fun n -> OAnd n) (int_range 0 4095);
        map (fun n -> OOr n) (int_range 0 4095);
        map (fun n -> OXor n) (int_range 0 4095);
        return ONeg;
      ])

let eval_ref init ops =
  List.fold_left
    (fun acc op ->
      match op with
      | OAdd n -> acc + n
      | OSub n -> acc - n
      | OMul n -> acc * n
      | ODiv n -> acc / n
      | ORem n -> acc mod n
      | OAnd n -> acc land n
      | OOr n -> acc lor n
      | OXor n -> acc lxor n
      | ONeg -> -acc)
    init ops

let instr_of_aop op =
  match op with
  | OAdd n -> [ i (I.Const n); i I.Add ]
  | OSub n -> [ i (I.Const n); i I.Sub ]
  | OMul n -> [ i (I.Const n); i I.Mul ]
  | ODiv n -> [ i (I.Const n); i I.Div ]
  | ORem n -> [ i (I.Const n); i I.Rem ]
  | OAnd n -> [ i (I.Const n); i I.Band ]
  | OOr n -> [ i (I.Const n); i I.Bor ]
  | OXor n -> [ i (I.Const n); i I.Bxor ]
  | ONeg -> [ i I.Neg ]

let aops_arb =
  QCheck.make
    QCheck.Gen.(pair (int_range (-10000) 10000) (list_size (int_bound 40) aop_gen))

let prop_arith_matches_reference =
  qtest ~count:300 "interpreter matches reference arithmetic" aops_arb
    (fun (init, ops) ->
      let body =
        [ i (I.Const init) ]
        @ List.concat_map instr_of_aop ops
        @ [ i I.Print; i I.Ret ]
      in
      let out, st = run_output (main_prog body) in
      st = Vm.Rt.Finished && out = printed [ eval_ref init ops ])

(* --- determinism ----------------------------------------------------------- *)

let prop_execution_deterministic =
  qtest ~count:25 "same seed, same execution"
    QCheck.(int_range 1 100000)
    (fun seed ->
      let p = Workloads.Counters.racy ~threads:3 ~increments:80 () in
      let vm1, _ = run ~seed p in
      let vm2, _ = run ~seed p in
      Vm.digest vm1 = Vm.digest vm2 && Vm.output vm1 = Vm.output vm2)

(* --- random multithreaded programs replay accurately ------------------------ *)

(* A generated thread body: a loop of [iters] rounds, each doing a random
   mix of shared-counter updates (optionally locked), spins and sleeps. *)
type tact =
  | Bump of bool (* locked? *)
  | Spin of int
  | Nap of int
  | Input
  | Pulse (* timed wait on the shared lock + notify: the wait/notify paths *)

let tact_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun b -> Bump b) bool);
        (3, map (fun n -> Spin n) (int_range 1 40));
        (1, map (fun n -> Nap n) (int_range 1 3));
        (1, return Input);
        (1, return Pulse);
      ])

let racy_arb =
  QCheck.make
    ~print:(fun (nt, iters, bodies) ->
      Fmt.str "threads=%d iters=%d bodies=%d" nt iters (List.length bodies))
    QCheck.Gen.(
      triple (int_range 1 4) (int_range 1 12)
        (list_size (return 4) (list_size (int_range 1 6) tact_gen)))

let program_of_tacts nt iters bodies =
  let c = "Gen" in
  let act_instrs = function
    | Bump false ->
      [
        i (I.Getstatic (c, "counter"));
        i (I.Const 1);
        i I.Add;
        i (I.Putstatic (c, "counter"));
      ]
    | Bump true ->
      [
        i (I.Getstatic (c, "lock"));
        i I.Monitorenter;
        i (I.Getstatic (c, "counter"));
        i (I.Const 1);
        i I.Add;
        i (I.Putstatic (c, "counter"));
        i (I.Getstatic (c, "lock"));
        i I.Monitorexit;
      ]
    | Spin n -> [ i (I.Const n); i (I.Invoke (c, "spin")) ]
    | Nap n -> [ i (I.Const n); i I.Sleep ]
    | Input ->
      [
        i I.Readinput;
        i (I.Getstatic (c, "seen"));
        i I.Add;
        i (I.Putstatic (c, "seen"));
      ]
    | Pulse ->
      (* notify anyone waiting, then wait briefly ourselves (timed, so the
         generated program can never hang on a lost wake-up) *)
      [
        i (I.Getstatic (c, "lock"));
        i I.Monitorenter;
        i (I.Getstatic (c, "lock"));
        i I.Notifyall;
        i (I.Getstatic (c, "lock"));
        i (I.Const 2);
        i I.Timedwait;
        i I.Pop;
        i (I.Getstatic (c, "lock"));
        i I.Monitorexit;
      ]
  in
  let worker k body =
    A.method_ ~nlocals:1
      (Fmt.str "w%d" k)
      ([ i (I.Const iters); i (I.Store 0); l "loop"; i (I.Load 0); i (I.Ifz (I.Le, "end")) ]
      @ List.concat_map act_instrs body
      @ [
          i (I.Load 0);
          i (I.Const 1);
          i I.Sub;
          i (I.Store 0);
          i (I.Goto "loop");
          l "end";
          i I.Ret;
        ])
  in
  let workers = List.mapi worker bodies in
  let used = List.filteri (fun k _ -> k < nt) workers in
  let main =
    A.method_ ~nlocals:(nt + 1) "main"
      ([ i (I.New "Object"); i (I.Putstatic (c, "lock")) ]
      @ List.concat
          (List.mapi
             (fun k _ ->
               [ i (I.Spawn (c, Fmt.str "w%d" k)); i (I.Store k) ])
             used)
      @ List.concat (List.init (List.length used) (fun k -> [ i (I.Load k); i I.Join ]))
      @ [
          i (I.Getstatic (c, "counter"));
          i I.Print;
          i (I.Getstatic (c, "seen"));
          i I.Print;
          i I.Ret;
        ])
  in
  D.program
    [
      D.cdecl c
        ~statics:
          [
            D.field "counter";
            D.field "seen";
            D.field ~ty:(I.Tobj "Object") "lock";
          ]
        (Workloads.Util.spin_method :: workers @ [ main ]);
    ]

let prop_random_programs_roundtrip =
  qtest ~count:40 "random multithreaded programs replay accurately" racy_arb
    (fun (nt, iters, bodies) ->
      let p = program_of_tacts nt iters bodies in
      let rt = Dejavu.verify_roundtrip ~seed:(nt + iters) p in
      Dejavu.ok rt)

let prop_random_programs_switch_map =
  qtest ~count:20 "random programs replay under switch-map too" racy_arb
    (fun (nt, iters, bodies) ->
      let p = program_of_tacts nt iters bodies in
      Baselines.Runner.ok (Baselines.Runner.roundtrip_switch_map ~seed:7 p))

(* --- GC transparency --------------------------------------------------------- *)

let prop_gc_transparent =
  qtest ~count:25 "small heap (many GCs) = big heap result"
    QCheck.(pair (int_range 5 40) (int_range 3 30))
    (fun (nodes, rounds) ->
      let p = Workloads.Gc_churn.program ~threads:2 ~rounds ~nodes () in
      let vm_small, st_small =
        run ~config:{ Vm.Rt.default_config with heap_words = 3500 } ~seed:2 p
      in
      let vm_big, st_big = run ~seed:2 p in
      st_small = st_big && Vm.output vm_small = Vm.output vm_big)

(* --- fuzz: the VM never crashes ------------------------------------------------ *)

let fuzz_instr_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun n -> I.Const n) (int_range (-100) 100));
        (3, map (fun n -> I.Load (abs n mod 5)) small_int);
        (3, map (fun n -> I.Store (abs n mod 5)) small_int);
        (1, return I.Dup);
        (1, return I.Pop);
        (1, return I.Swap);
        (2, return I.Add);
        (1, return I.Sub);
        (1, return I.Mul);
        (1, return I.Div);
        (1, return I.Rem);
        (1, return I.Neg);
        (1, return I.Band);
        (1, return I.Shl);
        (1, map (fun (c, t) ->
                 let cmp = match c mod 6 with
                   | 0 -> I.Eq | 1 -> I.Ne | 2 -> I.Lt | 3 -> I.Le | 4 -> I.Gt | _ -> I.Ge
                 in
                 I.If (cmp, abs t mod 40))
             (pair small_int small_int));
        (1, map (fun t -> I.Ifz (I.Eq, abs t mod 40)) small_int);
        (1, map (fun t -> I.Goto (abs t mod 40)) small_int);
        (1, return (I.New "T"));
        (1, return (I.New "Object"));
        (1, return (I.Getstatic ("T", "s0")));
        (1, return (I.Putstatic ("T", "s0")));
        (1, return (I.Getstatic ("T", "r0")));
        (1, return (I.Putstatic ("T", "r0")));
        (1, return (I.Newarray I.Tint));
        (1, return I.Aload);
        (1, return I.Astore);
        (1, return I.Arraylength);
        (1, return (I.Sconst "f"));
        (1, return I.Prints);
        (1, return I.Print);
        (1, return I.Monitorenter);
        (1, return I.Monitorexit);
        (1, return (I.Invoke ("T", "aux")));
        (1, return (I.Spawn ("T", "aux")));
        (1, return I.Join);
        (1, return I.Sleep);
        (1, return I.Currenttime);
        (1, return I.Readinput);
        (1, return (I.Checkcast "String"));
        (1, return (I.Instanceof "Object"));
        (1, return I.Throw);
        (1, return I.Ret);
        (1, return I.Halt);
        (1, return I.Nop);
      ])

let fuzz_arb =
  QCheck.make
    ~print:(fun instrs ->
      String.concat "; " (List.map I.to_string instrs))
    QCheck.Gen.(list_size (int_range 1 40) fuzz_instr_gen)

let prop_vm_never_crashes =
  qtest ~count:800 "random programs: rejected or executed, never a crash"
    fuzz_arb
    (fun instrs ->
      let code = Array.of_list (instrs @ [ I.Ret ]) in
      let aux = D.mdecl ~nlocals:0 "aux" [ I.Ret ] in
      let main = D.mdecl ~nlocals:5 "main" (Array.to_list code) in
      let p =
        D.program ~main_class:"T"
          [
            D.cdecl "T"
              ~statics:[ D.field "s0"; D.field ~ty:I.Tref "r0" ]
              [ aux; main ];
          ]
      in
      match run ~limit:100_000 p with
      | _vm, _status -> true
      | exception Vm.Link.Error _ -> true (* static rejection *)
      | exception Vm.Verify.Error _ -> true (* verifier rejection *)
      | exception Vm.Compile.Error _ -> true)

let prop_fuzzed_gc_agrees =
  qtest ~count:200 "accepted random programs: heap size is transparent"
    fuzz_arb
    (fun instrs ->
      let code = instrs @ [ I.Ret ] in
      let aux = D.mdecl ~nlocals:0 "aux" [ I.Ret ] in
      let main = D.mdecl ~nlocals:5 "main" code in
      let p =
        D.program ~main_class:"T"
          [
            D.cdecl "T"
              ~statics:[ D.field "s0"; D.field ~ty:I.Tref "r0" ]
              [ aux; main ];
          ]
      in
      match run ~limit:100_000 p with
      | exception _ -> true (* rejected: nothing to compare *)
      | vm_big, st_big -> (
        match
          run ~limit:100_000
            ~config:{ Vm.Rt.default_config with heap_words = 2500 } p
        with
        | vm_small, st_small -> (
          match (st_big, st_small) with
          | Vm.Rt.Fatal _, _ | _, Vm.Rt.Fatal _ -> true (* OOM timing differs *)
          | _ -> st_big = st_small && Vm.output vm_big = Vm.output vm_small)
        | exception _ -> false))

let prop_fuzzed_replay =
  qtest ~count:150 "accepted random programs replay accurately" fuzz_arb
    (fun instrs ->
      let code = instrs @ [ I.Ret ] in
      let aux = D.mdecl ~nlocals:0 "aux" [ I.Ret ] in
      let main = D.mdecl ~nlocals:5 "main" code in
      let p =
        D.program ~main_class:"T"
          [
            D.cdecl "T"
              ~statics:[ D.field "s0"; D.field ~ty:I.Tref "r0" ]
              [ aux; main ];
          ]
      in
      match Dejavu.verify_roundtrip ~limit:100_000 ~seed:5 p with
      | rt -> Dejavu.ok rt
      | exception Vm.Link.Error _ -> true
      | exception Vm.Verify.Error _ -> true
      | exception Vm.Compile.Error _ -> true)

let prop_snapshot_transparent =
  qtest ~count:40 "snapshot/restore preserves the timeline" racy_arb
    (fun (nt, iters, bodies) ->
      let p = program_of_tacts nt iters bodies in
      let vm = Vm.create p in
      Vm.boot vm;
      let k = ref 0 in
      while Vm.status vm = Vm.Rt.Running_ && !k < 400 do
        Vm.step vm;
        incr k
      done;
      if Vm.status vm <> Vm.Rt.Running_ then true
      else begin
        let ck = Vm.Snapshot.save vm in
        ignore (Vm.run vm);
        let a = (Vm.output vm, Vm.digest vm) in
        Vm.Snapshot.restore vm ck;
        ignore (Vm.run vm);
        (Vm.output vm, Vm.digest vm) = a
      end)

let prop_random_programs_icount =
  qtest ~count:15 "random programs replay under instruction counting" racy_arb
    (fun (nt, iters, bodies) ->
      let p = program_of_tacts nt iters bodies in
      Baselines.Runner.ok (Baselines.Runner.roundtrip_icount ~seed:11 p))

(* --- the register-IR tier is invisible ------------------------------------- *)

let noregir_config = { Vm.Rt.default_config with Vm.Rt.regir = false }

(* Random multithreaded programs: recording on the register tier and on
   the stack tier must produce the same output, final state, event
   sequence, and byte-identical traces — preemptions land on the same
   instructions because RTick batches pay the same logical-clock charges
   at the same points. *)
let prop_regir_transparent_mt =
  qtest ~count:30 "register tier invisible on random multithreaded programs"
    racy_arb (fun (nt, iters, bodies) ->
      let p = program_of_tacts nt iters bodies in
      let seed = (7 * nt) + iters in
      let rr, rt = Dejavu.record ~seed p in
      let sr, st = Dejavu.record ~config:noregir_config ~seed p in
      rr.Dejavu.output = sr.Dejavu.output
      && rr.Dejavu.state_digest = sr.Dejavu.state_digest
      && rr.Dejavu.obs_digest = sr.Dejavu.obs_digest
      && rr.Dejavu.obs_count = sr.Dejavu.obs_count
      && Dejavu.Trace.to_bytes rt = Dejavu.Trace.to_bytes st)

(* Fuzzed programs reach what the structured generator cannot: faults
   mid-region (the stored pc/sp must match the canonical fault point),
   branches into region interiors, and instruction-limit cutoffs between
   segments. The digest covers dead stack slots, so the write-elision in
   the lowering must never skip a slot the canonical tier would have
   written last. *)
let prop_fuzzed_regir_agrees =
  qtest ~count:250 "accepted random programs: register tier transparent"
    fuzz_arb (fun instrs ->
      let code = instrs @ [ I.Ret ] in
      let aux = D.mdecl ~nlocals:0 "aux" [ I.Ret ] in
      let main = D.mdecl ~nlocals:5 "main" code in
      let p =
        D.program ~main_class:"T"
          [
            D.cdecl "T"
              ~statics:[ D.field "s0"; D.field ~ty:I.Tref "r0" ]
              [ aux; main ];
          ]
      in
      match run ~limit:100_000 p with
      | exception _ -> true (* rejected before dispatch: nothing to compare *)
      | vm_r, st_r ->
        let vm_s, st_s = run ~limit:100_000 ~config:noregir_config p in
        st_r = st_s
        && Vm.output vm_r = Vm.output vm_s
        && Vm.digest vm_r = Vm.digest vm_s)

(* --- lazy clock horizon ----------------------------------------------- *)

(* The lazily-materialized clock (precomputed preemption horizon with
   deferred PRNG draws) must be indistinguishable from the eager
   per-tick reference at every observation point: same fire pattern,
   same [now]/[ticks]/[timer_fires]/[next_timer] whenever something
   reads the clock (Currenttime, Sleep wakeups), and the same stream
   position for non-clock draws. Shapes cover jitter=0 (the fused
   no-jitter stub path), spike-free, out-of-stub-range jitter, and a
   tiny quantum (the horizon ends every few ticks). *)
let clock_shapes =
  [|
    { Vm.Env.default_config with Vm.Env.jitter = 0; spike_per_mille = 0 };
    { Vm.Env.default_config with Vm.Env.jitter = 0 };
    { Vm.Env.default_config with Vm.Env.spike_per_mille = 0 };
    Vm.Env.default_config;
    { Vm.Env.default_config with Vm.Env.jitter = 4096 };
    { Vm.Env.default_config with Vm.Env.quantum = 17; quantum_jitter = 5 };
  |]

type clock_op =
  | CTick of int  (* charge n instructions (batch on even n, per-tick odd) *)
  | CRead  (* Currenttime: read the clock *)
  | CCharge of int  (* compile-cost charge *)
  | CIdle of int  (* Sleep wakeup: idle to now + n *)
  | CRand of int  (* native draw from the same stream *)

let clock_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun n -> CTick (1 + (abs n mod 400))) int);
        (2, return CRead);
        (1, map (fun n -> CCharge (abs n mod 500)) int);
        (1, map (fun n -> CIdle (abs n mod 2000)) int);
        (2, map (fun n -> CRand (1 + (abs n mod 1000))) int);
      ])

let clock_arb =
  QCheck.make
    ~print:(fun (shape, seed, ops) ->
      Fmt.str "shape %d seed %d: %s" shape seed
        (String.concat "; "
           (List.map
              (function
                | CTick n -> Fmt.str "tick %d" n
                | CRead -> "read"
                | CCharge n -> Fmt.str "charge %d" n
                | CIdle n -> Fmt.str "idle +%d" n
                | CRand b -> Fmt.str "rand %d" b)
              ops)))
    QCheck.Gen.(
      triple
        (int_range 0 (Array.length clock_shapes - 1))
        (int_range 1 10_000)
        (list_size (int_range 1 60) clock_op_gen))

let prop_lazy_clock_matches_eager =
  qtest ~count:300 "lazy horizon clock = eager clock at observation points"
    clock_arb (fun (shape, seed, ops) ->
      let cfg = { clock_shapes.(shape) with Vm.Env.seed } in
      let l = Vm.Env.create cfg and e = Vm.Env.create cfg in
      let ok = ref true in
      let obs () =
        ok :=
          !ok
          && Vm.Env.read_clock l = Vm.Env.read_clock e
          && l.Vm.Env.ticks = e.Vm.Env.ticks
          && l.Vm.Env.timer_fires = e.Vm.Env.timer_fires
          && l.Vm.Env.next_timer = e.Vm.Env.next_timer
      in
      List.iter
        (fun op ->
          if !ok then
            match op with
            | CTick n ->
              (* lazy side: alternate the batch entry (regions) and the
                 per-tick entry (canonical dispatch) *)
              let lazy_fires =
                if n land 1 = 0 then Vm.Env.tick_batch l n
                else begin
                  let f = ref 0 in
                  for _ = 1 to n do
                    if Vm.Env.tick l then incr f
                  done;
                  !f
                end
              in
              let eager_fires = ref 0 in
              for _ = 1 to n do
                if Vm.Env.tick_eager e then incr eager_fires
              done;
              ok := !ok && lazy_fires = !eager_fires
            | CRead -> obs ()
            | CCharge n ->
              Vm.Env.charge l n;
              Vm.Env.charge e n;
              obs ()
            | CIdle d ->
              let target = Vm.Env.read_clock e + d in
              ok :=
                !ok && Vm.Env.idle_until l target = Vm.Env.idle_until e target;
              obs ()
            | CRand b ->
              ok := !ok && Vm.Env.random l b = Vm.Env.random e b;
              obs ())
        ops;
      obs ();
      !ok)

(* --- monomorphic inline caches are invisible -------------------------------- *)

(* The catalogue workloads that compile virtual call/spawn sites. *)
let ic_workloads = [ "synced-counter"; "producer-consumer"; "exceptions" ]

let find_entry name =
  match Workloads.Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "workload %s missing" name

let seeded_config seed =
  {
    Vm.Rt.default_config with
    Vm.Rt.env_cfg = { Vm.Rt.default_config.Vm.Rt.env_cfg with Vm.Env.seed };
  }

let force_compile vm =
  Array.iter
    (fun (m : Vm.Rt.rmethod) -> ignore (Vm.Compile.compile vm m))
    vm.Vm.Rt.methods

(* Copy warm inline-cache contents from [src]'s compiled methods into
   [dst]'s (both link the same program, so uids and pcs line up; [dst]
   must already be force-compiled). Returns the number of warm sites. *)
let copy_warm_ics src dst =
  let copied = ref 0 in
  Array.iteri
    (fun k (m : Vm.Rt.rmethod) ->
      match m.Vm.Rt.rm_compiled with
      | None -> ()
      | Some c ->
        let c' = Vm.Rt.compiled dst.Vm.Rt.methods.(k) in
        Array.iteri
          (fun pc ins ->
            match (ins, c'.Vm.Rt.k_code.(pc)) with
            | ( Vm.Rt.KInvokevirtual (_, _, _, ic),
                Vm.Rt.KInvokevirtual (_, _, _, ic') )
            | ( Vm.Rt.KSpawnvirtual (_, _, _, ic),
                Vm.Rt.KSpawnvirtual (_, _, _, ic') ) ->
              if ic.Vm.Rt.ic_cid >= 0 then begin
                incr copied;
                ic'.Vm.Rt.ic_cid <- ic.Vm.Rt.ic_cid;
                ic'.Vm.Rt.ic_meth <-
                  dst.Vm.Rt.methods.(ic.Vm.Rt.ic_meth.Vm.Rt.uid)
              end
            | _ -> ())
          c.Vm.Rt.k_code)
    src.Vm.Rt.methods;
  !copied

(* Record on a VM whose methods were all compiled up front (the compile
   cost lands before boot instead of mid-run, so two such records share a
   timeline), optionally warming its inline caches from a prior run. *)
let record_precompiled ?warm_from (e : Workloads.Registry.entry) seed =
  let vm = Vm.create ~config:(seeded_config seed) ~natives:e.natives e.program in
  force_compile vm;
  let warmed =
    match warm_from with None -> 0 | Some src -> copy_warm_ics src vm
  in
  let session = Dejavu.Recorder.attach vm in
  let obs = Vm.Observer.attach_digest vm in
  ignore (Vm.run vm);
  (vm, Dejavu.Recorder.finish session, obs, warmed)

(* Cold vs warm inline caches: an IC is pure memoization of the vtable
   walk, so a recording taken with every cache pre-warmed must be
   byte-identical to one taken cold. *)
let test_warm_ic_record_identical () =
  List.iter
    (fun name ->
      let e = find_entry name in
      let live, _ = Vm.execute ~natives:e.natives ~seed:1 e.program in
      let vm_c, tr_c, obs_c, _ = record_precompiled e 1 in
      let vm_w, tr_w, obs_w, warmed = record_precompiled ~warm_from:live e 1 in
      Alcotest.(check bool) (name ^ " some ics warmed") true (warmed > 0);
      Alcotest.(check string)
        (name ^ " trace bytes")
        (Dejavu.Trace.to_bytes tr_c)
        (Dejavu.Trace.to_bytes tr_w);
      Alcotest.(check int)
        (name ^ " event digest")
        (Vm.Observer.digest obs_c) (Vm.Observer.digest obs_w);
      Alcotest.(check string) (name ^ " output") (Vm.output vm_c)
        (Vm.output vm_w);
      Alcotest.(check int) (name ^ " state digest") (Vm.digest vm_c)
        (Vm.digest vm_w))
    ic_workloads

(* Replay is environment-independent, so a warm replay VM — methods
   pre-compiled, caches pre-warmed — must consume a cold-recorded trace
   exactly as a cold replay does. *)
let test_warm_ic_replay_identical () =
  List.iter
    (fun name ->
      let e = find_entry name in
      let _, trace = Dejavu.record ~natives:e.natives ~seed:2 e.program in
      let cold, left = Dejavu.replay ~natives:e.natives e.program trace in
      Alcotest.(check (list string)) (name ^ " cold replay consumed") [] left;
      let live, _ = Vm.execute ~natives:e.natives ~seed:2 e.program in
      let vm = Vm.create ~natives:e.natives e.program in
      force_compile vm;
      let warmed = copy_warm_ics live vm in
      Alcotest.(check bool) (name ^ " some ics warmed") true (warmed > 0);
      let session = Dejavu.Replayer.attach vm trace in
      let obs = Vm.Observer.attach_digest vm in
      ignore (Vm.run vm);
      Alcotest.(check (list string))
        (name ^ " warm replay consumed")
        []
        (Dejavu.Replayer.check_complete session);
      Alcotest.(check int)
        (name ^ " event digest")
        cold.Dejavu.obs_digest (Vm.Observer.digest obs);
      Alcotest.(check int)
        (name ^ " event count")
        cold.Dejavu.obs_count (Vm.Observer.count obs);
      Alcotest.(check string) (name ^ " output") cold.Dejavu.output
        (Vm.output vm);
      Alcotest.(check int)
        (name ^ " state digest")
        cold.Dejavu.state_digest (Vm.digest vm))
    ic_workloads

let prop_fuzzed_emit_roundtrip =
  qtest ~count:200 "accepted random programs survive emit+parse" fuzz_arb
    (fun instrs ->
      let code = instrs @ [ I.Ret ] in
      let aux = D.mdecl ~nlocals:0 "aux" [ I.Ret ] in
      let main = D.mdecl ~nlocals:5 "main" code in
      let p =
        D.program ~main_class:"T"
          [
            D.cdecl "T"
              ~statics:[ D.field "s0"; D.field ~ty:I.Tref "r0" ]
              [ aux; main ];
          ]
      in
      if Bytecode.Check.check p <> [] then true
      else
        match Bytecode.Parser.parse_string (Bytecode.Emit.to_string p) with
        | p' -> D.digest p = D.digest p'
        | exception Bytecode.Parser.Error _ -> false)

let () =
  Alcotest.run "props"
    [
      ( "codec",
        [
          prop_varint_roundtrip; prop_varint_roundtrip_extremes;
          prop_varint_truncated; prop_varint_oversized;
          prop_varint_noncanonical; prop_varint_garbage_total;
          prop_trace_roundtrip;
        ] );
      ("interp", [ prop_arith_matches_reference ]);
      ("determinism", [ prop_execution_deterministic ]);
      ( "replay",
        [
          prop_random_programs_roundtrip; prop_random_programs_switch_map;
          prop_random_programs_icount;
        ] );
      ("snapshot", [ prop_snapshot_transparent ]);
      ( "regir",
        [
          prop_regir_transparent_mt; prop_fuzzed_regir_agrees;
        ] );
      ("clock", [ prop_lazy_clock_matches_eager ]);
      ( "inline-caches",
        [
          quick "warm record = cold record" test_warm_ic_record_identical;
          quick "warm replay = cold replay" test_warm_ic_replay_identical;
        ] );
      ("gc", [ prop_gc_transparent ]);
      ( "fuzz",
        [
          prop_vm_never_crashes; prop_fuzzed_gc_agrees; prop_fuzzed_replay;
          prop_fuzzed_emit_roundtrip;
        ] );
    ]
