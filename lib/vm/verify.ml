(* Bytecode verifier and reference-map builder.

   An abstract interpretation over compiled code computes, for every pc, the
   type of each local slot and operand-stack slot. The per-pc reference maps
   that make the garbage collector type-accurate (the Jalapeño "reference
   maps" of the paper) fall out of the fixpoint. The verifier is strict:
   programs whose types cannot be proven consistent are rejected, so the
   interpreter runs without per-access type checks and the collector can
   trust the maps.

   Arrays are invariant (no covariant array assignment): this removes the
   need for runtime store checks while keeping the heap well-typed. *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(* Abstract value types. [VRef] is "any object". *)
type vt = Bot | VInt | VNull | VRef | VObj of int | VArr of vt

let rec pp_vt ppf = function
  | Bot -> Fmt.string ppf "bot"
  | VInt -> Fmt.string ppf "int"
  | VNull -> Fmt.string ppf "null"
  | VRef -> Fmt.string ppf "ref"
  | VObj c -> Fmt.pf ppf "obj(%d)" c
  | VArr e -> Fmt.pf ppf "%a[]" pp_vt e

let is_ref = function
  | Bot | VInt -> false
  | VNull | VRef | VObj _ | VArr _ -> true

let refish = function VNull | VRef | VObj _ | VArr _ -> true | _ -> false

(* Convert a declared type to an abstract type. *)
let rec of_ty vm (ty : Bytecode.Instr.ty) =
  match ty with
  | Bytecode.Instr.Tint -> VInt
  | Bytecode.Instr.Tref -> VRef
  | Bytecode.Instr.Tobj name -> (
    let cid = Rt.class_id vm name in
    if cid = 0 then VRef else VObj cid)
  | Bytecode.Instr.Tarr e -> VArr (of_ty vm e)

let rec equal_vt a b =
  match (a, b) with
  | Bot, Bot | VInt, VInt | VNull, VNull | VRef, VRef -> true
  | VObj x, VObj y -> x = y
  | VArr x, VArr y -> equal_vt x y
  | _ -> false

(* Join in the type lattice; raises on int/ref conflicts. *)
let merge vm a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | VInt, VInt -> VInt
  | VNull, x when refish x -> x
  | x, VNull when refish x -> x
  | VRef, x when refish x -> VRef
  | x, VRef when refish x -> VRef
  | VObj x, VObj y ->
    let l = Rt.lca vm x y in
    if l = 0 then VRef else VObj l
  | VObj _, VArr _ | VArr _, VObj _ -> VRef
  | VArr x, VArr y -> if equal_vt x y then VArr x else VRef
  | _ -> error "type conflict merging %a and %a" pp_vt a pp_vt b

(* May a value of type [v] be used where [want] is expected? Arrays are
   invariant; [VRef] accepts any object. *)
let assignable vm ~want v =
  match (want, v) with
  | _, Bot -> true
  | VInt, VInt -> true
  | VInt, _ -> false
  | _, VInt -> false
  | _, VNull -> true
  | VRef, x -> refish x
  | VObj c, VObj c' -> Rt.is_subclass vm ~sub:c' ~sup:c
  | VObj c, (VRef | VArr _) -> c = 0 (* only Object accepts any ref *)
  | VArr e, VArr e' -> equal_vt e e'
  | VArr _, _ -> false
  | (VNull | Bot), _ -> false

type state = { locals : vt array; stack : vt array; depth : int }

let copy_state s =
  { locals = Array.copy s.locals; stack = Array.copy s.stack; depth = s.depth }

let equal_state a b =
  a.depth = b.depth
  && Array.for_all2 equal_vt a.locals b.locals
  &&
  let ok = ref true in
  for i = 0 to a.depth - 1 do
    if not (equal_vt a.stack.(i) b.stack.(i)) then ok := false
  done;
  !ok

type result = { maps : Rt.refmap array; max_stack : int }

let refmap_of_state s : Rt.refmap =
  {
    Rt.map_locals = Array.map is_ref s.locals;
    map_stack = Array.init s.depth (fun i -> is_ref s.stack.(i));
    map_depth = s.depth;
  }

let empty_refmap nlocals : Rt.refmap =
  { Rt.map_locals = Array.make nlocals false; map_stack = [||]; map_depth = 0 }

(* Signature of a callee, resolved from the method tables. *)
let sig_of (m : Rt.rmethod) = (m.rm_args, m.rm_ret)

let verify (vm : Rt.t) (m : Rt.rmethod) (code : Rt.cinstr array)
    (handlers : Rt.rhandler array) : result =
  let n = Array.length code in
  let nlocals = m.rm_nlocals in
  let max_depth = ref 0 in
  (* A generous stack bound: every instruction pushes at most one slot. *)
  let stack_cap = n + 8 in
  let states : state option array = Array.make n None in
  let work = Queue.create () in
  let throwable_cid = Rt.class_id vm "Throwable" in
  let string_cid = Rt.class_id vm Bytecode.Decl.string_class in
  let schedule pc (s : state) =
    if pc < 0 || pc >= n then error "%s: branch target %d out of range" m.rm_name pc;
    match states.(pc) with
    | None ->
      states.(pc) <- Some (copy_state s);
      Queue.add pc work
    | Some old ->
      let merged =
        {
          locals = Array.map2 (merge vm) old.locals s.locals;
          stack =
            (if old.depth <> s.depth then
               error "%s: stack depth mismatch at pc %d (%d vs %d)" m.rm_name
                 pc old.depth s.depth;
             Array.init (Array.length old.stack) (fun i ->
                 if i < old.depth then merge vm old.stack.(i) s.stack.(i)
                 else Bot));
          depth = old.depth;
        }
      in
      if not (equal_state old merged) then begin
        states.(pc) <- Some merged;
        Queue.add pc work
      end
  in
  (* Entry state: argument types, remaining locals Bot, empty stack. *)
  let entry =
    {
      locals =
        Array.init nlocals (fun i ->
            if i < m.rm_nargs then of_ty vm m.rm_args.(i) else Bot);
      stack = Array.make stack_cap Bot;
      depth = 0;
    }
  in
  schedule 0 entry;
  while not (Queue.is_empty work) do
    let pc = Queue.pop work in
    let s0 =
      match states.(pc) with
      | Some s -> s
      | None ->
        error "%s: verifier worklist reached pc %d with no recorded state"
          m.rm_name pc
    in
    if s0.depth > !max_depth then max_depth := s0.depth;
    (* Any instruction may raise: merge the in-state into the handlers that
       cover this pc (stack cleared, exception object pushed). *)
    Array.iter
      (fun (h : Rt.rhandler) ->
        if pc >= h.k_from && pc < h.k_upto then begin
          let exc = if h.k_catch < 0 then VObj throwable_cid else VObj h.k_catch in
          let hs =
            {
              locals = Array.copy s0.locals;
              stack =
                (let a = Array.make stack_cap Bot in
                 a.(0) <- exc;
                 a);
              depth = 1;
            }
          in
          schedule h.k_target hs
        end)
      handlers;
    let s = copy_state s0 in
    (* Mutable mini-interpreter over the abstract state. *)
    let sp = ref s.depth in
    let pushv v =
      if !sp >= stack_cap then error "%s: verifier stack overflow" m.rm_name;
      s.stack.(!sp) <- v;
      incr sp
    in
    let popv () =
      if !sp = 0 then error "%s: pc %d: stack underflow" m.rm_name pc;
      decr sp;
      let v = s.stack.(!sp) in
      s.stack.(!sp) <- Bot;
      v
    in
    let pop_int what =
      let v = popv () in
      if not (assignable vm ~want:VInt v) then
        error "%s: pc %d: %s expects int, got %a" m.rm_name pc what pp_vt v
    in
    let pop_refish what =
      let v = popv () in
      if not (refish v || v = Bot) then
        error "%s: pc %d: %s expects a reference, got %a" m.rm_name pc what
          pp_vt v;
      v
    in
    let pop_want what want =
      let v = popv () in
      if not (assignable vm ~want v) then
        error "%s: pc %d: %s expects %a, got %a" m.rm_name pc what pp_vt want
          pp_vt v;
      v
    in
    let pop_args what (args : Bytecode.Instr.ty array) =
      for i = Array.length args - 1 downto 0 do
        ignore (pop_want what (of_ty vm args.(i)))
      done
    in
    let state_now () = { locals = s.locals; stack = s.stack; depth = !sp } in
    let goto_next () = schedule (pc + 1) (state_now ()) in
    let goto target = schedule target (state_now ()) in
    (match code.(pc) with
    | KConst _ ->
      pushv VInt;
      goto_next ()
    | KStr _ ->
      pushv (VObj string_cid);
      goto_next ()
    | KNull ->
      pushv VNull;
      goto_next ()
    (* the interpreter's local-slot accesses are unchecked, so both range
       ends must be rejected here *)
    | KLoad i ->
      if i < 0 || i >= nlocals then
        error "%s: pc %d: load %d out of range" m.rm_name pc i;
      pushv s.locals.(i);
      goto_next ()
    | KStore i ->
      if i < 0 || i >= nlocals then
        error "%s: pc %d: store %d out of range" m.rm_name pc i;
      let v = popv () in
      s.locals.(i) <- v;
      goto_next ()
    | KDup ->
      let v = popv () in
      pushv v;
      pushv v;
      goto_next ()
    | KPop ->
      ignore (popv ());
      goto_next ()
    | KSwap ->
      let a = popv () in
      let b = popv () in
      pushv a;
      pushv b;
      goto_next ()
    | KBin _ ->
      pop_int "binop";
      pop_int "binop";
      pushv VInt;
      goto_next ()
    | KNeg ->
      pop_int "neg";
      pushv VInt;
      goto_next ()
    | KIf (_, t) ->
      pop_int "if";
      pop_int "if";
      goto t;
      goto_next ()
    | KIfz (_, t) ->
      pop_int "ifz";
      goto t;
      goto_next ()
    | KIfnull t | KIfnonnull t ->
      ignore (pop_refish "ifnull");
      goto t;
      goto_next ()
    | KIfrefeq t | KIfrefne t ->
      ignore (pop_refish "ifref");
      ignore (pop_refish "ifref");
      goto t;
      goto_next ()
    | KGoto t -> goto t
    | KNew cid ->
      pushv (if cid = 0 then VRef else VObj cid);
      goto_next ()
    | KGetfield (_, ty) ->
      ignore (pop_refish "getfield");
      pushv (of_ty vm ty);
      goto_next ()
    | KPutfield (_, ty) ->
      ignore (pop_want "putfield" (of_ty vm ty));
      ignore (pop_refish "putfield");
      goto_next ()
    | KGetstatic (_, _, ty) ->
      pushv (of_ty vm ty);
      goto_next ()
    | KPutstatic (_, _, ty) ->
      ignore (pop_want "putstatic" (of_ty vm ty));
      goto_next ()
    | KNewarray ty ->
      pop_int "newarray";
      pushv (VArr (of_ty vm ty));
      goto_next ()
    | KAload ->
      pop_int "aload index";
      let a = pop_refish "aload" in
      (match a with
      | VArr e -> pushv e
      | VNull | Bot -> pushv Bot
      | _ -> error "%s: pc %d: aload on non-array %a" m.rm_name pc pp_vt a);
      goto_next ()
    | KAstore ->
      let v = popv () in
      pop_int "astore index";
      let a = pop_refish "astore" in
      (match a with
      | VArr e ->
        if not (assignable vm ~want:e v) then
          error "%s: pc %d: astore of %a into %a[]" m.rm_name pc pp_vt v pp_vt e
      | VNull | Bot -> ()
      | _ -> error "%s: pc %d: astore on non-array %a" m.rm_name pc pp_vt a);
      goto_next ()
    | KArraylength ->
      let a = pop_refish "arraylength" in
      (match a with
      | VArr _ | VNull | Bot -> ()
      | _ -> error "%s: pc %d: arraylength on %a" m.rm_name pc pp_vt a);
      pushv VInt;
      goto_next ()
    | KCheckcast cid ->
      ignore (pop_refish "checkcast");
      pushv (if cid = 0 then VRef else VObj cid);
      goto_next ()
    | KInstanceof _ ->
      ignore (pop_refish "instanceof");
      pushv VInt;
      goto_next ()
    | KInvokestatic callee ->
      let args, ret = sig_of callee in
      pop_args ("call " ^ callee.rm_name) args;
      Option.iter (fun ty -> pushv (of_ty vm ty)) ret;
      goto_next ()
    | KInvokevirtual (cid, vslot, _, _) ->
      let callee = vm.methods.((Rt.the_class vm cid).rc_vtable.(vslot)) in
      let args, ret = sig_of callee in
      (* args include the receiver; the receiver must additionally be a
         subtype of the class the call site names *)
      let rev = Array.copy args in
      rev.(0) <- Bytecode.Instr.Tobj (Rt.the_class vm cid).rc_name;
      pop_args ("call " ^ callee.rm_name) rev;
      Option.iter (fun ty -> pushv (of_ty vm ty)) ret;
      goto_next ()
    | KRet ->
      if Rt.returns m then
        error "%s: ret in a method that returns a value" m.rm_name
    | KRetv -> (
      match m.rm_ret with
      | None -> error "%s: retv in a void method" m.rm_name
      | Some ty -> ignore (pop_want "retv" (of_ty vm ty)))
    | KThrow ->
      let v = pop_refish "throw" in
      (match v with
      | VObj c when Rt.is_subclass vm ~sub:c ~sup:throwable_cid -> ()
      | VNull | Bot -> ()
      | _ -> error "%s: pc %d: throw of non-throwable %a" m.rm_name pc pp_vt v)
    | KMonitorenter | KMonitorexit ->
      ignore (pop_refish "monitor");
      goto_next ()
    | KWait ->
      ignore (pop_refish "wait");
      pushv VInt;
      goto_next ()
    | KTimedwait ->
      pop_int "timedwait millis";
      ignore (pop_refish "timedwait");
      pushv VInt;
      goto_next ()
    | KNotify | KNotifyall ->
      ignore (pop_refish "notify");
      goto_next ()
    | KSpawnstatic callee ->
      pop_args ("spawn " ^ callee.rm_name) callee.rm_args;
      pushv VInt;
      goto_next ()
    | KSpawnvirtual (cid, vslot, _, _) ->
      let callee = vm.methods.((Rt.the_class vm cid).rc_vtable.(vslot)) in
      let rev = Array.copy callee.rm_args in
      rev.(0) <- Bytecode.Instr.Tobj (Rt.the_class vm cid).rc_name;
      pop_args ("spawn " ^ callee.rm_name) rev;
      pushv VInt;
      goto_next ()
    | KSleep ->
      pop_int "sleep";
      goto_next ()
    | KJoin ->
      pop_int "join";
      goto_next ()
    | KInterrupt ->
      pop_int "interrupt";
      goto_next ()
    | KCurrenttime | KReadinput ->
      pushv VInt;
      goto_next ()
    | KNative nid ->
      let nat = vm.natives_by_id.(nid) in
      for _ = 1 to nat.nat_arity do
        pop_int ("native " ^ nat.nat_name)
      done;
      if nat.nat_returns then pushv VInt;
      goto_next ()
    | KPrint ->
      pop_int "print";
      goto_next ()
    | KPrints ->
      ignore
        (pop_want "prints" (VObj string_cid));
      goto_next ()
    | KHalt -> ()
    | KNop -> goto_next ()
    | KYield -> goto_next ());
    if !sp > !max_depth then max_depth := !sp
  done;
  let maps =
    Array.init n (fun pc ->
        match states.(pc) with
        | Some st -> refmap_of_state st
        | None -> empty_refmap nlocals)
  in
  { maps; max_stack = !max_depth }
