(* The method "compiler": lowers a declared method to executable code.

     1. synchronized methods are expanded into explicit monitorenter /
        monitorexit around the body plus a catch-all unlock handler (as javac
        does);
     2. yield points are injected at the method prologue and before every
        backward branch — the Jalapeño discipline that makes preemption,
        GC safe points, and DejaVu's logical clock coincide;
     3. symbolic names are resolved to ids/slots;
     4. the verifier computes reference maps and the operand-stack bound.

   Compilation is charged to the virtual wall clock, so *when* a method gets
   compiled is visible to the environment — one of the cross-optimization
   side effects DejaVu must keep symmetric between record and replay. *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

module I = Bytecode.Instr
module D = Bytecode.Decl

type rewrite_result = {
  rw_code : I.t array;
  rw_map : int array; (* old pc -> new anchor pc (for branch targets) *)
  rw_origin : int array; (* new pc -> old pc *)
}

(* Expand each instruction into a list; [anchor] is the index within the
   expansion that old branch targets should map to. Synthesized instructions
   must not carry branch targets. *)
let rewrite (code : I.t array) ~(f : int -> I.t -> I.t list * int) :
    rewrite_result =
  let n = Array.length code in
  let expansions = Array.init n (fun pc -> f pc code.(pc)) in
  let base = Array.make n 0 in
  let total = ref 0 in
  Array.iteri
    (fun pc (ins, _) ->
      base.(pc) <- !total;
      total := !total + List.length ins)
    expansions;
  let rw_map = Array.init n (fun pc -> base.(pc) + snd expansions.(pc)) in
  let rw_code = Array.make !total I.Nop in
  let rw_origin = Array.make !total 0 in
  Array.iteri
    (fun pc (ins, _) ->
      List.iteri
        (fun k i ->
          let np = base.(pc) + k in
          rw_origin.(np) <- pc;
          rw_code.(np) <-
            (match I.target i with
            | Some t -> I.map_target (fun _ -> rw_map.(t)) i
            | None -> i))
        ins)
    expansions;
  { rw_code; rw_map; rw_origin }

let remap_handlers (map : int array) n_new (hs : D.handler list) =
  List.map
    (fun (h : D.handler) ->
      {
        D.h_from = map.(h.h_from);
        h_upto = (if h.h_upto >= Array.length map then n_new else map.(h.h_upto));
        h_target = map.(h.h_target);
        h_class = h.h_class;
      })
    hs

(* Pass 1: synchronized-method expansion (source to source). Also returns
   the origin map (new pc -> original pc) for debugger source positions. *)
let expand_sync (m : D.mdecl) : D.mdecl * int array =
  if not m.m_sync then
    (m, Array.init (Array.length m.m_code) (fun i -> i))
  else begin
    let { rw_code; rw_map; rw_origin } =
      rewrite m.m_code ~f:(fun pc ins ->
          let pre = if pc = 0 then [ I.Load 0; I.Monitorenter ] else [] in
          let repl =
            match ins with
            | I.Ret -> [ I.Load 0; I.Monitorexit; I.Ret ]
            | I.Retv -> [ I.Load 0; I.Monitorexit; I.Retv ]
            | _ -> [ ins ]
          in
          (pre @ repl, List.length pre))
    in
    let body_len = Array.length rw_code in
    (* epilogue: catch-all handler that unlocks and rethrows *)
    let code =
      Array.append rw_code [| I.Load 0; I.Monitorexit; I.Throw |]
    in
    let handlers =
      remap_handlers rw_map body_len m.m_handlers
      @ [ { D.h_from = 2; h_upto = body_len; h_target = body_len; h_class = None } ]
    in
    let lines =
      List.map (fun (pc, ln) -> (rw_map.(pc), ln)) m.m_lines
    in
    let last_src = max 0 (Array.length m.m_code - 1) in
    let origin =
      Array.init (Array.length code) (fun pc ->
          if pc < body_len then rw_origin.(pc) else last_src)
    in
    ( { m with m_code = code; m_handlers = handlers; m_lines = lines; m_sync = false },
      origin )
  end

(* Pass 2: yield-point injection (source to source). A yield point goes at
   the prologue and immediately before every backward branch. *)
let inject_yieldpoints (m : D.mdecl) : D.mdecl * int array =
  let { rw_code; rw_map; rw_origin } =
    rewrite m.m_code ~f:(fun pc ins ->
        let backward =
          match I.target ins with Some t -> t <= pc | None -> false
        in
        let pre = if pc = 0 then [ I.Yieldpoint ] else [] in
        let pre = if backward then pre @ [ I.Yieldpoint ] else pre in
        let anchor = List.length pre in
        (pre @ [ ins ], anchor))
  in
  let handlers = remap_handlers rw_map (Array.length rw_code) m.m_handlers in
  let lines = List.map (fun (pc, ln) -> (rw_map.(pc), ln)) m.m_lines in
  ({ m with m_code = rw_code; m_handlers = handlers; m_lines = lines }, rw_origin)

(* Name resolution helpers. *)
let resolve_static_field (vm : Rt.t) cname fname =
  let rec go cid =
    if cid < 0 then error "unresolved static %s.%s" cname fname
    else
      let c = vm.classes.(cid) in
      let found = ref (-1) in
      Array.iteri (fun i (n, _) -> if n = fname then found := i) c.rc_statics;
      if !found >= 0 then
        (cid, c.rc_statics_base + !found, snd c.rc_statics.(!found))
      else go c.rc_super
  in
  go (Rt.class_id vm cname)

let resolve_method (vm : Rt.t) cname mname =
  let rec go cid =
    if cid < 0 then error "unresolved method %s.%s" cname mname
    else
      let c = vm.classes.(cid) in
      match Hashtbl.find_opt c.rc_method_of mname with
      | Some uid -> vm.methods.(uid)
      | None -> go c.rc_super
  in
  go (Rt.class_id vm cname)

let resolve_call (vm : Rt.t) cname mname =
  let m = resolve_method vm cname mname in
  if m.rm_static then `Static m.uid
  else
    let cid = Rt.class_id vm cname in
    match Hashtbl.find_opt vm.classes.(cid).rc_vslot_of mname with
    | Some slot -> `Virtual (cid, slot, m.rm_nargs)
    | None -> error "no vtable slot for %s.%s" cname mname

(* Pass 3: 1:1 lowering to resolved instructions. *)
let lower (vm : Rt.t) (owner : Rt.rclass) (ins : I.t) : Rt.cinstr =
  match ins with
  | I.Const n -> KConst n
  | I.Sconst s ->
    let idx = ref (-1) in
    Array.iteri (fun i l -> if l = s then idx := i) owner.rc_string_lits;
    if !idx < 0 then error "string literal not in pool: %S" s;
    KStr (owner, !idx)
  | I.Null -> KNull
  | I.Load i -> KLoad i
  | I.Store i -> KStore i
  | I.Dup -> KDup
  | I.Pop -> KPop
  | I.Swap -> KSwap
  | I.Add -> KBin Badd
  | I.Sub -> KBin Bsub
  | I.Mul -> KBin Bmul
  | I.Div -> KBin Bdiv
  | I.Rem -> KBin Brem
  | I.Neg -> KNeg
  | I.Band -> KBin Band
  | I.Bor -> KBin Bor
  | I.Bxor -> KBin Bxor
  | I.Shl -> KBin Bshl
  | I.Shr -> KBin Bshr
  | I.If (c, t) -> KIf (c, t)
  | I.Ifz (c, t) -> KIfz (c, t)
  | I.Ifnull t -> KIfnull t
  | I.Ifnonnull t -> KIfnonnull t
  | I.Ifrefeq t -> KIfrefeq t
  | I.Ifrefne t -> KIfrefne t
  | I.Goto t -> KGoto t
  | I.New cname -> KNew (Rt.class_id vm cname)
  | I.Getfield (cname, fname) ->
    let c = vm.classes.(Rt.class_id vm cname) in
    (match Hashtbl.find_opt c.rc_field_index fname with
    | Some idx ->
      KGetfield (Layout.header_words + idx, snd c.rc_fields.(idx))
    | None -> error "unresolved field %s.%s" cname fname)
  | I.Putfield (cname, fname) ->
    let c = vm.classes.(Rt.class_id vm cname) in
    (match Hashtbl.find_opt c.rc_field_index fname with
    | Some idx ->
      KPutfield (Layout.header_words + idx, snd c.rc_fields.(idx))
    | None -> error "unresolved field %s.%s" cname fname)
  | I.Getstatic (cname, fname) ->
    let cid, slot, ty = resolve_static_field vm cname fname in
    KGetstatic (cid, slot, ty)
  | I.Putstatic (cname, fname) ->
    let cid, slot, ty = resolve_static_field vm cname fname in
    KPutstatic (cid, slot, ty)
  | I.Newarray ty -> KNewarray ty
  | I.Aload -> KAload
  | I.Astore -> KAstore
  | I.Arraylength -> KArraylength
  | I.Checkcast cname -> KCheckcast (Rt.class_id vm cname)
  | I.Instanceof cname -> KInstanceof (Rt.class_id vm cname)
  | I.Invoke (cname, mname) -> (
    match resolve_call vm cname mname with
    | `Static uid -> KInvokestatic vm.methods.(uid)
    | `Virtual (cid, slot, nargs) -> KInvokevirtual (cid, slot, nargs))
  | I.Ret -> KRet
  | I.Retv -> KRetv
  | I.Throw -> KThrow
  | I.Monitorenter -> KMonitorenter
  | I.Monitorexit -> KMonitorexit
  | I.Wait -> KWait
  | I.Timedwait -> KTimedwait
  | I.Notify -> KNotify
  | I.Notifyall -> KNotifyall
  | I.Spawn (cname, mname) -> (
    match resolve_call vm cname mname with
    | `Static uid -> KSpawnstatic vm.methods.(uid)
    | `Virtual (cid, slot, nargs) -> KSpawnvirtual (cid, slot, nargs))
  | I.Sleep -> KSleep
  | I.Join -> KJoin
  | I.Interrupt -> KInterrupt
  | I.Currenttime -> KCurrenttime
  | I.Readinput -> KReadinput
  | I.Nativecall name -> (
    match Hashtbl.find_opt vm.native_id_of name with
    | Some id -> KNative id
    | None -> error "unregistered native %S" name)
  | I.Print -> KPrint
  | I.Prints -> KPrints
  | I.Halt -> KHalt
  | I.Nop -> KNop
  | I.Yieldpoint -> KYield

let resolve_catch vm = function
  | None -> -1
  | Some cname -> Rt.class_id vm cname

(* Passes 1-4 plus the register-IR lowering: a method's executable body. *)
let build (vm : Rt.t) (m : Rt.rmethod) : Rt.compiled =
  let owner = vm.classes.(m.rm_cid) in
  let src, origin_a = expand_sync m.rm_decl in
  let src, origin_b = inject_yieldpoints src in
  let origin = Array.map (fun p -> origin_a.(p)) origin_b in
  let code = Array.map (lower vm owner) src.m_code in
  let handlers =
    Array.of_list
      (List.map
         (fun (h : D.handler) ->
           {
             Rt.k_from = h.h_from;
             k_upto = h.h_upto;
             k_target = h.h_target;
             k_catch = resolve_catch vm h.h_class;
           })
         src.m_handlers)
  in
  let { Verify.maps; max_stack } = Verify.verify vm m code handlers in
  (* register-IR lowering runs on the verified canonical stream;
     the region table is a sidecar indexed by entry pc, so with regir
     off every pc simply stays on the stack tier *)
  let regions =
    if vm.cfg.regir then begin
      try Regir.lower ~nlocals:m.rm_nlocals ~max_stack code handlers maps
      with Regir.Error msg -> error "regir: %s" msg
    end
    else Array.make (Array.length code) None
  in
  {
    Rt.k_code = code;
    k_regions = regions;
    k_handlers = handlers;
    k_maps = maps;
    k_max_stack = max_stack;
    k_src_pc = origin;
    k_lines = Array.of_list src.m_lines;
  }

(* Compile a method: returns the compiled body and charges the clock. A
   body is a pure function of the method and this VM's linked image, so
   after a snapshot rollback the method gets back the body it had
   ([rm_cache]) without being rebuilt; the clock charge and the counter,
   the compiler's only VM-visible effects, are paid again as a cold
   compile pays them. *)
let compile (vm : Rt.t) (m : Rt.rmethod) : Rt.compiled =
  match m.rm_compiled with
  | Some c -> c
  | None ->
    let compiled = match m.rm_cache with Some c -> c | None -> build vm m in
    m.rm_compiled <- Some compiled;
    m.rm_cache <- m.rm_compiled;
    vm.stats.n_compiled_methods <- vm.stats.n_compiled_methods + 1;
    Env.charge vm.env
      (Array.length compiled.k_code * vm.env.cfg.compile_cost);
    compiled
