(* Human-readable listings of COMPILED code — the kinstr stream the
   interpreter actually executes, as opposed to Bytecode.Disasm's listings
   of source bytecode. The compiled stream differs from the source in ways
   that matter when debugging the dispatch pipeline: monitorenter/exit
   wrapping from sync expansion, injected yield points, pre-resolved
   callees. The listing shows the canonical stream the stack tier runs,
   followed by the register regions the loop runs where they start;
   injected yield points are marked so safe-point placement can be read
   off the listing. *)

let string_of_bin : Rt.bin -> string = function
  | Badd -> "add"
  | Bsub -> "sub"
  | Bmul -> "mul"
  | Bdiv -> "div"
  | Brem -> "rem"
  | Band -> "and"
  | Bor -> "or"
  | Bxor -> "xor"
  | Bshl -> "shl"
  | Bshr -> "shr"

let cmp = Bytecode.Instr.string_of_cmp

let ty = Bytecode.Instr.string_of_ty

(* Resolve names through the runtime: class ids, vtable slots, and callee
   uids all print as the entities they denote; a virtual site names the
   method its declaring class's vtable holds in the slot. *)
let pp_cinstr (vm : Rt.t) ppf (ins : Rt.cinstr) =
  let cname cid = (Rt.the_class vm cid).Rt.rc_name in
  let qual (m : Rt.rmethod) = cname m.rm_cid ^ "." ^ m.rm_name in
  match ins with
  | KConst n -> Fmt.pf ppf "const %d" n
  | KStr (owner, idx) -> Fmt.pf ppf "str %s[%d]" owner.rc_name idx
  | KNull -> Fmt.string ppf "null"
  | KLoad i -> Fmt.pf ppf "load l%d" i
  | KStore i -> Fmt.pf ppf "store l%d" i
  | KDup -> Fmt.string ppf "dup"
  | KPop -> Fmt.string ppf "pop"
  | KSwap -> Fmt.string ppf "swap"
  | KBin op -> Fmt.pf ppf "bin %s" (string_of_bin op)
  | KNeg -> Fmt.string ppf "neg"
  | KIf (c, t) -> Fmt.pf ppf "if%s -> %d" (cmp c) t
  | KIfz (c, t) -> Fmt.pf ppf "ifz%s -> %d" (cmp c) t
  | KIfnull t -> Fmt.pf ppf "ifnull -> %d" t
  | KIfnonnull t -> Fmt.pf ppf "ifnonnull -> %d" t
  | KIfrefeq t -> Fmt.pf ppf "ifrefeq -> %d" t
  | KIfrefne t -> Fmt.pf ppf "ifrefne -> %d" t
  | KGoto t -> Fmt.pf ppf "goto %d" t
  | KNew cid -> Fmt.pf ppf "new %s" (cname cid)
  | KGetfield (slot, fty) -> Fmt.pf ppf "getfield +%d :%s" slot (ty fty)
  | KPutfield (slot, fty) -> Fmt.pf ppf "putfield +%d :%s" slot (ty fty)
  | KGetstatic (cid, g, fty) ->
    Fmt.pf ppf "getstatic %s g%d :%s" (cname cid) g (ty fty)
  | KPutstatic (cid, g, fty) ->
    Fmt.pf ppf "putstatic %s g%d :%s" (cname cid) g (ty fty)
  | KNewarray elt -> Fmt.pf ppf "newarray %s" (ty elt)
  | KAload -> Fmt.string ppf "aload"
  | KAstore -> Fmt.string ppf "astore"
  | KArraylength -> Fmt.string ppf "arraylength"
  | KCheckcast cid -> Fmt.pf ppf "checkcast %s" (cname cid)
  | KInstanceof cid -> Fmt.pf ppf "instanceof %s" (cname cid)
  | KInvokestatic m -> Fmt.pf ppf "invokestatic %s" (qual m)
  | KInvokevirtual (cid, vslot, nargs) ->
    Fmt.pf ppf "invokevirtual %s/%d"
      (qual (Rt.virtual_target vm cid vslot))
      nargs
  | KRet -> Fmt.string ppf "ret"
  | KRetv -> Fmt.string ppf "retv"
  | KThrow -> Fmt.string ppf "throw"
  | KMonitorenter -> Fmt.string ppf "monitorenter"
  | KMonitorexit -> Fmt.string ppf "monitorexit"
  | KWait -> Fmt.string ppf "wait"
  | KTimedwait -> Fmt.string ppf "timedwait"
  | KNotify -> Fmt.string ppf "notify"
  | KNotifyall -> Fmt.string ppf "notifyall"
  | KSpawnstatic m -> Fmt.pf ppf "spawnstatic %s" (qual m)
  | KSpawnvirtual (cid, vslot, nargs) ->
    Fmt.pf ppf "spawnvirtual %s/%d"
      (qual (Rt.virtual_target vm cid vslot))
      nargs
  | KSleep -> Fmt.string ppf "sleep"
  | KJoin -> Fmt.string ppf "join"
  | KInterrupt -> Fmt.string ppf "interrupt"
  | KCurrenttime -> Fmt.string ppf "currenttime"
  | KReadinput -> Fmt.string ppf "readinput"
  | KNative id -> Fmt.pf ppf "native #%d" id
  | KPrint -> Fmt.string ppf "print"
  | KPrints -> Fmt.string ppf "prints"
  | KHalt -> Fmt.string ppf "halt"
  | KNop -> Fmt.string ppf "nop"
  | KYield -> Fmt.string ppf "yield"

(* One register op. Slots print as [r<i>] (locals first, then operand
   stack); risky/terminal ops show their canonical fault pc as [@<pc>]. *)
let pp_rop (vm : Rt.t) ppf (op : Rt.rop) =
  let cname cid = (Rt.the_class vm cid).Rt.rc_name in
  let qual (m : Rt.rmethod) = cname m.rm_cid ^ "." ^ m.rm_name in
  match op with
  | Rt.RTick n -> Fmt.pf ppf "tick %d" n
  | Rt.RConst (d, v) -> Fmt.pf ppf "r%d := %d" d v
  | Rt.RMove (d, s) -> Fmt.pf ppf "r%d := r%d" d s
  | Rt.RStr (d, owner, idx) ->
    Fmt.pf ppf "r%d := str %s[%d]" d owner.Rt.rc_name idx
  | Rt.RBin (op, d, a, b) ->
    Fmt.pf ppf "r%d := %s r%d r%d" d (string_of_bin op) a b
  | Rt.RBinC (op, d, a, c) ->
    Fmt.pf ppf "r%d := %s r%d #%d" d (string_of_bin op) a c
  | Rt.RBinCL (op, d, c, b) ->
    Fmt.pf ppf "r%d := %s #%d r%d" d (string_of_bin op) c b
  | Rt.RNeg (d, s) -> Fmt.pf ppf "r%d := neg r%d" d s
  | Rt.RSwapMem (a, b) -> Fmt.pf ppf "swap r%d r%d" a b
  | Rt.RInstanceof (d, cid, s) ->
    Fmt.pf ppf "r%d := instanceof %s r%d" d (cname cid) s
  | Rt.RPrint s -> Fmt.pf ppf "print r%d" s
  | Rt.RDivRem (op, pc, d) ->
    Fmt.pf ppf "r%d := %s r%d r%d  @%d" d (string_of_bin op) d (d + 1) pc
  | Rt.RGetfield (slot, pc, os) ->
    Fmt.pf ppf "r%d := getfield r%d +%d  @%d" os os slot pc
  | Rt.RPutfield (slot, pc, os) ->
    Fmt.pf ppf "putfield r%d +%d := r%d  @%d" os slot (os + 1) pc
  | Rt.RGetstatic (cid, g, pc, d) ->
    Fmt.pf ppf "r%d := getstatic %s g%d  @%d" d (cname cid) g pc
  | Rt.RPutstatic (cid, g, pc, vs) ->
    Fmt.pf ppf "putstatic %s g%d := r%d  @%d" (cname cid) g vs pc
  | Rt.RNewobj (cid, pc, d) ->
    Fmt.pf ppf "r%d := new %s  @%d" d (cname cid) pc
  | Rt.RNewarray (elem_ref, pc, ls) ->
    Fmt.pf ppf "r%d := newarray%s len=r%d  @%d" ls
      (if elem_ref then " ref" else "")
      ls pc
  | Rt.RAload (pc, a) -> Fmt.pf ppf "r%d := aload r%d[r%d]  @%d" a a (a + 1) pc
  | Rt.RAstore (pc, a) ->
    Fmt.pf ppf "astore r%d[r%d] := r%d  @%d" a (a + 1) (a + 2) pc
  | Rt.RArraylength (pc, a) ->
    Fmt.pf ppf "r%d := arraylength r%d  @%d" a a pc
  | Rt.RCheckcast (cid, pc, o) ->
    Fmt.pf ppf "checkcast %s r%d  @%d" (cname cid) o pc
  | Rt.RPrints (pc, s) -> Fmt.pf ppf "prints r%d  @%d" s pc
  | Rt.RYield (npc, ss) -> Fmt.pf ppf "yield -> %d sp=r%d" npc ss
  | Rt.RMonEnter (npc, os) ->
    Fmt.pf ppf "monenter r%d -> %d  @%d" os npc (npc - 1)
  | Rt.RMonExit (npc, os) ->
    Fmt.pf ppf "monexit r%d -> %d  @%d" os npc (npc - 1)
  | Rt.RIf (c, target, fall, a) ->
    Fmt.pf ppf "if r%d %s r%d -> %d else %d" a (cmp c) (a + 1) target fall
  | Rt.RIfz (c, target, fall, a) ->
    Fmt.pf ppf "ifz r%d %s -> %d else %d" a (cmp c) target fall
  | Rt.RGoto (target, ss) -> Fmt.pf ppf "goto %d sp=r%d" target ss
  | Rt.RRet (pc, ss) -> Fmt.pf ppf "ret sp=r%d  @%d" ss pc
  | Rt.RRetv (pc, vs) -> Fmt.pf ppf "retv r%d  @%d" vs pc
  | Rt.RCallStatic (callee, pc, ss) ->
    Fmt.pf ppf "call %s sp=r%d  @%d" (qual callee) ss pc
  | Rt.RCallVirtual (cid, vslot, nargs, pc, ss) ->
    Fmt.pf ppf "callv %s/%d sp=r%d  @%d"
      (qual (Rt.virtual_target vm cid vslot))
      nargs ss pc
  | Rt.REnd (next_pc, ss) -> Fmt.pf ppf "end -> %d sp=r%d" next_pc ss

(* One compiled method: the canonical stream, pc by pc, with [; yp]
   tagging injected yield points and the src column mapping each compiled
   pc back to the source-bytecode pc. Register regions follow the
   instruction stream: each prints its entry pc, the canonical instruction
   count it covers, and its register ops. *)
let pp_compiled (vm : Rt.t) ppf (m : Rt.rmethod) =
  let c = Rt.compiled m in
  let n = Array.length c.k_code in
  let n_yp = ref 0 in
  Array.iter (function Rt.KYield -> incr n_yp | _ -> ()) c.k_code;
  let n_regions =
    Array.fold_left
      (fun acc r -> match r with Some _ -> acc + 1 | None -> acc)
      0 c.k_regions
  in
  Fmt.pf ppf
    "@[<v 2>compiled %s.%s (uid %d): %d instrs, %d yp, %d regions@,"
    (Rt.the_class vm m.rm_cid).rc_name
    m.rm_name m.uid n !n_yp n_regions;
  Array.iteri
    (fun pc ins ->
      Fmt.pf ppf "%4d %4d  %a%s@," pc c.k_src_pc.(pc) (pp_cinstr vm) ins
        (match ins with Rt.KYield -> "  ; yp" | _ -> ""))
    c.k_code;
  Array.iter
    (fun (h : Rt.rhandler) ->
      Fmt.pf ppf "  catch%s [%d,%d) -> %d@,"
        (if h.k_catch < 0 then " *"
         else " " ^ (Rt.the_class vm h.k_catch).rc_name)
        h.k_from h.k_upto h.k_target)
    c.k_handlers;
  Array.iteri
    (fun pc r ->
      match r with
      | None -> ()
      | Some (r : Rt.region) ->
        Fmt.pf ppf "@[<v 2>region @%d (%d instrs, %d ops):@," pc r.Rt.r_n
          (Array.length r.Rt.r_ops);
        Array.iter (fun op -> Fmt.pf ppf "%a@," (pp_rop vm) op) r.Rt.r_ops;
        Fmt.pf ppf "@]@,")
    c.k_regions;
  Fmt.pf ppf "@]"
