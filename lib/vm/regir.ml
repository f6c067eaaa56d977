(* Register-IR lowering: the post-verify compile tier.

   Verified stack bytecode is translated, per method, into straight-line
   *regions* of register operations ([Rt.rop]) whose operands are explicit
   frame slots. A region starts at any pc the stack tier could branch to
   (entry, barrier) and extends until the next barrier, excluded
   instruction, or terminal (branch / call / return); it is executed by
   [Interp.exec_region] from the dispatch loop, observed or not.

   Parity with the stack tier (DESIGN.md section 7) rests on four
   invariants:

   - canonical pc numbering, branch targets, handler ranges, reference
     maps, and yield-point placement are untouched ([k_code] stays the
     source of truth; regions are a sidecar indexed by entry pc);
   - every instruction still pays one logical-clock tick, batched per
     *segment* (a maximal fault-free prefix) through [Env.tick_batch],
     which draws the identical PRNG stream; a segment covers the pcs
     after the previous segment's final op (which carries its pc), so
     [Interp.tick_segment] can name the instructions each tick pays for;
   - every canonical operand-stack WRITE is materialized — the state
     digest hashes dead stack slots — except when a later write in the
     same fault-free segment overwrites the slot before any possible
     observation point (fault, allocation, hook, region exit). The
     backward liveness pass below treats segment ends as all-slots-live,
     so memory is bit-identical to the stack tier at every point where
     anything could look;
   - instructions that can fault, allocate, or run heap hooks carry their
     canonical pc and fault-time sp and store both before their effect, so
     exception unwinding, GC stack scans, and hooks see exactly the frame
     the stack tier would have shown them.

   Only instructions that are frequent and cheap get a dedicated op —
   constants, moves, binops, field/static/array access, yields, monitor
   ops, print, branches — because there the stack tier's push/pop and
   call overhead would show. The rest (str, neg, swap, instanceof, new,
   newarray, arraylength, checkcast, prints, calls, returns) are rare in
   the measured mix or do far more work than a dispatch costs, so each
   lowers to an [RInstr] that ends its segment and runs the instruction
   through [Interp.dispatch]: one executor per instruction (DESIGN.md
   section 10 has the numbers). A call or return is always its region's
   last op.

   Copy propagation tracks, per slot, whether its current value is a known
   constant or a copy of another slot; pure operands read through it (and
   fold) while risky/terminal operands always read their canonical stack
   slots, which the all-live barrier guarantees are materialized. *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type klass = Pure | Risky | Terminal | Excluded

(* Pure: cannot fault, allocate, or run hooks — freely reorderable within
   a segment. Risky: segment-final, observable mid-instruction. Terminal:
   region-final control transfer. Everything else (waits, spawns, natives,
   halts) is excluded and dispatched canonically. *)
let classify (ins : Rt.cinstr) : klass =
  match ins with
  | KConst _ | KNull | KLoad _ | KStore _ | KDup | KPop | KPrint | KNop -> Pure
  | KBin (Bdiv | Brem) -> Risky
  | KBin _ -> Pure
  | KGetfield _ | KPutfield _ | KGetstatic _ | KPutstatic _ | KAload
  | KAstore ->
    Risky
  (* Run through [RInstr]: the stack tier's own dispatch, at a segment end *)
  | KStr _ | KNeg | KSwap | KInstanceof _ | KNew _ | KNewarray _
  | KArraylength | KCheckcast _ | KPrints ->
    Risky
  (* Monitor ops are segment-final like yields: [Sched] may park the
     thread (contended enter) or raise (exit without ownership), and both
     need canonical frames. On the uncontended fast path nothing switches
     and nothing touches the frame, so the region continues — this is
     what lets a region span a whole synchronized block. *)
  | KMonitorenter | KMonitorexit -> Risky
  (* Yield points are segment-final like risky ops (the preemption bit the
     hook reads must reflect exactly the ticks paid so far), but the region
     continues past them: the interpreter bails out only when the hook
     actually switches threads. This is what lets a region span a whole
     loop iteration — the injected yield before the backward branch no
     longer forces a round-trip through the outer dispatch loop. *)
  | KYield -> Risky
  | KIf _ | KIfz _ | KIfnull _ | KIfnonnull _ | KIfrefeq _ | KIfrefne _
  | KGoto _ | KRet | KRetv | KInvokestatic _ | KInvokevirtual _ ->
    Terminal
  | _ -> Excluded

(* The instructions a region runs through [RInstr]: rare in the measured
   mix, or (calls, returns, allocation) doing far more work than a trip
   through dispatch costs. *)
let delegated (ins : Rt.cinstr) =
  match ins with
  | KStr _ | KNeg | KSwap | KInstanceof _ | KNew _ | KNewarray _
  | KArraylength | KCheckcast _ | KPrints | KRet | KRetv | KInvokestatic _
  | KInvokevirtual _ ->
    true
  | _ -> false

(* Region barriers: branch targets and exception-handler boundaries. *)
let barriers (code : Rt.cinstr array) (handlers : Rt.rhandler array) =
  let n = Array.length code in
  let barrier = Array.make (n + 1) false in
  let mark t = if t >= 0 && t <= n then barrier.(t) <- true in
  Array.iter
    (fun ins ->
      match Rt.target_of_cinstr ins with Some t -> mark t | None -> ())
    code;
  Array.iter
    (fun (h : Rt.rhandler) ->
      mark h.k_from;
      mark h.k_upto;
      mark h.k_target)
    handlers;
  barrier

(* Copy-propagation value: what a slot currently holds. [Slot i] at index
   i means "only the slot itself" (no better source known). *)
type src = Const of int | Slot of int

(* Pending write record for the current fault-free run: the op to emit,
   the slots it writes, and the physical slots it reads at execution
   time. *)
type wrec = { w_op : Rt.rop; w_dsts : int list; w_srcs : int list }

(* Constant folding for the non-faulting binops (div/rem are Risky). *)
let eval_bin (op : Rt.bin) a b =
  match op with
  | Rt.Badd -> a + b
  | Rt.Bsub -> a - b
  | Rt.Bmul -> a * b
  | Rt.Band -> a land b
  | Rt.Bor -> a lor b
  | Rt.Bxor -> a lxor b
  | Rt.Bshl -> a lsl (b land 63)
  | Rt.Bshr -> a asr (b land 63)
  | Rt.Bdiv | Rt.Brem -> assert false

exception Abort

(* Lower one region covering [start..last] (inclusive). Returns [None] on
   any internal inconsistency (e.g. unreachable code whose reference maps
   do not match the simulated depth): the pcs then simply stay on the
   stack tier. *)
let lower_region ~nlocals ~nslots (code : Rt.cinstr array)
    (maps : Rt.refmap array) ~start ~last : Rt.rop array option =
  let avail = Array.init nslots (fun i -> Slot i) in
  let resolve s = avail.(s) in
  (* slot [w] is about to change value: entries equal to its value by way
     of [Slot w] fall back to their own memory (always safe — liveness
     keeps any write that is read) *)
  let kill w =
    for i = 0 to nslots - 1 do
      match avail.(i) with
      | Slot s when s = w && i <> w -> avail.(i) <- Slot i
      | _ -> ()
    done
  in
  let recs = ref [] in
  (* reversed: head = latest *)
  let ops = ref [] in
  (* reversed *)
  let seg = ref 0 in
  (* write [dst := rhs]; skipped when the slot provably already holds the
     value (same-value stores are invisible to the digest) *)
  let emit_write dst rhs ~op ~srcs =
    let same =
      match rhs with Slot s when s = dst -> true | _ -> rhs = avail.(dst)
    in
    if not same then begin
      kill dst;
      recs := { w_op = op; w_dsts = [ dst ]; w_srcs = srcs } :: !recs;
      avail.(dst) <- rhs
    end
  in
  (* write [dst] with a value only known at run time *)
  let emit_self dst op ~srcs =
    kill dst;
    recs := { w_op = op; w_dsts = [ dst ]; w_srcs = srcs } :: !recs;
    avail.(dst) <- Slot dst
  in
  let emit_effect op ~srcs =
    recs := { w_op = op; w_dsts = []; w_srcs = srcs } :: !recs
  in
  (* a risky op writes [dst] at run time *)
  let clobber dst =
    kill dst;
    avail.(dst) <- Slot dst
  in
  (* end the current segment: backward liveness over the pending pure
     writes with everything live at the barrier, then RTick + kept writes
     + the final op *)
  let flush final =
    let live = Array.make nslots true in
    let kept =
      List.filter
        (fun w ->
          let keep =
            w.w_dsts = [] || List.exists (fun d -> live.(d)) w.w_dsts
          in
          if keep then begin
            List.iter (fun d -> live.(d) <- false) w.w_dsts;
            List.iter (fun s -> live.(s) <- true) w.w_srcs
          end;
          keep)
        !recs
    in
    recs := [];
    if !seg > 0 then ops := Rt.RTick !seg :: !ops;
    List.iter (fun w -> ops := w.w_op :: !ops) (List.rev kept);
    (match final with Some f -> ops := f :: !ops | None -> ());
    seg := 0
  in
  let depth = ref maps.(start).Rt.map_depth in
  try
    for p = start to last do
      if maps.(p).Rt.map_depth <> !depth then raise Abort;
      if !depth < 0 || nlocals + !depth > nslots then raise Abort;
      incr seg;
      (* slot k-th from the top of the operand stack; [sl 0] = first free.
         Verified *reachable* code never steps outside the frame, but the
         verifier also maps unreachable pcs, whose depths can be anything
         — lowering must stay total, so any out-of-range slot aborts the
         region instead of trusting the map. *)
      let sl k =
        let s = nlocals + !depth - k in
        if s < 0 || s >= nslots then raise Abort;
        s
      in
      (* sp-valued operand: one past the top slot is in range *)
      let spv k =
        let s = nlocals + !depth - k in
        if s < 0 || s > nslots then raise Abort;
        s
      in
      (* end the segment at an [RInstr]: dispatch pops [pops] slots and
         pushes [pushes], whose values only the run knows *)
      let instr ~pops ~pushes =
        ignore (sl pops);
        flush (Some (Rt.RInstr (p, spv 0)));
        depth := !depth - pops;
        for _ = 1 to pushes do
          clobber (sl 0);
          incr depth
        done
      in
      (match code.(p) with
      (* --- pure ------------------------------------------------------ *)
      | Rt.KConst n ->
        emit_write (sl 0) (Const n) ~op:(Rt.RConst (sl 0, n)) ~srcs:[];
        incr depth
      | Rt.KNull ->
        emit_write (sl 0) (Const 0) ~op:(Rt.RConst (sl 0, 0)) ~srcs:[];
        incr depth
      | Rt.KLoad i ->
        if i < 0 || i >= nslots then raise Abort;
        let dst = sl 0 in
        (match resolve i with
        | Const c -> emit_write dst (Const c) ~op:(Rt.RConst (dst, c)) ~srcs:[]
        | Slot s -> emit_write dst (Slot s) ~op:(Rt.RMove (dst, s)) ~srcs:[ s ]);
        incr depth
      | Rt.KStore i ->
        if i < 0 || i >= nslots then raise Abort;
        (match resolve (sl 1) with
        | Const c -> emit_write i (Const c) ~op:(Rt.RConst (i, c)) ~srcs:[]
        | Slot s -> emit_write i (Slot s) ~op:(Rt.RMove (i, s)) ~srcs:[ s ]);
        decr depth
      | Rt.KDup ->
        let dst = sl 0 in
        (match resolve (sl 1) with
        | Const c -> emit_write dst (Const c) ~op:(Rt.RConst (dst, c)) ~srcs:[]
        | Slot s -> emit_write dst (Slot s) ~op:(Rt.RMove (dst, s)) ~srcs:[ s ]);
        incr depth
      | Rt.KPop -> decr depth
      | Rt.KBin ((Rt.Bdiv | Rt.Brem) as op) ->
        (* risky: division can fault *)
        ignore (sl 1);
        let dst = sl 2 in
        flush (Some (Rt.RDivRem (op, p, dst)));
        clobber dst;
        decr depth
      | Rt.KBin op ->
        let b = resolve (sl 1) and a = resolve (sl 2) in
        let dst = sl 2 in
        (match (a, b) with
        | Const x, Const y ->
          let v = eval_bin op x y in
          emit_write dst (Const v) ~op:(Rt.RConst (dst, v)) ~srcs:[]
        | Slot s, Const y -> emit_self dst (Rt.RBinC (op, dst, s, y)) ~srcs:[ s ]
        | Const x, Slot s -> emit_self dst (Rt.RBinCL (op, dst, x, s)) ~srcs:[ s ]
        | Slot sa, Slot sb ->
          emit_self dst (Rt.RBin (op, dst, sa, sb)) ~srcs:[ sa; sb ]);
        decr depth
      | Rt.KPrint ->
        emit_effect (Rt.RPrint (sl 1)) ~srcs:[ sl 1 ];
        decr depth
      | Rt.KNop -> ()
      (* --- risky ------------------------------------------------------ *)
      | Rt.KGetfield (slot, _) ->
        let os = sl 1 in
        flush (Some (Rt.RGetfield (slot, p, os)));
        clobber os
      | Rt.KPutfield (slot, _) ->
        ignore (sl 1);
        flush (Some (Rt.RPutfield (slot, p, sl 2)));
        depth := !depth - 2
      | Rt.KGetstatic (cid, g, _) ->
        let dst = sl 0 in
        flush (Some (Rt.RGetstatic (cid, g, p, dst)));
        clobber dst;
        incr depth
      | Rt.KPutstatic (cid, g, _) ->
        flush (Some (Rt.RPutstatic (cid, g, p, sl 1)));
        decr depth
      | Rt.KAload ->
        ignore (sl 1);
        let dst = sl 2 in
        flush (Some (Rt.RAload (p, dst)));
        clobber dst;
        decr depth
      | Rt.KAstore ->
        ignore (sl 1);
        flush (Some (Rt.RAstore (p, sl 3)));
        depth := !depth - 3
      | Rt.KYield ->
        (* full barrier: the hook may switch threads, and a canonical
           resume at p + 1 must find every slot materialized. [avail]
           survives — if no switch happens nothing has touched the frame,
           and if one does the rest of the region never runs. *)
        flush (Some (Rt.RYield (p + 1, spv 0)))
      | Rt.KMonitorenter ->
        (* same barrier discipline as a yield: contention parks the
           thread, so every slot must be canonical; the uncontended path
           leaves the frame untouched and [avail] survives *)
        flush (Some (Rt.RMonEnter (p + 1, sl 1)));
        decr depth
      | Rt.KMonitorexit ->
        flush (Some (Rt.RMonExit (p + 1, sl 1)));
        decr depth
      (* --- terminals -------------------------------------------------- *)
      | Rt.KIf (c, tgt) ->
        ignore (sl 1);
        flush (Some (Rt.RIf (c, tgt, p + 1, sl 2)));
        depth := !depth - 2
      | Rt.KIfz (c, tgt) ->
        flush (Some (Rt.RIfz (c, tgt, p + 1, sl 1)));
        decr depth
      | Rt.KIfnull tgt ->
        flush (Some (Rt.RIfz (Bytecode.Instr.Eq, tgt, p + 1, sl 1)));
        decr depth
      | Rt.KIfnonnull tgt ->
        flush (Some (Rt.RIfz (Bytecode.Instr.Ne, tgt, p + 1, sl 1)));
        decr depth
      | Rt.KIfrefeq tgt ->
        ignore (sl 1);
        flush (Some (Rt.RIf (Bytecode.Instr.Eq, tgt, p + 1, sl 2)));
        depth := !depth - 2
      | Rt.KIfrefne tgt ->
        ignore (sl 1);
        flush (Some (Rt.RIf (Bytecode.Instr.Ne, tgt, p + 1, sl 2)));
        depth := !depth - 2
      | Rt.KGoto tgt -> flush (Some (Rt.RGoto (tgt, spv 0)))
      (* --- through the stack tier's dispatch -------------------------- *)
      | Rt.KStr _ | Rt.KNew _ -> instr ~pops:0 ~pushes:1
      | Rt.KNeg | Rt.KInstanceof _ | Rt.KNewarray _ | Rt.KArraylength
      | Rt.KCheckcast _ ->
        instr ~pops:1 ~pushes:1
      | Rt.KSwap -> instr ~pops:2 ~pushes:2
      | Rt.KPrints -> instr ~pops:1 ~pushes:0
      (* a call or return changes the frame: always the region's last op *)
      | Rt.KRet | Rt.KRetv | Rt.KInvokestatic _ | Rt.KInvokevirtual _ ->
        flush (Some (Rt.RInstr (p, spv 0)))
      | _ -> raise Abort)
    done;
    (* fall-through exit unless a terminal already stored pc/sp *)
    (match classify code.(last) with
    | Terminal -> ()
    | _ ->
      let ss = nlocals + !depth in
      if ss < 0 || ss > nslots then raise Abort;
      flush (Some (Rt.REnd (last + 1, ss))));
    Some (Array.of_list (List.rev !ops))
  with Abort -> None

(* Greedy region construction: walk the code, open a region at every
   includable pc, extend to the next barrier / excluded instruction /
   terminal, and keep it when it covers at least two instructions. A call
   always ends its region, so the call's return pc is a fresh scan start
   and the code after the call opens a region of its own. *)
let lower ~nlocals ~max_stack (code : Rt.cinstr array)
    (handlers : Rt.rhandler array) (maps : Rt.refmap array) :
    Rt.region option array =
  let n = Array.length code in
  let nslots = nlocals + max_stack in
  let regions = Array.make n None in
  let barrier = barriers code handlers in
  let pc = ref 0 in
  while !pc < n do
    let start = !pc in
    if classify code.(start) = Excluded then incr pc
    else begin
      let last = ref start in
      let scan = ref true in
      while !scan do
        if classify code.(!last) = Terminal then scan := false
        else
          let q = !last + 1 in
          if q < n && (not barrier.(q)) && classify code.(q) <> Excluded then
            last := q
          else scan := false
      done;
      let count = !last - start + 1 in
      if count >= 2 then begin
        (match lower_region ~nlocals ~nslots code maps ~start ~last:!last with
        | Some r_ops -> regions.(start) <- Some { Rt.r_n = count; r_ops }
        | None -> ());
        pc := !last + 1
      end
      else incr pc
    end
  done;
  regions

(* ------------------------------------------------------------- audit *)

(* Static audit of a compiled method's region table: every region must
   cover only includable, barrier-free pcs, pay exactly one tick per
   covered instruction, carry canonical pcs and fault-time sp slots that
   agree with the reference maps, and agree with [k_code]
   operand-for-operand. An [RInstr] must name an instruction without a
   dedicated op, and one that runs a call or return must be its region's
   last op: [Interp.exec_region] relies on that instead of testing that
   the frame is still the region's. *)
let check (m : Rt.rmethod) =
  let c = Rt.compiled m in
  let code = c.Rt.k_code and regions = c.Rt.k_regions and maps = c.Rt.k_maps in
  let nlocals = m.Rt.rm_nlocals and max_stack = c.Rt.k_max_stack in
  let n = Array.length code in
  let name = m.Rt.rm_name in
  if Array.length regions <> n then
    error "%s: region table has %d entries for %d instructions" name
      (Array.length regions) n;
  let barrier = barriers code c.Rt.k_handlers in
  let nslots = nlocals + max_stack in
  let depth_at pc = maps.(pc).Rt.map_depth in
  let slot_ok s = s >= 0 && s < nslots in
  Array.iteri
    (fun entry reg ->
      match reg with
      | None -> ()
      | Some r ->
        let fin = entry + r.Rt.r_n - 1 in
        if r.Rt.r_n < 2 || fin >= n then
          error "%s: region at %d covers %d instructions (code length %d)"
            name entry r.Rt.r_n n;
        for p = entry to fin do
          if p > entry && barrier.(p) then
            error "%s: region at %d crosses a barrier at %d" name entry p;
          (match classify code.(p) with
          | Excluded ->
            error "%s: region at %d covers excluded instruction at %d" name
              entry p
          | Terminal when p < fin ->
            error "%s: region at %d has a terminal mid-region at %d" name
              entry p
          | _ -> ())
        done;
        let nops = Array.length r.Rt.r_ops in
        if nops = 0 then error "%s: empty region at %d" name entry;
        let ticks = ref 0 in
        Array.iteri
          (fun i op ->
            let is_last = i = nops - 1 in
            let pc_in p =
              if p < entry || p > fin then
                error "%s: region at %d references pc %d outside [%d,%d]"
                  name entry p entry fin
            in
            let want_final what =
              if not is_last then
                error "%s: region at %d has %s before the last op" name entry
                  what
            in
            let slots l =
              List.iter
                (fun s ->
                  if not (slot_ok s) then
                    error "%s: region at %d uses slot %d outside 0..%d" name
                      entry s (nslots - 1))
                l
            in
            (* sp-valued fields point one past the top slot, so the full
               stack is the inclusive bound *)
            let sp_slot s =
              if s < 0 || s > nslots then
                error "%s: region at %d carries sp slot %d outside 0..%d"
                  name entry s nslots
            in
            let want_sp p s ~delta =
              if s <> nlocals + depth_at p + delta then
                error
                  "%s: region at %d: op at pc %d carries sp slot %d, maps \
                   say %d"
                  name entry p s
                  (nlocals + depth_at p + delta)
            in
            match op with
            | Rt.RTick k ->
              if k <= 0 then error "%s: non-positive tick in region at %d" name entry;
              ticks := !ticks + k
            | Rt.RConst (d, _) -> slots [ d ]
            | Rt.RMove (d, s) -> slots [ d; s ]
            | Rt.RBin (_, d, a, b) -> slots [ d; a; b ]
            | Rt.RBinC (_, d, a, _) -> slots [ d; a ]
            | Rt.RBinCL (_, d, _, b) -> slots [ d; b ]
            | Rt.RPrint s -> slots [ s ]
            | Rt.RDivRem (op, p, d) ->
              pc_in p;
              slots [ d; d + 1 ];
              want_sp p d ~delta:(-2);
              (match code.(p) with
              | Rt.KBin ((Rt.Bdiv | Rt.Brem) as op') when op' = op -> ()
              | _ -> error "%s: RDivRem at pc %d mismatches code" name p)
            | Rt.RGetfield (slot, p, os) ->
              pc_in p;
              slots [ os ];
              want_sp p os ~delta:(-1);
              (match code.(p) with
              | Rt.KGetfield (slot', _) when slot' = slot -> ()
              | _ -> error "%s: RGetfield at pc %d mismatches code" name p)
            | Rt.RPutfield (slot, p, os) ->
              pc_in p;
              slots [ os; os + 1 ];
              want_sp p os ~delta:(-2);
              (match code.(p) with
              | Rt.KPutfield (slot', _) when slot' = slot -> ()
              | _ -> error "%s: RPutfield at pc %d mismatches code" name p)
            | Rt.RGetstatic (cid, g, p, d) ->
              pc_in p;
              slots [ d ];
              want_sp p d ~delta:0;
              (match code.(p) with
              | Rt.KGetstatic (cid', g', _) when cid' = cid && g' = g -> ()
              | _ -> error "%s: RGetstatic at pc %d mismatches code" name p)
            | Rt.RPutstatic (cid, g, p, v) ->
              pc_in p;
              slots [ v ];
              want_sp p v ~delta:(-1);
              (match code.(p) with
              | Rt.KPutstatic (cid', g', _) when cid' = cid && g' = g -> ()
              | _ -> error "%s: RPutstatic at pc %d mismatches code" name p)
            | Rt.RAload (p, a) ->
              pc_in p;
              slots [ a; a + 1 ];
              want_sp p a ~delta:(-2);
              (match code.(p) with
              | Rt.KAload -> ()
              | _ -> error "%s: RAload at pc %d mismatches code" name p)
            | Rt.RAstore (p, a) ->
              pc_in p;
              slots [ a; a + 1; a + 2 ];
              want_sp p a ~delta:(-3);
              (match code.(p) with
              | Rt.KAstore -> ()
              | _ -> error "%s: RAstore at pc %d mismatches code" name p)
            | Rt.RYield (npc, s) ->
              let p = npc - 1 in
              pc_in p;
              sp_slot s;
              want_sp p s ~delta:0;
              (match code.(p) with
              | Rt.KYield -> ()
              | _ -> error "%s: RYield at pc %d mismatches code" name p)
            | Rt.RMonEnter (npc, o) ->
              let p = npc - 1 in
              pc_in p;
              slots [ o ];
              want_sp p o ~delta:(-1);
              (match code.(p) with
              | Rt.KMonitorenter -> ()
              | _ -> error "%s: RMonEnter at pc %d mismatches code" name p)
            | Rt.RMonExit (npc, o) ->
              let p = npc - 1 in
              pc_in p;
              slots [ o ];
              want_sp p o ~delta:(-1);
              (match code.(p) with
              | Rt.KMonitorexit -> ()
              | _ -> error "%s: RMonExit at pc %d mismatches code" name p)
            | Rt.RIf (c, tgt, fall, a) ->
              want_final "a branch";
              let p = fall - 1 in
              pc_in p;
              slots [ a; a + 1 ];
              want_sp p a ~delta:(-2);
              (match code.(p) with
              | Rt.KIf (c', tgt') when c' = c && tgt' = tgt -> ()
              | Rt.KIfrefeq tgt' when c = Bytecode.Instr.Eq && tgt' = tgt -> ()
              | Rt.KIfrefne tgt' when c = Bytecode.Instr.Ne && tgt' = tgt -> ()
              | _ -> error "%s: RIf at pc %d mismatches code" name p)
            | Rt.RIfz (c, tgt, fall, a) ->
              want_final "a branch";
              let p = fall - 1 in
              pc_in p;
              slots [ a ];
              want_sp p a ~delta:(-1);
              (match code.(p) with
              | Rt.KIfz (c', tgt') when c' = c && tgt' = tgt -> ()
              | Rt.KIfnull tgt' when c = Bytecode.Instr.Eq && tgt' = tgt -> ()
              | Rt.KIfnonnull tgt' when c = Bytecode.Instr.Ne && tgt' = tgt ->
                ()
              | _ -> error "%s: RIfz at pc %d mismatches code" name p)
            | Rt.RGoto (tgt, s) ->
              want_final "a goto";
              sp_slot s;
              want_sp fin s ~delta:0;
              (match code.(fin) with
              | Rt.KGoto tgt' when tgt' = tgt -> ()
              | _ -> error "%s: RGoto mismatches code at pc %d" name fin)
            | Rt.RInstr (p, s) ->
              pc_in p;
              sp_slot s;
              want_sp p s ~delta:0;
              if not (delegated code.(p)) then
                error "%s: RInstr at pc %d runs an instruction with its own op"
                  name p;
              if classify code.(p) = Terminal then want_final "a call or return"
            | Rt.REnd (xpc, s) ->
              want_final "a region end";
              if xpc <> fin + 1 then
                error "%s: REnd at region %d exits to %d, expected %d" name
                  entry xpc (fin + 1);
              sp_slot s;
              if xpc < n && s <> nlocals + depth_at xpc then
                error "%s: REnd at region %d carries sp slot %d, maps say %d"
                  name entry s
                  (nlocals + depth_at xpc))
          r.Rt.r_ops;
        if !ticks <> r.Rt.r_n then
          error "%s: region at %d pays %d ticks for %d instructions" name
            entry !ticks r.Rt.r_n;
        match r.Rt.r_ops.(nops - 1) with
        | Rt.RIf _ | Rt.RIfz _ | Rt.RGoto _ | Rt.REnd _ -> ()
        | Rt.RInstr (p, _) when classify code.(p) = Terminal -> ()
        | _ ->
          error "%s: region at %d does not end in a terminal or REnd" name
            entry)
    regions
