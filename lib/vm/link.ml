(* Building the boot image: register every class of a program (plus the
   builtins), assign class ids, flatten field layouts, build vtables and
   subtype displays, allot the statics area, and create the method records.
   No heap activity happens here — class *initialization* (string interning,
   <clinit>) is performed lazily by the interpreter, because its heap side
   effects are part of what DejaVu must keep symmetric. *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type image = {
  i_classes : Rt.rclass array;
  i_class_of_name : (string, int) Hashtbl.t;
  i_methods : Rt.rmethod array;
  i_nglobals : int;
}

(* Distinct string literals of a class, in first-occurrence order. *)
let string_literals (c : Bytecode.Decl.cdecl) =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  List.iter
    (fun (m : Bytecode.Decl.mdecl) ->
      Array.iter
        (function
          | Bytecode.Instr.Sconst s ->
            if not (Hashtbl.mem seen s) then begin
              Hashtbl.add seen s ();
              out := s :: !out
            end
          | _ -> ())
        m.m_code)
    c.cd_methods;
  List.rev !out

let equal_sig (a : Bytecode.Decl.mdecl) (b : Bytecode.Decl.mdecl) =
  a.m_args = b.m_args && a.m_ret = b.m_ret

let build (p : Bytecode.Decl.program) : image =
  (match Bytecode.Check.check p with
  | [] -> ()
  | issues ->
    error "program rejected: %a"
      (Fmt.list ~sep:(Fmt.any "; ") Bytecode.Check.pp_issue)
      issues);
  let classes = ref [] in
  let n_classes = ref 0 in
  let class_of_name = Hashtbl.create 64 in
  let methods = ref [] in
  let n_methods = ref 0 in
  let nglobals = ref 0 in
  let add_method cid (decl : Bytecode.Decl.mdecl) =
    let uid = !n_methods in
    incr n_methods;
    let m =
      {
        Rt.uid;
        rm_cid = cid;
        rm_name = decl.m_name;
        rm_static = decl.m_static;
        rm_nargs = Bytecode.Decl.nargs decl;
        rm_args = decl.m_args;
        rm_nlocals = decl.m_nlocals;
        rm_ret = decl.m_ret;
        rm_decl = decl;
        rm_compiled = None;
        rm_cache = None;
      }
    in
    methods := m :: !methods;
    m
  in
  let register ?super_cid ?(elem = Rt.Not_array) ?(fields = [])
      ?(statics = []) ?(decl : Bytecode.Decl.cdecl option) name =
    let cid = !n_classes in
    incr n_classes;
    let super =
      match super_cid with
      | Some s -> Some (List.nth (List.rev !classes) s)
      | None -> None
    in
    let super_fields =
      match super with Some s -> s.Rt.rc_fields | None -> [||]
    in
    let own_fields =
      Array.of_list
        (List.map (fun f -> (f.Bytecode.Decl.fd_name, f.fd_ty)) fields)
    in
    let all_fields = Array.append super_fields own_fields in
    let field_index = Hashtbl.create 8 in
    Array.iteri (fun i (n, _) -> Hashtbl.replace field_index n i) all_fields;
    let statics_arr =
      Array.of_list
        (List.map (fun f -> (f.Bytecode.Decl.fd_name, f.fd_ty)) statics)
    in
    let statics_base = !nglobals in
    nglobals := !nglobals + Array.length statics_arr;
    let depth = match super with Some s -> s.rc_depth + 1 | None -> 0 in
    let display = Array.make (depth + 1) cid in
    (match super with
    | Some s -> Array.blit s.rc_display 0 display 0 (depth)
    | None -> ());
    display.(depth) <- cid;
    (* vtable: inherit, then declare/override *)
    let vtable = ref (match super with Some s -> Array.copy s.rc_vtable | None -> [||]) in
    let vslot_of = Hashtbl.create 8 in
    (match super with
    | Some s -> Hashtbl.iter (fun k v -> Hashtbl.replace vslot_of k v) s.rc_vslot_of
    | None -> ());
    let method_of = Hashtbl.create 8 in
    (match decl with
    | None -> ()
    | Some d ->
      List.iter
        (fun (md : Bytecode.Decl.mdecl) ->
          let m = add_method cid md in
          Hashtbl.replace method_of md.m_name m.Rt.uid;
          if not md.m_static then begin
            match Hashtbl.find_opt vslot_of md.m_name with
            | Some slot ->
              (* override: the whole chain must share one signature *)
              let vt = !vtable in
              let prev =
                List.find (fun (x : Rt.rmethod) -> x.uid = vt.(slot)) !methods
              in
              if not (equal_sig prev.rm_decl md) then
                error "%s.%s overrides with a different signature" name
                  md.m_name;
              vt.(slot) <- m.Rt.uid
            | None ->
              let slot = Array.length !vtable in
              vtable := Array.append !vtable [| m.Rt.uid |];
              Hashtbl.replace vslot_of md.m_name slot
          end)
        d.cd_methods);
    let rc =
      {
        Rt.cid;
        rc_name = name;
        rc_super = (match super with Some s -> s.Rt.cid | None -> -1);
        rc_depth = depth;
        rc_display = display;
        rc_fields = all_fields;
        rc_field_index = field_index;
        rc_statics = statics_arr;
        rc_statics_base = statics_base;
        rc_vtable = !vtable;
        rc_vslot_of = vslot_of;
        rc_method_of = method_of;
        rc_string_lits =
          (match decl with
          | Some d -> Array.of_list (string_literals d)
          | None -> [||]);
        rc_strings = [||];
        rc_state = Rt.Registered;
        rc_elem = elem;
      }
    in
    classes := rc :: !classes;
    Hashtbl.replace class_of_name name cid;
    cid
  in
  (* Builtins. Object must be cid 0. *)
  let object_cid = register Bytecode.Decl.object_class in
  assert (object_cid = 0);
  let _string =
    register ~super_cid:object_cid
      ~fields:[ { Bytecode.Decl.fd_name = "chars"; fd_ty = Bytecode.Instr.Tarr Bytecode.Instr.Tint } ]
      Bytecode.Decl.string_class
  in
  let _int_array = register ~super_cid:object_cid ~elem:Rt.Arr_int "int[]" in
  let _ref_array = register ~super_cid:object_cid ~elem:Rt.Arr_ref "ref[]" in
  let _stack_array = register ~super_cid:object_cid ~elem:Rt.Arr_int "stack[]" in
  let throwable =
    match Bytecode.Decl.exception_classes with
    | "Throwable" :: rest ->
      let t = register ~super_cid:object_cid "Throwable" in
      List.iter (fun n -> ignore (register ~super_cid:t n)) rest;
      t
    | _ -> error "exception_classes must start with Throwable"
  in
  ignore throwable;
  (* User classes in superclass-first order. *)
  let in_progress = Hashtbl.create 16 in
  let rec ensure (c : Bytecode.Decl.cdecl) =
    if Hashtbl.mem class_of_name c.cd_name then ()
    else begin
      if Hashtbl.mem in_progress c.cd_name then
        error "superclass cycle at %s" c.cd_name;
      Hashtbl.add in_progress c.cd_name ();
      let super_cid =
        match c.cd_super with
        | None -> object_cid
        | Some s -> (
          match Hashtbl.find_opt class_of_name s with
          | Some cid -> cid
          | None -> (
            match Bytecode.Decl.find_class p s with
            | Some sc ->
              ensure sc;
              Hashtbl.find class_of_name s
            | None -> error "unknown superclass %s" s))
      in
      ignore
        (register ~super_cid ~fields:c.cd_fields ~statics:c.cd_statics
           ~decl:c c.cd_name)
    end
  in
  List.iter ensure p.classes;
  {
    i_classes = Array.of_list (List.rev !classes);
    i_class_of_name = class_of_name;
    i_methods = Array.of_list (List.rev !methods);
    i_nglobals = !nglobals;
  }
