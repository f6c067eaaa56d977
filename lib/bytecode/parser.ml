(* Parser for the textual assembly language. Grammar:

     program   ::= class*
     class     ::= "class" NAME ("extends" NAME)? "{" member* "}"
     member    ::= "field"  NAME ":" type
                 | "static" NAME ":" type
                 | "method" NAME "(" params? ")" (":" type)?
                     ("locals" INT)? ("sync")? "{" item* "}" handler*
     handler   ::= "catch" (NAME | "*") "from" LABEL "to" LABEL "goto" LABEL
     params    ::= NAME ":" type ("," NAME ":" type)*    ; slots by position
     type      ::= ("int" | "ref" | NAME) "[]"*
     item      ::= LABEL ":"  |  ".line" INT  |  instruction

   Instructions use the disassembler's mnemonics:

     const N | sconst "s" | null | load N | store N | dup | pop | swap
     add sub mul div rem neg band bor bxor shl shr
     ifeq L ifne L iflt L ifle L ifgt L ifge L          ; two-operand compare
     ifzeq L ifzne L ifzlt L ifzle L ifzgt L ifzge L    ; compare with zero
     ifnull L | ifnonnull L | ifrefeq L | ifrefne L | goto L
     new C | getfield C.f | putfield C.f | getstatic C.f | putstatic C.f
     newarray TYPE | aload | astore | arraylength
     checkcast C | instanceof C
     invoke C.m | spawn C.m | ret | retv | throw
     monitorenter monitorexit wait timedwait notify notifyall
     sleep | join | interrupt | currenttime | readinput | nativecall NAME
     print | prints | halt | nop

   The first class with a 0-argument static "main" becomes the main class
   unless a "main" directive names one:  main NAME  at top level. *)

exception Error of string * int

type st = { toks : (Lexer.token * int) array; mutable i : int }

let error st fmt =
  let line = snd st.toks.(min st.i (Array.length st.toks - 1)) in
  Fmt.kstr (fun m -> raise (Error (m, line))) fmt

let peek st = fst st.toks.(st.i)



let advance st = st.i <- st.i + 1

let expect st tok what =
  if peek st = tok then advance st else error st "expected %s" what

let ident st =
  match peek st with
  | Lexer.Ident s ->
    advance st;
    s
  | _ -> error st "expected identifier"

let int st =
  match peek st with
  | Lexer.Int n ->
    advance st;
    n
  | _ -> error st "expected integer"

(* type ::= base "[]"* *)
let rec parse_type st : Instr.ty =
  let base =
    match ident st with
    | "int" -> Instr.Tint
    | "ref" -> Instr.Tref
    | name -> Instr.Tobj name
  in
  parse_array_suffix st base

and parse_array_suffix st base =
  if peek st = Lexer.Lbracket then begin
    advance st;
    expect st Lexer.Rbracket "']'";
    parse_array_suffix st (Instr.Tarr base)
  end
  else base

(* C.f or C.m *)
let dotted st =
  let c = ident st in
  expect st Lexer.Dot "'.'";
  let m = ident st in
  (c, m)

let cmp_of_suffix st = function
  | "eq" -> Instr.Eq
  | "ne" -> Instr.Ne
  | "lt" -> Instr.Lt
  | "le" -> Instr.Le
  | "gt" -> Instr.Gt
  | "ge" -> Instr.Ge
  | s -> error st "unknown comparison %S" s

let parse_instr st (mnem : string) : Asm.item =
  let lbl () = ident st in
  let item i = Asm.i i in
  match mnem with
  | "const" -> item (Instr.Const (int st))
  | "sconst" -> (
    match peek st with
    | Lexer.Str s ->
      advance st;
      item (Instr.Sconst s)
    | _ -> error st "sconst needs a string literal")
  | "null" -> item Instr.Null
  | "load" -> item (Instr.Load (int st))
  | "store" -> item (Instr.Store (int st))
  | "dup" -> item Instr.Dup
  | "pop" -> item Instr.Pop
  | "swap" -> item Instr.Swap
  | "add" -> item Instr.Add
  | "sub" -> item Instr.Sub
  | "mul" -> item Instr.Mul
  | "div" -> item Instr.Div
  | "rem" -> item Instr.Rem
  | "neg" -> item Instr.Neg
  | "band" -> item Instr.Band
  | "bor" -> item Instr.Bor
  | "bxor" -> item Instr.Bxor
  | "shl" -> item Instr.Shl
  | "shr" -> item Instr.Shr
  | "ifnull" -> item (Instr.Ifnull (lbl ()))
  | "ifnonnull" -> item (Instr.Ifnonnull (lbl ()))
  | "ifrefeq" -> item (Instr.Ifrefeq (lbl ()))
  | "ifrefne" -> item (Instr.Ifrefne (lbl ()))
  | "goto" -> item (Instr.Goto (lbl ()))
  | "new" -> item (Instr.New (ident st))
  | "getfield" ->
    let c, f = dotted st in
    item (Instr.Getfield (c, f))
  | "putfield" ->
    let c, f = dotted st in
    item (Instr.Putfield (c, f))
  | "getstatic" ->
    let c, f = dotted st in
    item (Instr.Getstatic (c, f))
  | "putstatic" ->
    let c, f = dotted st in
    item (Instr.Putstatic (c, f))
  | "newarray" -> item (Instr.Newarray (parse_type st))
  | "aload" -> item Instr.Aload
  | "astore" -> item Instr.Astore
  | "arraylength" -> item Instr.Arraylength
  | "checkcast" -> item (Instr.Checkcast (ident st))
  | "instanceof" -> item (Instr.Instanceof (ident st))
  | "invoke" ->
    let c, m = dotted st in
    item (Instr.Invoke (c, m))
  | "spawn" ->
    let c, m = dotted st in
    item (Instr.Spawn (c, m))
  | "ret" -> item Instr.Ret
  | "retv" -> item Instr.Retv
  | "throw" -> item Instr.Throw
  | "monitorenter" -> item Instr.Monitorenter
  | "monitorexit" -> item Instr.Monitorexit
  | "wait" -> item Instr.Wait
  | "timedwait" -> item Instr.Timedwait
  | "notify" -> item Instr.Notify
  | "notifyall" -> item Instr.Notifyall
  | "sleep" -> item Instr.Sleep
  | "join" -> item Instr.Join
  | "interrupt" -> item Instr.Interrupt
  | "currenttime" -> item Instr.Currenttime
  | "readinput" -> item Instr.Readinput
  | "nativecall" -> item (Instr.Nativecall (ident st))
  | "print" -> item Instr.Print
  | "prints" -> item Instr.Prints
  | "halt" -> item Instr.Halt
  | "nop" -> item Instr.Nop
  | _ ->
    (* two-operand and zero-compare branches: if<cmp> / ifz<cmp> *)
    if String.length mnem > 3 && String.sub mnem 0 3 = "ifz" then
      let cmp = cmp_of_suffix st (String.sub mnem 3 (String.length mnem - 3)) in
      item (Instr.Ifz (cmp, lbl ()))
    else if String.length mnem > 2 && String.sub mnem 0 2 = "if" then
      let cmp = cmp_of_suffix st (String.sub mnem 2 (String.length mnem - 2)) in
      item (Instr.If (cmp, lbl ()))
    else error st "unknown instruction %S" mnem

(* method body items until '}' *)
let parse_items st : Asm.item list =
  let out = ref [] in
  let rec go () =
    match peek st with
    | Lexer.Rbrace ->
      advance st;
      List.rev !out
    | Lexer.Dot ->
      advance st;
      (match ident st with
      | "line" -> out := Asm.line (int st) :: !out
      | d -> error st "unknown directive .%s" d);
      go ()
    | Lexer.Ident name ->
      advance st;
      if peek st = Lexer.Colon then begin
        (* a label *)
        advance st;
        out := Asm.label name :: !out
      end
      else out := parse_instr st name :: !out;
      go ()
    | Lexer.Eof -> error st "unexpected end of file in method body"
    | _ -> error st "expected instruction, label, or '}'"
  in
  go ()

let parse_handlers st : Asm.ahandler list =
  let out = ref [] in
  while peek st = Lexer.Ident "catch" do
    advance st;
    let cls =
      match peek st with
      | Lexer.Star ->
        advance st;
        None
      | _ -> Some (ident st)
    in
    expect st (Lexer.Ident "from") "'from'";
    let from_ = ident st in
    expect st (Lexer.Ident "to") "'to'";
    let upto = ident st in
    expect st (Lexer.Ident "goto") "'goto'";
    let target = ident st in
    out :=
      { Asm.ah_from = from_; ah_upto = upto; ah_target = target; ah_class = cls }
      :: !out
  done;
  List.rev !out

let parse_method st ~static : Decl.mdecl =
  let name = ident st in
  expect st Lexer.Lparen "'('";
  let args = ref [] in
  if peek st <> Lexer.Rparen then begin
    let rec one () =
      let _pname = ident st in
      expect st Lexer.Colon "':'";
      args := parse_type st :: !args;
      if peek st = Lexer.Comma then begin
        advance st;
        one ()
      end
    in
    one ()
  end;
  expect st Lexer.Rparen "')'";
  let ret =
    if peek st = Lexer.Colon then begin
      advance st;
      Some (parse_type st)
    end
    else None
  in
  let nlocals = ref (List.length !args) in
  let sync = ref false in
  let rec modifiers () =
    match peek st with
    | Lexer.Ident "locals" ->
      advance st;
      nlocals := int st;
      modifiers ()
    | Lexer.Ident "sync" ->
      advance st;
      sync := true;
      modifiers ()
    | _ -> ()
  in
  modifiers ();
  expect st Lexer.Lbrace "'{'";
  let items = parse_items st in
  let handlers = parse_handlers st in
  let nlocals = max !nlocals (List.length !args) in
  try
    Asm.method_with_handlers ~static ~sync:!sync ?ret
      ~args:(List.rev !args) ~nlocals name items handlers
  with Asm.Error m -> error st "in method %s: %s" name m

let parse_class st : Decl.cdecl =
  expect st (Lexer.Ident "class") "'class'";
  let name = ident st in
  let super =
    if peek st = Lexer.Ident "extends" then begin
      advance st;
      Some (ident st)
    end
    else None
  in
  expect st Lexer.Lbrace "'{'";
  let fields = ref [] and statics = ref [] and methods = ref [] in
  let rec members () =
    match peek st with
    | Lexer.Rbrace -> advance st
    | Lexer.Ident "field" ->
      advance st;
      let n = ident st in
      expect st Lexer.Colon "':'";
      fields := { Decl.fd_name = n; fd_ty = parse_type st } :: !fields;
      members ()
    | Lexer.Ident "static" ->
      advance st;
      let n = ident st in
      expect st Lexer.Colon "':'";
      statics := { Decl.fd_name = n; fd_ty = parse_type st } :: !statics;
      members ()
    | Lexer.Ident "method" ->
      advance st;
      methods := parse_method st ~static:true :: !methods;
      members ()
    | Lexer.Ident "virtual" ->
      advance st;
      methods := parse_method st ~static:false :: !methods;
      members ()
    | _ -> error st "expected field, static, method, virtual, or '}'"
  in
  members ();
  Decl.cdecl ?super
    ~fields:(List.rev !fields)
    ~statics:(List.rev !statics)
    name (List.rev !methods)

let parse_program st : Decl.program =
  let classes = ref [] and main = ref None in
  let rec go () =
    match peek st with
    | Lexer.Eof -> ()
    | Lexer.Ident "main" ->
      advance st;
      main := Some (ident st);
      go ()
    | Lexer.Ident "class" ->
      classes := parse_class st :: !classes;
      go ()
    | _ -> error st "expected 'class' or 'main'"
  in
  go ();
  let classes = List.rev !classes in
  let main_class =
    match !main with
    | Some m -> m
    | None -> (
      (* first class declaring a 0-arg static main *)
      match
        List.find_opt
          (fun (c : Decl.cdecl) ->
            List.exists
              (fun (m : Decl.mdecl) ->
                m.m_name = "main" && m.m_static && Decl.nargs m = 0)
              c.cd_methods)
          classes
      with
      | Some c -> c.cd_name
      | None -> error st "no class with a static 0-argument main")
  in
  Decl.program ~main_class classes

let parse_string (src : string) : Decl.program =
  let toks =
    try Lexer.tokenize src
    with Lexer.Error (m, line) -> raise (Error (m, line))
  in
  let st = { toks; i = 0 } in
  parse_program st

let parse_file path : Decl.program =
  (* refused before the open, which would block on a FIFO *)
  if not (Sys.is_regular_file path) then
    raise (Sys_error (path ^ ": not a regular file"));
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  parse_string src
