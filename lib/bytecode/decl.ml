(* Class, method, and program declarations — the "class file" level of the
   simulated machine. Names are symbolic here; the VM's class loader resolves
   them to ids at load time. *)

type handler = {
  h_from : int; (* first covered pc, inclusive *)
  h_upto : int; (* last covered pc, exclusive *)
  h_target : int; (* handler entry pc; exception object is pushed there *)
  h_class : string option; (* None catches everything *)
}

type mdecl = {
  m_name : string;
  m_static : bool;
  m_args : Instr.ty array; (* argument types; includes the receiver *)
  m_nlocals : int; (* total local slots, >= Array.length m_args *)
  m_ret : Instr.ty option; (* None = void *)
  m_sync : bool; (* synchronized: loader wraps body in receiver monitor *)
  m_code : Instr.t array;
  m_handlers : handler list;
  m_lines : (int * int) list; (* sorted (start_pc, source_line) table *)
}

let nargs m = Array.length m.m_args

let returns m = m.m_ret <> None

type fdecl = { fd_name : string; fd_ty : Instr.ty }

type cdecl = {
  cd_name : string;
  cd_super : string option; (* None means direct subclass of Object *)
  cd_fields : fdecl list; (* instance fields declared by this class *)
  cd_statics : fdecl list;
  cd_methods : mdecl list;
}

type program = {
  classes : cdecl list;
  main_class : string; (* must declare a static, 0-arg method "main" *)
}

(* Names of classes built into every program. *)
let object_class = "Object"

let string_class = "String"

let exception_classes =
  [
    "Throwable";
    "ArithmeticException";
    "NullPointerException";
    "ArrayIndexOutOfBoundsException";
    "NegativeArraySizeException";
    "IllegalMonitorStateException";
    "InterruptedException";
    "ClassCastException";
    "StackOverflowError";
    "OutOfMemoryError";
  ]

let mdecl ?(static = true) ?ret ?(sync = false) ?(handlers = [])
    ?(lines = []) ?(args = []) ~nlocals name code =
  let args = Array.of_list args in
  if nlocals < Array.length args then
    invalid_arg
      (Fmt.str "mdecl %s: nlocals %d < nargs %d" name nlocals
         (Array.length args));
  {
    m_name = name;
    m_static = static;
    m_args = args;
    m_nlocals = nlocals;
    m_ret = ret;
    m_sync = sync;
    m_code = Array.of_list code;
    m_handlers = handlers;
    m_lines = lines;
  }

let cdecl ?super ?(fields = []) ?(statics = []) name methods =
  {
    cd_name = name;
    cd_super = super;
    cd_fields = fields;
    cd_statics = statics;
    cd_methods = methods;
  }

let field ?(ty = Instr.Tint) name = { fd_name = name; fd_ty = ty }

let program ?main_class classes =
  let main_class =
    match (main_class, classes) with
    | Some m, _ -> m
    | None, c :: _ -> c.cd_name
    | None, [] -> invalid_arg "program: no classes"
  in
  { classes; main_class }

let find_class p name = List.find_opt (fun c -> c.cd_name = name) p.classes

let find_method c name = List.find_opt (fun m -> m.m_name = name) c.cd_methods

(* Source line for a pc, from the method's line table. *)
let line_of_pc m pc =
  let rec go best = function
    | [] -> best
    | (start, ln) :: rest -> if start <= pc then go (Some ln) rest else best
  in
  go None m.m_lines

(* A stable structural hash of a program, used to stamp traces so that a
   trace recorded for one program is not replayed against another. *)
let digest_uncached (p : program) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf p.main_class;
  List.iter
    (fun c ->
      Buffer.add_string buf c.cd_name;
      Buffer.add_string buf (Option.value c.cd_super ~default:"");
      List.iter
        (fun f ->
          Buffer.add_string buf f.fd_name;
          Buffer.add_string buf (Instr.string_of_ty f.fd_ty))
        (c.cd_fields @ c.cd_statics);
      List.iter
        (fun m ->
          Buffer.add_string buf m.m_name;
          Array.iter
            (fun ty -> Buffer.add_string buf (Instr.string_of_ty ty))
            m.m_args;
          Buffer.add_string buf
            (Fmt.str "/%d/%b/%s/%b" m.m_nlocals m.m_static
               (match m.m_ret with
               | None -> "void"
               | Some ty -> Instr.string_of_ty ty)
               m.m_sync);
          Array.iter
            (fun i -> Buffer.add_string buf (Instr.to_string i))
            m.m_code;
          List.iter
            (fun h ->
              Buffer.add_string buf
                (Fmt.str "h%d:%d:%d:%s" h.h_from h.h_upto h.h_target
                   (Option.value h.h_class ~default:"*")))
            m.m_handlers)
        c.cd_methods)
    p.classes;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Serializing every instruction per call is milliseconds on larger
   programs, and sessions stamp the digest on every record finish and
   replay attach. Programs are immutable decl values that callers reuse,
   so a physical-equality cache removes the rescan. It holds
   [digest_cache_cap] programs, room for a farm cycling the whole workload
   catalogue; when full, the older half goes. Shards race on the cache
   from different domains; a lost update just recomputes. *)
let digest_cache_cap = 64

let digest_cache : (program * string) list Atomic.t = Atomic.make []

let digest (p : program) : string =
  match List.find_opt (fun (q, _) -> q == p) (Atomic.get digest_cache) with
  | Some (_, d) -> d
  | None ->
    let d = digest_uncached p in
    let cur = Atomic.get digest_cache in
    let cur =
      if List.length cur >= digest_cache_cap then
        List.filteri (fun i _ -> i < digest_cache_cap / 2) cur
      else cur
    in
    Atomic.set digest_cache ((p, d) :: cur);
    d

(* Name of the class-initializer method, run at class initialization. *)
let clinit_name = "<clinit>"
