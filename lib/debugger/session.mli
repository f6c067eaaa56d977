(** A replay-based debugging session: DejaVu drives a deterministic replay
    one instruction at a time; the tool inspects the paused VM only through
    remote reflection, so stopping, stepping, querying, and resuming
    perturb nothing. Determinism also buys {e time travel}: [goto_step]
    lands on any earlier point of the same execution, accelerated by
    periodic whole-machine checkpoints ([Vm.Snapshot]). Whether the replay
    passed is Dejavu's {!Dejavu.verdict}, decided by its replay phases
    ({!Dejavu.replay_open}, {!Dejavu.replay_advance}, {!Dejavu.replay_end}). *)

type stop_reason =
  | Hit of Breakpoint.t
  | Watch_fired of watchpoint * int * int
      (** a watched static changed: watchpoint, old value, new value *)
  | Step_done
  | Ended of Dejavu.verdict  (** the replay reached its end *)

(** Watchpoints observe a static slot and stop the replay when its value
    changes — deterministically: the same watch fires at the same step on
    every replay of the same trace. *)
and watchpoint = {
  w_id : int;
  w_class : string;
  w_field : string;
  w_slot : int;
  mutable w_last : int;
}

type checkpoint = {
  ck_step : int;
  ck_vm : Vm.Snapshot.t;
  ck_session : Dejavu.Session.snap;
}

type t = {
  trace : Dejavu.Trace.t;
  vm : Vm.t;
  session : Dejavu.Session.t;
  space : Remote_reflection.Address_space.t;
  mutable advanced : Dejavu.verdict;  (** how the last advance went *)
  mutable breakpoints : Breakpoint.t list;
  mutable next_bp_id : int;
  mutable steps : int;  (** instructions replayed so far *)
  checkpoint_interval : int;
  mutable checkpoints : checkpoint list;  (** newest first *)
  mutable restores : int;  (** checkpoint restores performed *)
  mutable watchpoints : watchpoint list;
  mutable next_watch_id : int;
}

(** Open a session on a recorded trace, or the [Rejected] verdict of a
    trace this program refuses. Step 0 is always checkpointed.
    [checkpoint_interval] is the automatic checkpoint period in replayed
    instructions (default 25000; 0 disables, making backwards travel
    replay from step 0). *)
val start :
  ?config:Vm.Rt.config ->
  ?natives:Vm.Native.spec list ->
  ?checkpoint_interval:int ->
  Bytecode.Decl.program ->
  Dejavu.Trace.t ->
  (t, Dejavu.verdict) result

(** Record a fresh execution under [seed], then open a session on it. *)
val record_and_start :
  ?config:Vm.Rt.config ->
  ?natives:Vm.Native.spec list ->
  ?seed:int ->
  Bytecode.Decl.program ->
  t * Dejavu.run

val add_breakpoint : t -> cls:string -> meth:string -> Breakpoint.loc -> Breakpoint.t

val remove_breakpoint : t -> int -> unit

(** Watch a static field; raises [Invalid_argument] if it doesn't exist. *)
val add_watchpoint : t -> cls:string -> field:string -> watchpoint

val remove_watchpoint : t -> int -> unit

val running : t -> bool

(** The replay's verdict once it has ended ([Ended]'s), [None] while it
    runs. *)
val verdict : t -> Dejavu.verdict option

(** Current method and compiled pc, when running. *)
val position : t -> (Vm.Rt.rmethod * int) option

(** Execute up to [n] instructions; stops early on a breakpoint, a
    watchpoint or the end of the replay. *)
val step : t -> int -> stop_reason

(** Run to the next breakpoint or the end of the replay. *)
val continue_ : t -> stop_reason

(** Travel to absolute step [n] (backwards or forwards): restores the
    nearest checkpoint at or before [n] and re-executes. *)
val goto_step : t -> int -> stop_reason

(** Take a checkpoint of the current position explicitly (none once the
    replay has ended). *)
val take_checkpoint : t -> unit

(** {1 Inspection — reads only, through the address space} *)

val space : t -> Remote_reflection.Address_space.t

val state_digest : t -> int

val output : t -> string

val threads : t -> Remote_reflection.Address_space.thread_snapshot list

val frames : t -> int -> Remote_reflection.Remote_frames.frame list

(** Intentionally alter an integer static in the replayed VM — the paper's
    footnote 3: replay can resume, but "no guarantee could be made as to
    its accuracy". {!perturbed} reports that the guarantee is void. *)
val set_static : t -> cls:string -> field:string -> int -> unit

val perturbed : t -> bool

(** (class, method, line) of the current position. *)
val current_line : t -> (string * string * int option) option
