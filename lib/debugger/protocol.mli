(** The tool front end: a textual command in, a textual reply out. This is
    the replacement for the paper's Swing-GUI-over-TCP third tier (see
    DESIGN.md section 6) — any front end (the interactive CLI of
    [dvrun debug], a test, a socket server) drives a session through
    {!execute}. Type ["help"] for the command list. *)

type outcome = Reply of string | Quit

val help_text : string

(** Render a stop reason for the user. *)
val string_of_stop : Session.t -> Session.stop_reason -> string

(** Execute one command line against the session. Errors come back as
    [Reply "error: ..."], never as exceptions. *)
val execute : Session.t -> string -> outcome
