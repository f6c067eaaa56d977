(** Parser for the textual assembly language (".djv" files).

    Grammar sketch (see parser.ml for the full comment):
    {v
    program ::= ("main" NAME)? class*
    class   ::= "class" NAME ("extends" NAME)? "{" member* "}"
    member  ::= "field" NAME ":" type | "static" NAME ":" type
              | ("method"|"virtual") NAME "(" params? ")" (":" type)?
                  ("locals" INT)? ("sync")? "{" item* "}" handler*
    handler ::= "catch" (NAME|"*") "from" LABEL "to" LABEL "goto" LABEL
    v}

    Instructions use {!Instr.mnemonic} spellings; labels are
    [name:]-prefixed lines; [.line N] sets the source line. Without a
    ["main"] directive the first class with a static 0-argument [main]
    becomes the main class. *)

(** Parse error with a message and a 1-based source line. *)
exception Error of string * int

val parse_string : string -> Decl.program

(** Raises [Sys_error] naming the path when it is missing or not a
    regular file. *)
val parse_file : string -> Decl.program
