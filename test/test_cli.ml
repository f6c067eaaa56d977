(* dvrun's exit contract, as a table: each row runs the built dvrun.exe
   as a subprocess on one subcommand and one class of input, and states
   how it must end. Bad input ends 2 with exactly one stderr line naming
   what was wrong (the user's path, mostly); a replay verdict of
   [Rejected] ends 2 with the verdict on stdout and nothing on stderr; a
   command line cmdliner cannot parse ends 124 with its usage message; and
   a good input ends 0, or 1 where the command judges the outcome a
   failure. No row may end 125 (an internal error) or by a signal. Every
   path is in one temp dir, written [$d] in the rows. *)

let dvrun =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/dvrun.exe"

let dir =
  let d = Filename.temp_file "dvcli" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

(* [$d/P] is P in the temp dir; [$long] a socket path of over 108 bytes,
   too long for a Unix socket address; [$big] a 5,000-byte name, over the
   4,096 bytes a request may carry. *)
let expand tok =
  if String.starts_with ~prefix:"$d/" tok then
    Filename.concat dir (String.sub tok 3 (String.length tok - 3))
  else
    match tok with
    | "$long" -> Filename.concat dir (String.make 120 'a' ^ ".sock")
    | "$big" -> String.make 5000 'x'
    | _ -> tok

let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let read path = In_channel.with_open_bin path In_channel.input_all

(* Run dvrun on [args] with stdin empty: its exit code, stdout and stderr.
   A run ended by a signal fails the test, and so does one still running
   after 60 s (it is killed): a hang is as wrong as a crash. *)
let run args =
  let out = Filename.concat dir ".out" and err = Filename.concat dir ".err" in
  let open_w p = Unix.openfile p [ O_WRONLY; O_CREAT; O_TRUNC ] 0o600 in
  let fin = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let fout = open_w out and ferr = open_w err in
  let pid =
    Unix.create_process dvrun
      (Array.of_list ("dvrun" :: args))
      fin fout ferr
  in
  List.iter Unix.close [ fin; fout; ferr ];
  let t0 = Unix.gettimeofday () in
  let rec wait () =
    match Unix.waitpid [ WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () -. t0 > 60. then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.failf "dvrun %s: still running after 60 s"
          (String.concat " " args)
      end;
      Unix.sleepf 0.005;
      wait ()
    | _, WEXITED c -> c
    | _, (WSIGNALED s | WSTOPPED s) ->
      Alcotest.failf "dvrun %s: ended by signal %d" (String.concat " " args) s
  in
  let code = wait () in
  (code, read out, read err)

type expect =
  | Refused of string (* 2, one stderr line containing the string *)
  | Rejected (* 2 by the replay verdict: stdout says so, stderr is empty *)
  | Usage of string (* 124, cmdliner's message naming the string *)
  | Exits of int * string (* this code, stdout containing the string *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* One row: [cmd] is the command line, split at spaces, each word
   expanded; a [Refused] needle is expanded the same way. [post] checks
   what the run must have left alone. *)
let row ?(post = ignore) cmd expect =
  Alcotest.test_case cmd `Quick (fun () ->
      let code, out, err =
        run (List.map expand (String.split_on_char ' ' cmd))
      in
      let check_code want =
        if code <> want then
          Alcotest.failf "exit %d, not %d; stderr:\n%s" code want err
      in
      (match expect with
      | Refused needle ->
        check_code 2;
        if String.index_opt err '\n' <> Some (String.length err - 1) then
          Alcotest.failf "stderr is not one line:\n%s" err;
        if not (contains err (expand needle)) then
          Alcotest.failf "stderr does not name %s:\n%s" needle err
      | Rejected ->
        check_code 2;
        Alcotest.(check string) "stderr" "" err;
        if not (contains out "verdict: rejected") then
          Alcotest.failf "no rejected verdict on stdout:\n%s" out
      | Usage needle ->
        check_code 124;
        if not (contains err needle && contains err "Usage: dvrun") then
          Alcotest.failf "not a usage message naming %s:\n%s" needle err
      | Exits (want, needle) ->
        check_code want;
        if not (contains out needle) then
          Alcotest.failf "stdout lacks %S:\n%s" needle out);
      post ())

let still_a_fifo () =
  let path = expand "$d/fifo" in
  match (Unix.stat path).st_kind with
  | S_FIFO -> ()
  | _ -> Alcotest.failf "%s is no longer a FIFO" path

(* The fixtures: a .djv naming an unknown class and one that does not
   parse, a directory (one named .djv), an empty regular file and one
   holding "mine" (for serve to leave alone), a FIFO (one named .djv), a
   name for /dev/null ending .djv, a bank trace, that trace cut to 40
   bytes, and 2,000 random bytes. *)
let setup () =
  let p = expand in
  write (p "$d/unknown.djv")
    "class T {\n  method main() locals 1 {\n    new Nope\n    pop\n    ret\n  }\n}\n";
  write (p "$d/bad.djv") "class {\n";
  Sys.mkdir (p "$d/dir") 0o755;
  Sys.mkdir (p "$d/dir.djv") 0o755;
  write (p "$d/file") "";
  write (p "$d/keep") "mine";
  Unix.mkfifo (p "$d/fifo") 0o600;
  Unix.mkfifo (p "$d/fifo.djv") 0o600;
  Unix.symlink "/dev/null" (p "$d/null.djv");
  (match run [ "record"; "bank"; "-o"; p "$d/bank.trace" ] with
  | 0, _, _ -> ()
  | c, _, err -> failwith (Printf.sprintf "record bank: exit %d: %s" c err));
  let trace = read (p "$d/bank.trace") in
  write (p "$d/cut.trace") (String.sub trace 0 40);
  let rng = Random.State.make [| 28 |] in
  write (p "$d/random.trace")
    (String.init 2000 (fun _ -> Char.chr (Random.State.int rng 256)))

let rec remove path =
  match (Unix.lstat path).st_kind with
  | S_DIR ->
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let () =
  at_exit (fun () -> remove dir);
  setup ();
  Alcotest.run "cli"
    [
      ( "list",
        [
          row "list" (Exits (0, "bank"));
          row "list extra" (Usage "extra");
        ] );
      ( "run",
        [
          row "run bank" (Exits (0, "--- status: finished ---"));
          row "run nope" (Refused "\"nope\"");
          row "run $d/missing.djv" (Refused "$d/missing.djv");
          row "run $d/file/x.djv" (Refused "$d/file/x.djv");
          row "run $d/dir.djv" (Refused "$d/dir.djv");
          row "run $d/fifo.djv" (Refused "$d/fifo.djv");
          row "run $d/null.djv" (Refused "$d/null.djv");
          row "run $d/unknown.djv" (Refused "$d/unknown.djv");
          row "run $d/bad.djv" (Refused "$d/bad.djv");
          row "run bank --seed x" (Usage "--seed");
        ] );
      ( "disasm",
        [
          row "disasm bank" (Exits (0, "class"));
          row "disasm nope" (Refused "\"nope\"");
          row "disasm $d/bad.djv" (Refused "$d/bad.djv");
          row "disasm --compiled $d/unknown.djv"
            (Refused "$d/unknown.djv");
        ] );
      ( "emit",
        [
          row "emit bank" (Exits (0, "class"));
          row "emit nope" (Refused "\"nope\"");
          row "emit $d/missing.djv" (Refused "$d/missing.djv");
        ] );
      ( "compare",
        [
          row "compare racy-counter --seeds 1,2"
            (Exits (0, "distinct outputs"));
          row "compare nope" (Refused "\"nope\"");
          row "compare $d/unknown.djv" (Refused "$d/unknown.djv");
          row "compare bank --seeds x" (Usage "--seeds");
        ] );
      ( "record",
        [
          row "record bank -o $d/ok.trace" (Exits (0, "trace ->"));
          row "record nope -o $d/t.trace" (Refused "\"nope\"");
          row "record $d/bad.djv -o $d/t.trace" (Refused "$d/bad.djv");
          row "record bank -o $d/missing/bank.trace"
            (Refused "$d/missing/bank.trace");
          row "record bank -o $d/file/t.trace"
            (Refused "$d/file/t.trace");
          row "record bank -o $d/dir" (Refused "$d/dir");
          row "record bank -o $d/fifo" (Refused "$d/fifo")
            ~post:still_a_fifo;
          row "record bank -o /dev/null" (Refused "/dev/null");
          row "record bank" (Usage "--output");
        ] );
      ( "replay",
        [
          row "replay bank -i $d/bank.trace" (Exits (0, "verdict: ok"));
          row "replay bank -i $d/missing.trace"
            (Refused "$d/missing.trace");
          row "replay bank -i $d/file/t.trace" (Refused "$d/file/t.trace");
          row "replay bank -i $d/dir" (Refused "$d/dir");
          row "replay bank -i $d/fifo" (Refused "$d/fifo");
          row "replay bank -i /dev/null" (Refused "/dev/null");
          row "replay racy-counter -i $d/bank.trace" Rejected;
          row "replay bank -i $d/cut.trace" Rejected;
          row "replay bank -i $d/random.trace" Rejected;
          row "replay nope -i $d/bank.trace" (Refused "\"nope\"");
          row "replay $d/unknown.djv -i $d/bank.trace"
            (Refused "$d/unknown.djv");
          row "replay bank" (Usage "--input");
        ] );
      ( "verify",
        [
          row "verify bank" (Exits (0, "verdict: ok"));
          row "verify nope" (Refused "\"nope\"");
          row "verify $d/bad.djv" (Refused "$d/bad.djv");
          row "verify bank --seed x" (Usage "--seed");
        ] );
      ( "debug",
        [
          row "debug bank -i $d/bank.trace --batch continue"
            (Exits (0, "verdict: ok"));
          row "debug $d/unknown.djv --batch continue"
            (Refused "$d/unknown.djv");
          row "debug racy-counter -i $d/bank.trace --batch continue"
            Rejected;
          row "debug bank -i $d/cut.trace --batch continue"
            (Refused "$d/cut.trace");
          row "debug bank -i $d/random.trace --batch continue"
            (Refused "$d/random.trace");
          row "debug bank -i $d/missing.trace --batch continue"
            (Refused "$d/missing.trace");
          row "debug bank -i $d/dir --batch continue" (Refused "$d/dir");
          row "debug bank -i $d/fifo --batch continue"
            (Refused "$d/fifo");
        ] );
      ( "trace-dump",
        [
          row "trace-dump $d/bank.trace" (Exits (0, "program digest"));
          row "trace-dump $d/missing.trace" (Refused "$d/missing.trace");
          row "trace-dump $d/dir" (Refused "$d/dir");
          row "trace-dump $d/fifo" (Refused "$d/fifo");
          row "trace-dump /dev/null" (Refused "/dev/null");
          row "trace-dump $d/cut.trace" (Refused "$d/cut.trace");
          row "trace-dump $d/random.trace" (Refused "$d/random.trace");
          row "trace-dump" (Usage "TRACE");
        ] );
      ( "lint",
        [
          row "lint synced-counter" (Exits (0, "synced-counter"));
          row "lint racy-counter" (Exits (1, "racy-counter"));
          row "lint" (Refused "WORKLOAD");
          row "lint nope" (Refused "\"nope\"");
          row "lint $d/bad.djv" (Refused "$d/bad.djv");
          row "lint bank --baseline $d/missing.json"
            (Refused "$d/missing.json");
          row "lint bank --baseline $d/dir" (Refused "$d/dir");
          row "lint bank --baseline $d/fifo" (Refused "$d/fifo");
          row "lint bank --baseline $d/file" (Refused "$d/file");
        ] );
      ( "explore",
        [
          row "explore bank --max-schedules 5" (Exits (0, "schedules"));
          row "explore bank --shards 0" (Refused "--shards");
          row "explore nope" (Refused "\"nope\"");
          (* refused before the search: the line names the --out path
             itself, not the first failing schedule's trace inside it *)
          row "explore atomicity --out $d/file"
            (Refused "$d/file: Not a directory");
          row "explore atomicity --out $d/file/x" (Refused "$d/file/x");
          row "explore atomicity --shards 3 --out $d/file"
            (Refused "$d/file: Not a directory");
          row "explore atomicity --max-schedules 100000 --out $d/file"
            (Refused "$d/file: Not a directory");
          row "explore bank --pb x" (Usage "--pb");
        ] );
      ( "batch",
        [
          row "batch --shards 0" (Refused "--shards");
          row "batch --rounds=-1" (Refused "--rounds");
          row "batch --out $d/file" (Refused "$d/file");
          row "batch --out $d/file/out" (Refused "$d/file/out");
          row "batch --deadline nan" (Refused "nan");
          row "batch --deadline inf" (Refused "inf");
          row "batch --deadline 0" (Refused "--deadline");
          row "batch --deadline=-1" (Refused "-1");
          row "batch --shards x" (Usage "--shards");
        ] );
      ( "serve",
        [
          row "serve --socket $d/file/s.sock --out $d/out"
            (Refused "$d/file/s.sock");
          row "serve --socket $d/s.sock --out $d/file" (Refused "$d/file");
          row "serve --socket $d/keep --out $d/out" (Refused "$d/keep")
            ~post:(fun () ->
              Alcotest.(check string) "kept" "mine" (read (expand "$d/keep")));
          row "serve --socket $long --out $d/out" (Refused "$long");
          row "serve --shards 0" (Refused "--shards");
          row "serve --max-conns x" (Usage "--max-conns");
        ] );
      ( "submit",
        [
          row "submit --socket $d/missing.sock roundtrip bank"
            (Refused "$d/missing.sock");
          row "submit --socket $d/file lint bank" (Refused "$d/file");
          row "submit --socket $long lint bank" (Refused "$long");
          row "submit --socket $d/missing.sock lint $big"
            (Refused "5000 bytes");
          row "submit --deadline-ms=-1 roundtrip bank"
            (Refused "--deadline-ms");
          row "submit bogus" (Usage "bogus");
        ] );
    ]
