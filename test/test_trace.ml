(* Trace codec: tapes, varints, serialization, error handling. *)

open Tutil

module T = Dejavu.Trace

let mk ?(digest = "d") ?(switches = [||]) ?(legacy_clocks = [||])
    ?(inputs = [||]) ?(legacy_natives = [||]) ?(picks = [||]) ?(clocks = [||])
    ?(natives = [||]) () =
  {
    T.program_digest = digest;
    switches;
    legacy_clocks;
    inputs;
    legacy_natives;
    picks;
    clocks;
    natives;
  }

(* the seven sections, in file order *)
let sections (t : T.t) =
  [|
    t.T.switches; t.T.legacy_clocks; t.T.inputs; t.T.legacy_natives;
    t.T.picks; t.T.clocks; t.T.natives;
  |]

let trace_eq a b =
  a.T.program_digest = b.T.program_digest && sections a = sections b

let with_tmp f =
  let path = Filename.temp_file "dvtest" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* A malformed trace must fail with Format_error from memory and from a
   file holding the same bytes. *)
let rejects what s =
  let check decoder decode =
    match decode () with
    | exception T.Format_error _ -> ()
    | _ -> Alcotest.failf "%s accepted by %s" what decoder
  in
  check "of_bytes" (fun () -> T.of_bytes s);
  with_tmp (fun path ->
      write_file path s;
      check "load" (fun () -> T.load path))

(* --- Tape --------------------------------------------------------------- *)

let test_tape_push_read () =
  let t = T.Tape.create "t" in
  T.Tape.push t 1;
  T.Tape.push t 2;
  T.Tape.push t 3;
  Alcotest.(check int) "len" 3 (T.Tape.length t);
  Alcotest.(check int) "r1" 1 (T.Tape.read t);
  Alcotest.(check int) "r2" 2 (T.Tape.read t);
  Alcotest.(check int) "remaining" 1 (T.Tape.remaining t);
  Alcotest.(check int) "r3" 3 (T.Tape.read t);
  match T.Tape.read t with
  | exception T.End_of_tape "t" -> ()
  | _ -> Alcotest.fail "no end-of-tape"

let test_tape_growth () =
  let t = T.Tape.create "g" in
  for k = 0 to 9999 do
    T.Tape.push t k
  done;
  Alcotest.(check int) "len" 10000 (T.Tape.length t);
  let arr = T.Tape.to_array t in
  Alcotest.(check int) "arr len" 10000 (Array.length arr);
  Alcotest.(check int) "arr contents" 1234 arr.(1234)

let test_tape_read_opt () =
  let t = T.Tape.of_array "o" [| 5 |] in
  Alcotest.(check (option int)) "some" (Some 5) (T.Tape.read_opt t);
  Alcotest.(check (option int)) "none" None (T.Tape.read_opt t)

(* --- varints ------------------------------------------------------------ *)

(* Alone, a varint decodes on the checked path; with 10 bytes after it,
   on the fast path. *)
let varint_roundtrip v =
  let buf = Buffer.create 16 in
  T.put_varint buf v;
  List.iter
    (fun pad ->
      let got, pos = T.get_varint (Buffer.contents buf ^ pad) 0 in
      Alcotest.(check int) (Fmt.str "varint %d" v) v got;
      Alcotest.(check int) "consumed all" (Buffer.length buf) pos)
    [ ""; String.make 10 '\x00' ]

let test_varint_edges () =
  List.iter varint_roundtrip
    [ 0; 1; -1; 2; -2; 63; 64; -64; -65; 127; 128; 1 lsl 30; -(1 lsl 30);
      max_int; min_int; max_int - 1; min_int + 1 ]

let test_varint_truncated () =
  let buf = Buffer.create 16 in
  T.put_varint buf max_int;
  let s = Buffer.contents buf in
  let truncated = String.sub s 0 (String.length s - 1) in
  (match T.get_varint truncated 0 with
  | exception T.Format_error _ -> ()
  | _ -> Alcotest.fail "truncated varint accepted");
  (* a negative position is the caller's bug, refused before any read *)
  match T.get_varint (String.make 20 '\x01') (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative position accepted"

(* --- whole-trace serialization ------------------------------------------ *)

let test_roundtrip_empty () =
  let t = mk () in
  Alcotest.(check bool) "rt" true (trace_eq t (T.of_bytes (T.to_bytes t)))

let test_roundtrip_full () =
  let t =
    mk ~digest:(String.make 32 'a')
      ~switches:[| 1; 2; 3; 1000000 |]
      ~legacy_clocks:[| 0; 5; 1; 700; 2; 800 |]
      ~inputs:[| -5; 0; max_int |]
      ~legacy_natives:[| 1; 1; 42; 0 |]
      ~clocks:[| 20; 2801; 3; 2; max_int |]
      ~natives:[| 5; 42 |]
      ()
  in
  Alcotest.(check bool) "rt" true (trace_eq t (T.of_bytes (T.to_bytes t)))

(* The picks stream (explorer-steered dispatch) is an OPTIONAL trailing
   section: a picks-free trace encodes exactly as before this stream
   existed (four sections — byte-compatibility with old trace files), and
   a picks-bearing trace roundtrips through both codecs. *)
let test_picks_optional_section () =
  let plain = mk ~switches:[| 1; 2 |] () in
  let with_picks = mk ~switches:[| 1; 2 |] ~picks:[| 1; 2; 1 |] () in
  Alcotest.(check bool)
    "picks add bytes" true
    (String.length (T.to_bytes with_picks) > String.length (T.to_bytes plain));
  (* a 4-section encoding parses with empty picks *)
  let reparsed = T.of_bytes (T.to_bytes plain) in
  Alcotest.(check bool) "legacy parse" true (reparsed.T.picks = [||]);
  Alcotest.(check bool)
    "picks roundtrip" true
    (trace_eq with_picks (T.of_bytes (T.to_bytes with_picks)));
  Alcotest.(check int)
    "sizes counts picks" 3 (T.sizes with_picks).T.n_picks

let test_bad_magic () = rejects "bad magic" "NOPE\nxxxxx"

let test_trailing_bytes () =
  rejects "trailing bytes" (T.to_bytes (mk ()) ^ "junk")

let test_truncation () =
  let s = T.to_bytes (mk ~switches:[| 1; 2; 3 |] ()) in
  let cut = String.sub s 0 (String.length s - 2) in
  (* a section count far beyond the bytes left: rejected before any
     allocation is sized by it *)
  let header = T.to_bytes (mk ()) in
  let buf = Buffer.create 64 in
  Buffer.add_string buf (String.sub header 0 (String.length header - 4));
  T.put_varint buf (1 lsl 40);
  Buffer.add_string buf "\x00\x00\x00\x00";
  rejects "truncated trace" cut;
  rejects "section count past the end" (Buffer.contents buf)

let test_save_load () =
  let t = mk ~switches:[| 9; 8; 7 |] ~inputs:[| 1 |] () in
  let path = Filename.temp_file "trace" ".djv" in
  T.save path t;
  let t' = T.load path in
  Sys.remove path;
  Alcotest.(check bool) "rt" true (trace_eq t t')

(* --- native outcome encoding --------------------------------------------- *)

(* Each layout's decoder reads back what its encoder wrote: the library's
   compact one, and the legacy one of the test converter. *)
let test_native_outcome_codec () =
  let o1 = { Vm.Rt.no_result = Some 42; no_callbacks = [ (3, [| 1; 2 |]); (5, [||]) ] } in
  let o2 = { Vm.Rt.no_result = None; no_callbacks = [] } in
  List.iter
    (fun (layout, push, words) ->
      let tape = T.Tape.create "n" in
      push tape 7 o1;
      push tape 9 o2;
      Alcotest.(check int) "words" words (T.Tape.length tape);
      let id1, got1 = T.read_native layout tape in
      let id2, got2 = T.read_native layout tape in
      Alcotest.(check int) "id1" 7 id1;
      Alcotest.(check int) "id2" 9 id2;
      Alcotest.(check bool) "o1" true (got1 = o1);
      Alcotest.(check bool) "o2" true (got2 = o2);
      Alcotest.(check int) "consumed" 0 (T.Tape.remaining tape))
    [
      (T.Compact, T.push_native, 10); (T.Legacy, Layouts.push_legacy_native, 13);
    ]

(* Counts decoded from a tape are checked before they size anything: a
   negative callback count or arity is malformed input, and so is a
   compact entry that flags callbacks and then counts none. *)
let test_native_outcome_negative_counts () =
  List.iter
    (fun (what, layout, words) ->
      match T.read_native layout (T.Tape.of_array "n" words) with
      | exception T.Format_error _ -> ()
      | _ -> Alcotest.failf "accepted a bad %s" what)
    [
      ("callback count", T.Legacy, [| 4; 1; 2; -1 |]);
      ("callback count", T.Legacy, [| 4; 0; min_int |]);
      ("callback arity", T.Legacy, [| 4; 1; 2; 1; 3; -2 |]);
      ("callback count", T.Compact, [| 18; -1 |]);
      ("callback count", T.Compact, [| 18; 0 |]);
      ("callback arity", T.Compact, [| 19; 2; 1; 3; -2 |]);
    ]

(* A legacy clock read's tag is the replayer's to check; a compact escape
   must carry a tag of 0-2 and no delta. *)
let test_clock_escape_malformed () =
  List.iter
    (fun words ->
      match T.read_clock T.Compact (T.Tape.of_array "c" words) ~prev:0 with
      | exception T.Format_error _ -> ()
      | _ -> Alcotest.failf "accepted %a" Fmt.(Dump.array int) words)
    [ [| 3; 3; 5 |]; [| 3; -1; 5 |]; [| 7; 0; 5 |] ]

(* One word per read while the delta fits in +-2^59, three beyond; a
   wrap from max_int to min_int is a delta of 1. *)
let test_clock_entry_words () =
  List.iter
    (fun (what, prev, v, words) ->
      let tape = T.Tape.create "c" in
      T.push_clock tape ~prev 2 v;
      Alcotest.(check int) (what ^ ": words") words (T.Tape.length tape);
      Alcotest.(check (pair int int))
        (what ^ ": read back") (2, v)
        (T.read_clock T.Compact tape ~prev))
    [
      ("small", 100, 107, 1);
      ("+2^59", 0, 1 lsl 59, 1);
      ("-2^59", 0, -(1 lsl 59), 1);
      ("+2^59+1", 0, (1 lsl 59) + 1, 3);
      ("-2^59-1", 0, -(1 lsl 59) - 1, 3);
      ("max to min", max_int, min_int, 1);
      ("min to max", min_int, max_int, 1);
      ("0 to max", 0, max_int, 3);
      ("max to 0", max_int, 0, 3);
    ]

let test_sizes () =
  let t =
    mk ~switches:[| 1; 2 |] ~legacy_clocks:[| 0; 1; 1; 2 |] ~inputs:[| 3 |]
      ~legacy_natives:[| 1; 0; 0 |] ~clocks:[| 4; 3; 1; 99; 8 |]
      ~natives:[| 4 |] ()
  in
  let s = T.sizes t in
  Alcotest.(check int) "switches" 2 s.T.n_switches;
  (* 2 legacy pairs; 3 compact entries, one an escape of 3 words *)
  Alcotest.(check int) "clock reads" 5 s.T.n_clock_reads;
  Alcotest.(check int) "inputs" 1 s.T.n_inputs;
  Alcotest.(check int) "native words" 4 s.T.n_native_words;
  Alcotest.(check int) "total" 16 s.T.total_words;
  Alcotest.(check bool) "bytes positive" true (s.T.total_bytes > 0)

let test_reason_tags () =
  Alcotest.(check int) "app" 0 (T.tag_of_reason Vm.Rt.Capp);
  Alcotest.(check int) "sched" 1 (T.tag_of_reason Vm.Rt.Csched);
  Alcotest.(check int) "idle" 2 (T.tag_of_reason (Vm.Rt.Cidle 7));
  Alcotest.(check string) "name" "sched" (T.reason_name 1)

(* --- streaming writer / reader ----------------------------------------- *)

let sample_trace () =
  mk ~digest:"prog" ~switches:[| 3; 0; 150; 4096; 1 |]
    ~legacy_clocks:[| 0; 5; 1; 70000; 2; 123456789 |]
    ~inputs:[| 42; -17; 0 |]
    ~legacy_natives:[| 1; 0; 0; 2; 1; 99 |]
    ~clocks:[| 20; 279997; 3; 2; 123456789 |]
    ~natives:[| 4; 9; 99 |]
    ()

(* satellite: sizes must not re-serialize — encoded_size is arithmetic and
   must agree byte-for-byte with the real serialization *)
let test_encoded_size () =
  List.iter
    (fun t ->
      Alcotest.(check int)
        "encoded_size = |to_bytes|"
        (String.length (T.to_bytes t))
        (T.encoded_size t);
      Alcotest.(check int)
        "sizes.total_bytes agrees"
        (String.length (T.to_bytes t))
        (T.sizes t).T.total_bytes)
    [ mk (); sample_trace () ]

(* feed a materialized trace through the streaming writer and check the
   file is byte-identical to the batch serialization *)
let push_all w (t : T.t) =
  let tp = T.Writer.tapes w in
  Array.iteri (fun i sec -> Array.iter (T.Tape.push tp.(i)) sec) (sections t)

let stream_out ?buf_words path (t : T.t) =
  let w = T.Writer.create ?buf_words path in
  push_all w t;
  T.Writer.finish w ~program_digest:t.T.program_digest

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_writer_byte_identity () =
  let t = sample_trace () in
  with_tmp (fun path ->
      (* tiny buffer: force many sink flushes mid-stream *)
      let sizes = stream_out path t ~buf_words:2 in
      Alcotest.(check string)
        "streamed file = to_bytes" (T.to_bytes t) (read_file path);
      Alcotest.(check int)
        "incremental total_bytes"
        (String.length (T.to_bytes t))
        sizes.T.total_bytes)

let test_writer_bounded_buffer () =
  let t = sample_trace () in
  with_tmp (fun path ->
      (* with_tmp pre-creates an empty file; remove it so "no partial trace
         after abort" is observable as absence *)
      Sys.remove path;
      let w = T.Writer.create ~buf_words:2 path in
      let tp = T.Writer.tapes w in
      Array.iter (fun v -> T.Tape.push tp.(0) v) t.T.switches;
      Array.iter (fun v -> T.Tape.push tp.(3) v) t.T.legacy_natives;
      let peak = T.Writer.peak_buffered_words w in
      Alcotest.(check bool)
        (Fmt.str "peak %d bounded by 4 x cap" peak)
        true
        (peak <= 4 * 2);
      T.Writer.abort w;
      Alcotest.(check bool) "abort leaves no file" false (Sys.file_exists path))

let test_reader_roundtrip () =
  let t = sample_trace () in
  with_tmp (fun path ->
      ignore (stream_out path t ~buf_words:3);
      (* chunk of 2: every tape refills repeatedly *)
      let r = T.Reader.open_file ~chunk_words:2 path in
      Fun.protect
        ~finally:(fun () -> T.Reader.close r)
        (fun () ->
          Alcotest.(check string)
            "digest" t.T.program_digest (T.Reader.program_digest r);
          Array.iteri
            (fun k tp ->
              Alcotest.(check (array int))
                tp.T.Tape.name (sections t).(k)
                (Array.init (T.Tape.remaining tp) (fun _ -> T.Tape.read tp)))
            (T.Reader.tapes r)))

(* a loadable file, then truncated at every prefix length: the reader must
   raise Format_error (or report end-of-tape mid-read), never crash *)
let test_reader_truncation () =
  let t = sample_trace () in
  with_tmp (fun path ->
      ignore (stream_out path t ~buf_words:64);
      let whole = read_file path in
      for cut = 0 to String.length whole - 1 do
        let part = String.sub whole 0 cut in
        let oc = open_out_bin path in
        output_string oc part;
        close_out oc;
        match T.Reader.open_file ~chunk_words:2 path with
        | exception T.Format_error _ -> ()
        | r -> (
          (* header and counts parsed: reading past the cut must fail
             cleanly, not crash, unless the cut falls at the end of an
             optional section, which leaves the well-formed trace whose
             later sections are empty *)
          let full = sections t in
          let kept k = Array.mapi (fun i s -> if i < k then s else [||]) full in
          match
            Fun.protect
              ~finally:(fun () -> T.Reader.close r)
              (fun () ->
                Array.map
                  (fun tp ->
                    Array.init (T.Tape.remaining tp) (fun _ -> T.Tape.read tp))
                  (T.Reader.tapes r))
          with
          | secs ->
            if not (List.exists (fun k -> secs = kept k) [ 4; 5; 6 ]) then
              Alcotest.failf "cut %d read fully" cut
          | exception T.Format_error _ -> ()
          | exception T.End_of_tape _ -> ())
      done)

let test_reader_corrupt () =
  let t = sample_trace () in
  with_tmp (fun path ->
      ignore (stream_out path t ~buf_words:64);
      let whole = Bytes.of_string (read_file path) in
      (* smash a byte in the middle of the sections *)
      let mid = Bytes.length whole / 2 in
      Bytes.set whole mid '\xff';
      let oc = open_out_bin path in
      output_bytes oc whole;
      close_out oc;
      match T.Reader.open_file ~chunk_words:2 path with
      | exception T.Format_error _ -> ()
      | r ->
        Fun.protect
          ~finally:(fun () -> T.Reader.close r)
          (fun () ->
            match
              Array.iter
                (fun tp ->
                  while T.Tape.remaining tp > 0 do
                    ignore (T.Tape.read tp)
                  done)
                (T.Reader.tapes r)
            with
            | () -> () (* a flipped bit can still decode; fine *)
            | exception T.Format_error _ -> ()
            | exception T.End_of_tape _ -> ()))

(* --- block reader and single-file writer ---------------------------------- *)

(* every tape of [r] read to its end, in section order *)
let drain_all r =
  Array.map
    (fun tp -> Array.init (T.Tape.remaining tp) (fun _ -> T.Tape.read tp))
    (T.Reader.tapes r)

(* [n] values cycling through 9-, 1-, 9-, 4- and 2-byte varints, bracketed
   by 9-byte ones so every section boundary sits between two of them *)
let dense n =
  Array.init (n + 2) (fun k ->
      if k = 0 then max_int
      else if k = n + 1 then min_int
      else
        match k mod 5 with
        | 0 -> min_int
        | 1 -> -1
        | 2 -> max_int
        | 3 -> -(1 lsl 20)
        | _ -> 300)

(* Reader window size (not exported; a format-independent constant). *)
let window = 65536

let edges = [ window; 2 * window; 3 * window ]

(* ~265 KB: sections 0, 1 and 2 each hold one window edge, the other four
   come after the last, so a cut at any edge loses a mandatory section.
   The section holding an edge is padded with 1-byte values after its
   first until the byte before the edge is a continuation byte, i.e. a
   multi-byte varint straddles the edge. *)
let edge_trace () =
  let secs =
    [|
      dense 15_000; dense 15_000; dense 15_000; dense 4_000; dense 2_000;
      dense 1_000; dense 1_000;
    |]
  in
  let build () = T.of_sections "edges" (Array.copy secs) in
  List.iteri
    (fun i e ->
      while Char.code (T.to_bytes (build ())).[e - 1] land 0x80 = 0 do
        let s = secs.(i) in
        secs.(i) <-
          Array.concat [ [| s.(0); 0 |]; Array.sub s 1 (Array.length s - 1) ]
      done)
    edges;
  build ()

(* run [f], failing instead of hanging if it loops *)
let within_seconds n f =
  let old =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> failwith "timed out"))
  in
  ignore (Unix.alarm n);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm old)
    f

let test_reader_window_edges () =
  let t = edge_trace () in
  let bytes = T.to_bytes t in
  List.iter
    (fun e ->
      (* the fixture's premise: a multi-byte varint straddles each edge *)
      Alcotest.(check bool)
        (Fmt.str "varint straddles %d" e)
        true
        (Char.code bytes.[e - 1] land 0x80 <> 0))
    edges;
  Alcotest.(check bool)
    "three windows before natives" true
    (String.length bytes > 3 * window);
  let expect = sections t in
  Alcotest.(check bool)
    "of_bytes across windows" true
    (trace_eq t (T.of_bytes bytes));
  (* a reader that loops at a window edge fails here instead of hanging *)
  within_seconds 60 @@ fun () ->
  with_tmp (fun path ->
      write_file path bytes;
      List.iter
        (fun chunk_words ->
          let r = T.Reader.open_file ?chunk_words path in
          Fun.protect
            ~finally:(fun () -> T.Reader.close r)
            (fun () ->
              Alcotest.(check bool)
                "drained = source arrays" true
                (drain_all r = expect)))
        [ Some 1; Some 7; None ];
      List.iter
        (fun e ->
          List.iter
            (fun cut ->
              write_file path (String.sub bytes 0 cut);
              match
                let r = T.Reader.open_file ~chunk_words:7 path in
                Fun.protect
                  ~finally:(fun () -> T.Reader.close r)
                  (fun () -> drain_all r)
              with
              | _ -> Alcotest.failf "cut %d read fully" cut
              | exception T.Format_error _ -> ()
              | exception T.End_of_tape _ -> ())
            [ e - 1; e; e + 1 ])
        edges)

(* a scratch directory, removed with its contents afterwards *)
let with_dir f =
  let dir = Filename.temp_dir "dvtrace" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let listing dir = List.sort compare (Array.to_list (Sys.readdir dir))

let test_writer_scratch_lifecycle () =
  with_dir (fun dir ->
      let path = Filename.concat dir "t.trace" in
      (* below the cap: one scratch file, renamed into place *)
      let t = sample_trace () in
      let w = T.Writer.create path in
      push_all w t;
      Alcotest.(check (list string)) "only tmp" [ "t.trace.tmp" ] (listing dir);
      ignore (T.Writer.finish w ~program_digest:t.T.program_digest);
      Alcotest.(check (list string)) "only path" [ "t.trace" ] (listing dir);
      Sys.remove path;
      (* several times the cap (16 x buf_words bytes per stream; 64 KiB at
         the default), in two streams whose spills interleave *)
      let big =
        mk ~digest:"big" ~switches:(dense 60_000) ~natives:(dense 30_000)
          ~picks:(dense 10) ()
      in
      List.iter
        (fun buf_words ->
          let w = T.Writer.create ?buf_words path in
          push_all w big;
          Alcotest.(check (list string))
            "spilled" [ "t.trace.spill"; "t.trace.tmp" ] (listing dir);
          ignore (T.Writer.finish w ~program_digest:big.T.program_digest);
          Alcotest.(check (list string)) "only path" [ "t.trace" ] (listing dir);
          Alcotest.(check bool)
            "file = to_bytes" true
            (read_file path = T.to_bytes big);
          Sys.remove path)
        [ None; Some 2 ];
      (* abort after a spill leaves nothing *)
      let w = T.Writer.create ~buf_words:2 path in
      push_all w big;
      T.Writer.abort w;
      Alcotest.(check (list string)) "abort leaves nothing" [] (listing dir);
      (* an unwritable destination fails at create, leaving nothing *)
      let missing = Filename.concat dir "no-such-dir" in
      (match T.Writer.create (Filename.concat missing "t.trace") with
      | _ -> Alcotest.fail "create under a missing directory"
      | exception Sys_error _ -> ());
      Alcotest.(check (list string)) "create leaves nothing" [] (listing dir))

(* A destination the writer cannot use fails at [create] with a
   [Sys_error] naming it, not its scratch file, and leaves the directory
   as it was: a missing parent directory, and a FIFO the final rename
   would otherwise replace with a regular file. *)
let test_writer_bad_destination () =
  with_dir (fun dir ->
      let refused what path =
        match T.Writer.create path with
        | w ->
          T.Writer.abort w;
          Alcotest.failf "%s accepted" what
        | exception Sys_error msg ->
          Alcotest.(check bool)
            (Fmt.str "%s: %S names the path" what msg)
            true
            (String.starts_with ~prefix:(path ^ ": ") msg)
      in
      refused "missing directory"
        (Filename.concat (Filename.concat dir "missing") "t.trace");
      let fifo = Filename.concat dir "fifo" in
      Unix.mkfifo fifo 0o600;
      refused "fifo" fifo;
      Alcotest.(check bool)
        "still a fifo" true
        ((Unix.stat fifo).Unix.st_kind = Unix.S_FIFO);
      Alcotest.(check (list string)) "nothing added" [ "fifo" ] (listing dir))

(* DJVU2's second header field held a race-audit stamp in older builds.
   The reader bounds-checks it and drops it, so a stamped trace decodes to
   the same tapes as the unstamped bytes the writers produce now. *)
let test_reader_legacy_stamp () =
  let t = sample_trace () in
  let fresh = T.to_bytes t in
  let prefix =
    "DJVU2\n" ^ String.make 1 (Char.chr (2 * String.length t.T.program_digest))
    ^ t.T.program_digest
  in
  let n = String.length prefix in
  Alcotest.(check string) "fresh header" (prefix ^ "\x00") (String.sub fresh 0 (n + 1));
  let body = String.sub fresh (n + 1) (String.length fresh - n - 1) in
  let stamp = "070a75f7a05d6035" in
  let stamped =
    prefix ^ String.make 1 (Char.chr (2 * String.length stamp)) ^ stamp ^ body
  in
  Alcotest.(check bool) "of_bytes" true (trace_eq t (T.of_bytes stamped));
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc stamped;
      close_out oc;
      let r = T.Reader.open_file ~chunk_words:2 path in
      Fun.protect
        ~finally:(fun () -> T.Reader.close r)
        (fun () ->
          Alcotest.(check string) "digest" t.T.program_digest
            (T.Reader.program_digest r);
          Alcotest.(check bool) "tapes" true (drain_all r = sections t)));
  (* a cut inside the stamp, or a stamp length past the end, is malformed *)
  for cut = n + 1 to n + String.length stamp do
    match T.of_bytes (String.sub stamped 0 cut) with
    | _ -> Alcotest.failf "cut at %d decoded" cut
    | exception T.Format_error _ -> ()
  done;
  match T.of_bytes (prefix ^ "\x7e" ^ stamp) with
  | _ -> Alcotest.fail "overlong stamp decoded"
  | exception T.Format_error _ -> ()

(* Writer -> file -> Reader on random tapes up to 3x the spill cap, with
   random buffer and chunk sizes: the file is [to_bytes] and every tape
   drains back to its input. *)
let prop_stream_roundtrip =
  let int_gen =
    QCheck.Gen.(
      frequency
        [ (1, oneofl [ min_int; max_int; 0; -1 ]); (4, small_signed_int); (4, int) ])
  in
  let gen =
    QCheck.Gen.(
      int_range 1 64 >>= fun buf_words ->
      int_range 1 64 >>= fun chunk_words ->
      let tape = array_size (int_bound (3 * 16 * buf_words)) int_gen in
      array_repeat 7 tape >|= fun secs -> (buf_words, chunk_words, secs))
  in
  let print (b, c, secs) =
    Fmt.str "buf_words=%d chunk_words=%d lengths=%a" b c
      Fmt.(Dump.array int)
      (Array.map Array.length secs)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"writer -> file -> reader"
       (QCheck.make ~print gen)
       (fun (buf_words, chunk_words, secs) ->
         let t = T.of_sections "prop" secs in
         with_tmp (fun path ->
             ignore (stream_out path t ~buf_words);
             let r = T.Reader.open_file ~chunk_words path in
             Fun.protect
               ~finally:(fun () -> T.Reader.close r)
               (fun () ->
                 read_file path = T.to_bytes t && drain_all r = secs))))

(* At the default buffer size every stream spills once it passes 64 KiB
   of encoded bytes, which the property above (buf_words <= 64, tapes of
   at most 3 * 16 * buf_words values) never reaches: here two tapes of
   mostly 9-byte values spill several times each, and the file is still
   [to_bytes]. *)
let prop_writer_default_spills =
  let int_gen =
    QCheck.Gen.(
      frequency
        [ (1, oneofl [ min_int; max_int; 0; -1 ]); (1, small_signed_int); (6, int) ])
  in
  let gen =
    QCheck.Gen.(
      let tape n = array_size (int_range (n / 2) n) int_gen in
      tape 120_000 >>= fun big0 ->
      tape 120_000 >>= fun big3 ->
      array_repeat 3 (tape 5_000) >|= fun small ->
      [| big0; small.(0); small.(1); big3; small.(2) |])
  in
  let print secs =
    Fmt.str "lengths=%a" Fmt.(Dump.array int) (Array.map Array.length secs)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:4 ~name:"writer at default buf_words, spilling"
       (QCheck.make ~print gen)
       (fun secs ->
         let t =
           mk ~digest:"spills" ~switches:secs.(0) ~clocks:secs.(1)
             ~inputs:secs.(2) ~natives:secs.(3) ~picks:secs.(4) ()
         in
         with_tmp (fun path ->
             ignore (stream_out path t);
             let file = read_file path in
             String.length file > 2 * 3 * 16 * T.Writer.default_buf_words
             && file = T.to_bytes t)))

(* --- the fast decoder against the checked one -------------------------- *)

(* The varint rules stated once more, independently of the codec: up to 9
   groups of 7 bits, low group first, the last with its top bit clear and
   nonzero unless it is the only one. [s] is a run of varints and nothing
   else; [Error] names the first malformed one as the codec does, a
   varint cut short by the end of [s] being truncated whatever its
   length. *)
let spec_decode s =
  let n = String.length s in
  let rec value pos i acc =
    if pos + i >= n then Error "truncated varint"
    else if i = 9 then Error "oversized varint"
    else
      let b = Char.code s.[pos + i] in
      let acc = acc lor ((b land 0x7f) lsl (7 * i)) in
      if b >= 0x80 then value pos (i + 1) acc
      else if b = 0 && i > 0 then Error "non-canonical varint"
      else Ok ((acc lsr 1) lxor -(acc land 1), pos + i + 1)
  in
  let rec all pos acc =
    if pos = n then Ok (Array.of_list (List.rev acc))
    else
      match value pos 0 0 with
      | Error e -> Error e
      | Ok (v, pos) -> all pos (v :: acc)
  in
  all 0 []

(* [s] value by value through [get_varint]; [Error] carries the
   [Format_error] message. *)
let get_all s =
  let rec all pos acc =
    if pos = String.length s then Ok (Array.of_list (List.rev acc))
    else
      match T.get_varint s pos with
      | v, pos -> all pos (v :: acc)
      | exception T.Format_error e -> Error e
  in
  all 0 []

(* A trace whose switches section is [body] verbatim, its count the
   number of varint terminators in [body]; the other sections empty. *)
let trace_around body =
  let empty = T.to_bytes (mk ~digest:"" ()) in
  (* header, then four zero counts *)
  let header = String.sub empty 0 (String.length empty - 4) in
  let b = Buffer.create (String.length body + 16) in
  Buffer.add_string b header;
  T.put_varint b
    (String.fold_left (fun n c -> if Char.code c < 0x80 then n + 1 else n) 0 body);
  Buffer.add_string b body;
  Buffer.add_string b "\x00\x00\x00";
  Buffer.contents b

(* Every section decodes alike through the reader, in memory at the
   default chunk size and from a file at [chunk_words] 1-64, and value by
   value through [get_varint]: the same values, or [Format_error] from
   both, never another exception — and the values, or the error, the
   independent [spec_decode] finds ([get_varint] raising its very
   message; the reader may name the damage as a section's). A section is random values (63-bit extremes and
   7-bit group boundaries among them), then one byte flipped, a 10-byte
   varint or a non-canonical one spliced in, or the section cut at the
   position and ended by up to 9 continuation bytes; the position is
   anywhere, or among the last 10 bytes of the section or of the first
   refill window ([9 * chunk_words] bytes), where the decoder must leave
   its fast path. *)
let prop_fast_decoder =
  let value_gen =
    QCheck.Gen.(
      frequency
        [
          (1, oneofl [ min_int; max_int; 0; -1; min_int + 1; max_int - 1 ]);
          ( 2,
            int_range 1 8 >>= fun k ->
            oneofl [ 1 lsl (7 * k); (1 lsl (7 * k)) - 1 ] >>= fun v ->
            oneofl [ v; -v; (v / 2) - 1; -(v / 2) ] );
          (3, small_signed_int);
          (3, int);
        ])
  in
  let encode vals =
    let b = Buffer.create 64 in
    Array.iter (T.put_varint b) vals;
    Buffer.contents b
  in
  let gen =
    QCheck.Gen.(
      array_size (int_bound 120) value_gen >>= fun vals ->
      int_range 1 64 >>= fun chunk_words ->
      int_bound 4 >>= fun op ->
      int_range 1 255 >>= fun byte ->
      int_bound 9 >>= fun back ->
      let body = encode vals in
      let len = String.length body in
      frequency
        [
          (2, int_bound len);
          (1, return (len - 1 - back));
          (1, return ((9 * chunk_words) - 1 - back));
        ]
      >|= fun pos -> (vals, chunk_words, op, byte, max 0 (min len pos)))
  in
  let mutated (vals, _, op, byte, pos) =
    let body = encode vals in
    let splice s = String.sub body 0 pos ^ s ^ String.sub body pos (String.length body - pos) in
    match op with
    | 0 -> body
    | 1 -> if body = "" then body else Tutil.mutate body 0 pos byte
    | 2 ->
      (* nine continuation bytes and a last one: a 10th group *)
      splice
        (String.make 9 (Char.chr (0x80 lor (byte land 0x7f)))
        ^ String.make 1 (Char.chr (byte land 0x7f)))
    | 4 ->
      (* cut short: the section ends after 1-9 continuation bytes *)
      String.sub body 0 pos ^ String.make (1 + (byte mod 9)) '\x80'
    | _ ->
      (* a small value whose last group is followed by an empty one *)
      let v = encode [| byte - 128 |] in
      let n = String.length v in
      splice
        (String.sub v 0 (n - 1)
        ^ String.make 1 (Char.chr (Char.code v.[n - 1] lor 0x80))
        ^ "\x00")
  in
  let print ((vals, chunk_words, op, byte, pos) as case) =
    Fmt.str "values=%a chunk_words=%d op=%d byte=%d pos=%d body=%S"
      Fmt.(Dump.array int)
      vals chunk_words op byte pos (mutated case)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400 ~name:"fast decoder = checked decoder"
       (QCheck.make ~print gen)
       (fun ((vals, chunk_words, op, _, _) as case) ->
         let body = mutated case in
         let file = trace_around body in
         let in_memory =
           match T.of_bytes file with
           | t -> Some t.T.switches
           | exception T.Format_error _ -> None
         in
         let from_file =
           with_tmp (fun path ->
               write_file path file;
               match T.Reader.open_file ~chunk_words path with
               | exception T.Format_error _ -> None
               | r -> (
                 Fun.protect
                   ~finally:(fun () -> T.Reader.close r)
                   (fun () ->
                     match drain_all r with
                     | secs -> Some secs.(0)
                     | exception T.Format_error _ -> None)))
         in
         let spec = spec_decode body in
         let values = Result.to_option spec in
         get_all body = spec
         && in_memory = values && from_file = values
         && (op <> 0 || spec = Ok vals)))

(* --- compact clock and native sections ------------------------------- *)

(* Clock values as a session reads them: mostly small forward steps, with
   jumps to arbitrary values and deltas at and just past +-2^59, so the
   escape and 63-bit wraparound come up in most sequences. *)
let clock_reads_gen =
  let open QCheck.Gen in
  let edge = 1 lsl 59 in
  let move =
    frequency
      [
        (6, map (fun d prev -> prev + d) (int_bound 100_000));
        ( 2,
          map
            (fun v _ -> v)
            (oneof [ int; oneofl [ min_int; max_int; 0; edge; -edge - 1 ] ])
        );
        ( 2,
          map
            (fun d prev -> prev + d)
            (oneofl [ edge; edge + 1; -edge; -edge - 1; max_int; min_int ]) );
      ]
  in
  list_size (int_bound 40) (pair (int_bound 2) move) >|= fun moves ->
  let prev = ref 0 in
  List.map
    (fun (tag, f) ->
      prev := f !prev;
      (tag, !prev))
    moves

let native_outcomes_gen =
  let open QCheck.Gen in
  let small_arr = array_size (int_bound 3) int in
  let outcome =
    map2
      (fun no_result no_callbacks -> { Vm.Rt.no_result; no_callbacks })
      (opt int)
      (list_size (int_bound 3) (pair (int_bound 10_000) small_arr))
  in
  list_size (int_bound 20) (pair (int_bound (1 lsl 20)) outcome)

let print_reads = Fmt.(str "%a" Dump.(list (pair int int)))

let print_outcomes outs =
  Fmt.str "%a"
    Fmt.(
      Dump.list
        (Dump.pair int (fun ppf (o : Vm.Rt.native_outcome) ->
             Fmt.pf ppf "%a/%d callbacks" Dump.(option int) o.no_result
               (List.length o.no_callbacks))))
    outs

(* Clock reads with reasons 0-2 roundtrip through the one encoder and the
   one decoder, every value exact: escapes and wraparound included. *)
let prop_clock_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"compact clock entries roundtrip"
       (QCheck.make ~print:print_reads clock_reads_gen)
       (fun reads ->
         let t = Layouts.with_clock_reads T.Compact reads (mk ()) in
         Layouts.clock_reads t = reads
         && Layouts.clock_reads (Layouts.legacy t) = reads
         && (T.sizes t).T.n_clock_reads = List.length reads))

(* Native outcomes, with and without a result and with 0-3 callbacks,
   roundtrip in both layouts. *)
let prop_native_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"native entries roundtrip, both layouts"
       (QCheck.make ~print:print_outcomes native_outcomes_gen)
       (fun outs ->
         List.for_all
           (fun layout ->
             Layouts.native_outcomes
               (Layouts.with_native_outcomes layout outs (mk ()))
             = outs)
           [ T.Compact; T.Legacy ]))

(* The streaming writer at 1 and 3 buffered words per tape flushes inside
   escapes and native entries, and must still write [to_bytes]'s bytes and
   count the reads [sizes] counts. *)
let prop_compact_writer =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"compact sections through the writer"
       (QCheck.make
          ~print:(fun (r, o) -> print_reads r ^ " " ^ print_outcomes o)
          (QCheck.Gen.pair clock_reads_gen native_outcomes_gen))
       (fun (reads, outs) ->
         let t =
           mk ~switches:[| 1; 2 |] ()
           |> Layouts.with_clock_reads T.Compact reads
           |> Layouts.with_native_outcomes T.Compact outs
         in
         List.for_all
           (fun buf_words ->
             with_tmp (fun path ->
                 let sizes = stream_out path t ~buf_words in
                 read_file path = T.to_bytes t && sizes = T.sizes t))
           [ 1; 3 ]))

(* Without clock reads or native outcomes a trace keeps the four-section
   layout; with them it carries all seven, the legacy two empty; and one
   kind in both its layouts cannot be replayed. *)
let test_compact_layout () =
  let plain = mk ~switches:[| 1; 2 |] () in
  let four = "DJVU2\n\002d\000\004\002\004\000\000\000" in
  let timed = Layouts.with_clock_reads T.Compact [ (0, 5); (1, 9) ] plain in
  let native =
    Layouts.with_native_outcomes T.Compact
      [ (1, { Vm.Rt.no_result = None; no_callbacks = [] }) ]
      plain
  in
  let both_kinds =
    Layouts.with_native_outcomes T.Compact (Layouts.native_outcomes native)
      timed
  in
  List.iter
    (fun (what, t, expect) ->
      Alcotest.(check string)
        what (String.escaped expect)
        (String.escaped (T.to_bytes t)))
    [
      ("no clock, no native: four sections", plain, four);
      ("clocks: six sections", timed, four ^ "\000\004(\"");
      ("natives: seven sections", native, four ^ "\000\000\002\b");
      ("both: seven sections", both_kinds, four ^ "\000\004(\"\002\b");
    ];
  let both = { timed with legacy_clocks = [| 0; 5 |] } in
  match T.clock_source (T.tapes both) with
  | _ -> Alcotest.fail "clock reads in both layouts accepted"
  | exception T.Format_error msg ->
    Alcotest.(check bool) msg true (contains msg "both")

let () =
  Alcotest.run "trace"
    [
      ( "tape",
        [
          quick "push/read" test_tape_push_read;
          quick "growth" test_tape_growth;
          quick "read_opt" test_tape_read_opt;
        ] );
      ( "varint",
        [ quick "edges" test_varint_edges; quick "truncated" test_varint_truncated ] );
      ( "codec",
        [
          quick "roundtrip empty" test_roundtrip_empty;
          quick "roundtrip full" test_roundtrip_full;
          quick "picks optional section" test_picks_optional_section;
          quick "bad magic" test_bad_magic;
          quick "trailing bytes" test_trailing_bytes;
          quick "truncation" test_truncation;
          quick "save/load" test_save_load;
          quick "native outcomes" test_native_outcome_codec;
          quick "native outcome negative counts"
            test_native_outcome_negative_counts;
          quick "sizes" test_sizes;
          quick "reason tags" test_reason_tags;
        ] );
      ( "streaming",
        [
          quick "encoded size" test_encoded_size;
          quick "writer byte identity" test_writer_byte_identity;
          quick "writer bounded buffer" test_writer_bounded_buffer;
          quick "reader roundtrip" test_reader_roundtrip;
          quick "reader truncation" test_reader_truncation;
          quick "reader corrupt" test_reader_corrupt;
          quick "reader window edges" test_reader_window_edges;
          quick "writer scratch lifecycle" test_writer_scratch_lifecycle;
          quick "writer bad destination" test_writer_bad_destination;
          quick "reader legacy stamp" test_reader_legacy_stamp;
          prop_stream_roundtrip;
          prop_writer_default_spills;
          prop_fast_decoder;
        ] );
      ( "compact",
        [
          quick "clock entry words" test_clock_entry_words;
          quick "clock escape malformed" test_clock_escape_malformed;
          quick "layout" test_compact_layout;
          prop_clock_roundtrip;
          prop_native_roundtrip;
          prop_compact_writer;
        ] );
    ]
