(* Trace representation and codec.

   Following the paper (footnote 7: wall-clock logging "need be done
   independently of thread switch information in all replay schemes"), a
   trace holds one tape per non-deterministic event kind, one section each
   on disk, in this order:
     0 switches:        yield-point deltas (nyp) between preemptive thread
                        switches
     1 legacy clocks:   (reason, value) pairs, one per wall-clock read
     2 inputs:          external input values
     3 legacy natives:  native-call outcomes, four words or more each
     4 picks:           dispatch-override decisions (one tid per h_pick
                        consultation), recorded only by controlled
                        schedulers
     5 clocks:          compact clock entries (below)
     6 natives:         compact native entries (below)
   Sections 0-3 are always written. Sections 4-6 are optional: a trailing
   run of empty ones is left out, so a trace with no picks, clock read or
   native call is byte-identical to a DJVU2 file written before those
   sections existed. New recordings write clock reads and native outcomes
   in the compact sections 5 and 6 and leave sections 1 and 3 empty;
   traces of older builds hold them in sections 1 and 3 and still replay.
   Replay decodes each kind in the layout of the section that holds its
   data ([clock_source], [native_source]); data in both is malformed.

   Compact clock entry: one word [(d lsl 2) lor tag], [d] the value minus
   the session's previous clock value (0 before the first read), [tag] the
   reason (0-2). Tag 3 escapes a delta outside +-2^59, which a guest sleep
   or 63-bit wraparound can produce: the next two words hold the tag and
   the absolute value. Compact native entry: a header word [(nat_id lsl 2)
   lor has_result lor (has_callbacks lsl 1)], the result word if there is
   one, and, only if there are callbacks, their count and the callbacks
   [(uid; nargs; args...)*] as in the legacy record. [push_clock]/
   [read_clock] and [push_native]/[read_native] are the one encoder and
   decoder of each kind.

   Tapes are flat integer sequences; the file format is a zigzag-varint
   stream with a header carrying a structural digest of the program so a
   trace cannot be replayed against the wrong code.

   Each codec job exists once: [to_bytes] is the reference encoder,
   [Writer] the one file writer (also behind [save]), [Reader] the one
   decoder (also behind [of_bytes] and [load]); [put_header] serves both
   encoders. The two encoders share no per-value code: [to_bytes] (and the
   wire protocol) go value by value through [put_varint], while the writer
   encodes each flushed tape chunk in one bulk loop ([encode_chunk]), so a
   test comparing the writer's file with [to_bytes] checks one encoder
   against the other. The decoder has a single [read_varint] with an
   unchecked fast path taken when a whole varint's worth of bytes is
   buffered, so refills, the header scan and the wire all share it. *)

exception End_of_tape of string

exception Format_error of string

module Tape = struct
  type t = {
    name : string;
    mutable data : int array;
    mutable len : int;
    mutable rd : int; (* read cursor (replay) *)
    mutable base : int; (* elements flushed to a sink / consumed by refills *)
    mutable pending : int; (* elements still in the source beyond [data] *)
    mutable sink : (int array -> int -> unit) option;
        (* streaming record: drains [data.(0..len)] when the buffer fills *)
    mutable refill : (t -> bool) option;
        (* streaming replay: loads the next chunk; false at end of stream *)
  }

  let of_array name data =
    {
      name;
      data;
      len = Array.length data;
      rd = 0;
      base = 0;
      pending = 0;
      sink = None;
      refill = None;
    }

  let create name = { (of_array name (Array.make 64 0)) with len = 0 }

  (* A tape draining into [sink]: the buffer is a fixed [cap] words, flushed
     whenever it fills, so a recording holds at most [cap] unflushed words
     per tape regardless of run length. *)
  let with_sink name ~cap sink =
    let t = of_array name (Array.make (max 1 cap) 0) in
    { t with len = 0; sink = Some sink }

  (* A tape filled on demand by [refill]; [pending] is the element count the
     source still holds, so [remaining] stays exact for leftover checks. *)
  let of_refill name ~pending refill =
    { (of_array name [||]) with pending; refill = Some refill }

  let is_streaming t = t.sink <> None || t.refill <> None

  let flush t =
    match t.sink with
    | Some f when t.len > 0 ->
      f t.data t.len;
      t.base <- t.base + t.len;
      t.len <- 0
    | _ -> ()

  let push t v =
    if t.len >= Array.length t.data then begin
      match t.sink with
      | Some _ -> flush t
      | None ->
        let bigger = Array.make (2 * Array.length t.data) 0 in
        Array.blit t.data 0 bigger 0 t.len;
        t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let rec read t =
    if t.rd >= t.len then begin
      match t.refill with
      | Some f when f t -> read t
      | _ -> raise (End_of_tape t.name)
    end
    else begin
      let v = t.data.(t.rd) in
      t.rd <- t.rd + 1;
      v
    end

  let read_opt t = match read t with v -> Some v | exception End_of_tape _ -> None

  let remaining t = t.len - t.rd + t.pending

  let length t = t.base + t.len

  let to_array t =
    if is_streaming t then
      invalid_arg (Fmt.str "Tape.to_array: %s is a streaming tape" t.name);
    Array.sub t.data 0 t.len
end

type t = {
  program_digest : string;
  switches : int array;
  legacy_clocks : int array; (* section 1: (reason, value) pairs *)
  inputs : int array;
  legacy_natives : int array; (* section 3: legacy native records *)
  picks : int array; (* dispatch overrides; [||] for ordinary recordings *)
  clocks : int array; (* section 5: compact clock entries *)
  natives : int array; (* section 6: compact native entries *)
}

(* Clock-read reason tags. *)
let tag_of_reason = function
  | Vm.Rt.Capp -> 0
  | Vm.Rt.Csched -> 1
  | Vm.Rt.Cidle _ -> 2

let reason_name = function
  | 0 -> "app"
  | 1 -> "sched"
  | 2 -> "idle"
  | _ -> "?"

type layout = Legacy | Compact

(* --- clock entries ----------------------------------------------------- *)

let escape_tag = 3

(* The largest delta magnitude a one-word entry carries: [d lsl 2] must
   not overflow 63 bits. *)
let max_delta = 1 lsl 59

let push_clock tape ~prev tag v =
  let d = v - prev in
  if d >= -max_delta && d <= max_delta then Tape.push tape ((d lsl 2) lor tag)
  else begin
    Tape.push tape escape_tag;
    Tape.push tape tag;
    Tape.push tape v
  end

let read_clock layout tape ~prev =
  match layout with
  | Legacy ->
    let tag = Tape.read tape in
    (tag, Tape.read tape)
  | Compact ->
    let w = Tape.read tape in
    let tag = w land 3 in
    if tag <> escape_tag then (tag, prev + (w asr 2))
    else begin
      if w <> escape_tag then
        raise (Format_error (Fmt.str "bad clock escape word %d" w));
      match Tape.read tape with
      | tag when tag >= 0 && tag < escape_tag -> (tag, Tape.read tape)
      | tag -> raise (Format_error (Fmt.str "bad escaped clock tag %d" tag))
    end

(* Clock reads among [len] words of a compact section, of which the first
   [owed] finish an escape begun before them: returns the reads begun and
   the words the last escape still owes. The writer counts a section a
   flushed chunk at a time, so an escape may straddle two chunks. *)
let count_clock_entries ~owed data len =
  let reads = ref 0 and owed = ref owed in
  for k = 0 to len - 1 do
    if !owed > 0 then decr owed
    else begin
      incr reads;
      if data.(k) land 3 = escape_tag then owed := 2
    end
  done;
  (!reads, !owed)

(* --- native entries ---------------------------------------------------- *)

let push_native tape nat_id (o : Vm.Rt.native_outcome) =
  let has_result = if Option.is_some o.no_result then 1 else 0 in
  let has_callbacks = if o.no_callbacks <> [] then 2 else 0 in
  Tape.push tape ((nat_id lsl 2) lor has_result lor has_callbacks);
  Option.iter (Tape.push tape) o.no_result;
  if has_callbacks <> 0 then begin
    Tape.push tape (List.length o.no_callbacks);
    List.iter
      (fun (uid, args) ->
        Tape.push tape uid;
        Tape.push tape (Array.length args);
        Array.iter (Tape.push tape) args)
      o.no_callbacks
  end

(* Legacy record: [native_id; has_result; result?; n_callbacks; (uid;
   nargs; args...)*]. *)
let read_native layout tape : int * Vm.Rt.native_outcome =
  let count what ~min =
    match Tape.read tape with
    | n when n < min ->
      let how = if n < 0 then "negative" else "bad" in
      raise (Format_error (Fmt.str "%s %s %d" how what n))
    | n -> n
  in
  let callbacks n =
    List.init n (fun _ ->
        let uid = Tape.read tape in
        let n = count "callback arity" ~min:0 in
        (uid, Array.init n (fun _ -> Tape.read tape)))
  in
  match layout with
  | Legacy ->
    let nat_id = Tape.read tape in
    let no_result =
      match Tape.read tape with
      | 1 -> Some (Tape.read tape)
      | 0 -> None
      | k -> raise (Format_error (Fmt.str "bad has_result %d" k))
    in
    let no_callbacks = callbacks (count "callback count" ~min:0) in
    (nat_id, { Vm.Rt.no_result; no_callbacks })
  | Compact ->
    let h = Tape.read tape in
    let no_result = if h land 1 <> 0 then Some (Tape.read tape) else None in
    let no_callbacks =
      if h land 2 <> 0 then callbacks (count "callback count" ~min:1) else []
    in
    (h asr 2, { Vm.Rt.no_result; no_callbacks })

(* --- statistics ------------------------------------------------------- *)

type sizes = {
  n_switches : int;
  n_clock_reads : int;
  n_inputs : int;
  n_native_words : int;
  n_picks : int;
  total_words : int;
  total_bytes : int; (* size of the serialized form *)
}

(* --- serialization ---------------------------------------------------- *)

(* The DJVU2 header: magic, the program digest, and a second string field
   that is written empty and skipped on read (traces of older builds carry
   a race-audit stamp there). *)
let magic = "DJVU2\n"

let zigzag v = (v lsl 1) lxor (v asr 62)

let unzigzag v = (v lsr 1) lxor (-(v land 1))

(* The reference encoder of one value, behind [to_bytes], the header and
   the wire protocol. *)
let put_varint buf v =
  let v = ref (zigzag v) in
  let continue_ = ref true in
  while !continue_ do
    let b = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue_ := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

(* A zigzagged 63-bit int spans at most 9 groups of 7 bits. *)
let max_varint_bytes = 9

(* The writer's bulk encoder: [data.(0 .. len)] into [buf] from [pos] in
   one loop, returning the end position. The caller checks capacity once
   for the whole chunk — [len <= Array.length data] and [max_varint_bytes
   * len] bytes free from [pos] — so no byte write is bounds-checked. It
   writes the bytes [put_varint] writes for each value. *)
let encode_chunk buf pos data len =
  let p = ref pos in
  for k = 0 to len - 1 do
    let z = ref (zigzag (Array.unsafe_get data k)) in
    while !z land lnot 0x7f <> 0 do
      Bytes.unsafe_set buf !p (Char.unsafe_chr (!z land 0x7f lor 0x80));
      z := !z lsr 7;
      incr p
    done;
    Bytes.unsafe_set buf !p (Char.unsafe_chr !z);
    incr p
  done;
  !p

(* A decoding position over [buf.[pos .. lim)], with [lim <= Bytes.length
   buf]. *)
type cursor = { buf : Bytes.t; mutable pos : int; mutable lim : int }

(* The one varint decoder: the reader's header scan and refills (and so
   [of_bytes] and [load]) and the wire protocol all go through it.

   A 63-bit zigzagged int needs at most 9 groups of 7 bits, i.e. shifts
   0..56; a 10th continuation byte would shift past bit 62, which [lsl]
   leaves unspecified — reject it. A final byte of 0 past the first group
   is a non-canonical encoding [put_varint] never produces; reject it too
   so every value has exactly one byte representation.

   [read_varint_checked] tests the cursor's limit before every byte.
   [read_varint] skips those tests when at least 10 bytes remain: the
   longest valid varint and the byte that proves a 10th group all lie
   within [lim <= Bytes.length buf], so the fast path reads them
   unchecked and raises the same [Format_error] at the same position. *)
let read_varint_checked c =
  let v = ref 0 and shift = ref 0 and continue_ = ref true in
  while !continue_ do
    if c.pos >= c.lim then raise (Format_error "truncated varint");
    if !shift > 56 then raise (Format_error "oversized varint");
    let b = Char.code (Bytes.get c.buf c.pos) in
    c.pos <- c.pos + 1;
    v := !v lor ((b land 0x7f) lsl !shift);
    if b land 0x80 = 0 then begin
      if b = 0 && !shift > 0 then
        raise (Format_error "non-canonical varint");
      continue_ := false
    end
    else shift := !shift + 7
  done;
  unzigzag !v

(* Byte [i >= 1] of the varint at [pos], [v] holding groups [0 .. i). *)
let rec read_varint_rest c pos i v =
  let b = Char.code (Bytes.unsafe_get c.buf (pos + i)) in
  let v = v lor ((b land 0x7f) lsl (7 * i)) in
  if b < 0x80 then begin
    c.pos <- pos + i + 1;
    if b = 0 then raise (Format_error "non-canonical varint");
    unzigzag v
  end
  else if i = max_varint_bytes - 1 then begin
    c.pos <- pos + max_varint_bytes;
    raise (Format_error "oversized varint")
  end
  else read_varint_rest c pos (i + 1) v

let read_varint c =
  let pos = c.pos in
  if c.lim - pos <= max_varint_bytes then read_varint_checked c
  else
    let b = Char.code (Bytes.unsafe_get c.buf pos) in
    if b < 0x80 then begin
      c.pos <- pos + 1;
      unzigzag b
    end
    else read_varint_rest c pos 1 (b land 0x7f)

let get_varint s pos =
  if pos < 0 then invalid_arg "Trace.get_varint: negative position";
  let c = { buf = Bytes.unsafe_of_string s; pos; lim = String.length s } in
  let v = read_varint c in
  (v, c.pos)

(* A section's element count. Every element takes at least one byte, so a
   count beyond the [avail] bytes left is a truncation, caught before
   anything is allocated or scanned. *)
let check_count n ~avail =
  if n < 0 then raise (Format_error "negative section length");
  if n > avail then raise (Format_error "truncated section");
  n

(* Encoded size of one value, without producing the bytes: a zigzagged
   63-bit int occupies ceil(bits/7) groups of 7. *)
let varint_size v =
  let z = zigzag v in
  let rec go z n = if z lsr 7 = 0 then n else go (z lsr 7) (n + 1) in
  go z 1

(* The seven sections, in file order. The first four are always written;
   a trailing run of empty ones among the other three is left out, so every
   trace without dispatch overrides, clock reads or native calls keeps the
   original 4-section layout bit-for-bit. *)
let section_names =
  [|
    "switches"; "legacy-clocks"; "inputs"; "legacy-natives"; "picks";
    "clocks"; "natives";
  |]

let mandatory_sections = 4

(* Where each layout keeps clock reads and native outcomes. *)
let legacy_clock_section = 1

let legacy_native_section = 3

let clock_section = 5

let native_section = 6

(* Sections written for these per-section element counts: the mandatory
   four, and every optional one up to the last non-empty one. *)
let n_written counts =
  let n = ref mandatory_sections in
  Array.iteri (fun i c -> if c > 0 then n := max !n (i + 1)) counts;
  !n

let sections (t : t) =
  [|
    t.switches; t.legacy_clocks; t.inputs; t.legacy_natives; t.picks;
    t.clocks; t.natives;
  |]

let of_sections program_digest a =
  {
    program_digest;
    switches = a.(0);
    legacy_clocks = a.(1);
    inputs = a.(2);
    legacy_natives = a.(3);
    picks = a.(4);
    clocks = a.(5);
    natives = a.(6);
  }

let new_tapes () = Array.map Tape.create section_names

let tapes (t : t) = Array.map2 Tape.of_array section_names (sections t)

(* The layout a kind's data is in and the tape that holds it, from the
   seven tapes in section order: the compact section unless only the
   legacy one holds data. *)
let source what tapes ~legacy ~compact =
  let l = tapes.(legacy) and c = tapes.(compact) in
  match (Tape.remaining l > 0, Tape.remaining c > 0) with
  | true, true ->
    raise
      (Format_error
         (Fmt.str "%s in both the legacy and the compact section" what))
  | true, false -> (Legacy, l)
  | false, _ -> (Compact, c)

let clock_source tapes =
  source "clock reads" tapes ~legacy:legacy_clock_section
    ~compact:clock_section

let native_source tapes =
  source "native outcomes" tapes ~legacy:legacy_native_section
    ~compact:native_section

(* The header, shared by [to_bytes] and [Writer.finish]. *)
let put_header buf ~program_digest =
  Buffer.add_string buf magic;
  put_varint buf (String.length program_digest);
  Buffer.add_string buf program_digest;
  put_varint buf 0

(* The reference encoder: the whole trace in one string. [Writer] must
   write the same bytes; the two share only [put_header] and [put_varint],
   so a test comparing them checks the writer's section layout against an
   independent one. *)
let to_bytes (t : t) : string =
  let buf = Buffer.create 4096 in
  put_header buf ~program_digest:t.program_digest;
  let secs = sections t in
  for i = 0 to n_written (Array.map Array.length secs) - 1 do
    put_varint buf (Array.length secs.(i));
    Array.iter (put_varint buf) secs.(i)
  done;
  Buffer.contents buf

(* Byte size of the serialized form, computed arithmetically — no buffer is
   materialized, so statistics on a large trace cost no allocation spike. *)
let encoded_size (t : t) : int =
  let field s = varint_size (String.length s) + String.length s in
  let secs = sections t in
  let n = n_written (Array.map Array.length secs) in
  let section i arr =
    if i >= n then 0
    else
      Array.fold_left
        (fun acc v -> acc + varint_size v)
        (varint_size (Array.length arr))
        arr
  in
  String.length magic + field t.program_digest + field ""
  + Array.fold_left ( + ) 0 (Array.mapi section secs)

(* Statistics from per-section element counts, in section order, and the
   clock reads the compact clock section holds (which its word count does
   not tell, escapes taking three words). *)
let sizes_of_counts counts ~compact_clock_reads ~total_bytes =
  {
    n_switches = counts.(0);
    n_clock_reads = (counts.(1) / 2) + compact_clock_reads;
    n_inputs = counts.(2);
    n_native_words = counts.(3) + counts.(6);
    n_picks = counts.(4);
    total_words = Array.fold_left ( + ) 0 counts;
    total_bytes;
  }

let sizes (t : t) : sizes =
  sizes_of_counts
    (Array.map Array.length (sections t))
    ~compact_clock_reads:
      (fst (count_clock_entries ~owed:0 t.clocks (Array.length t.clocks)))
    ~total_bytes:(encoded_size t)

let pp_sizes ppf s =
  Fmt.pf ppf
    "switches=%d clock-reads=%d inputs=%d native-words=%d words=%d bytes=%d"
    s.n_switches s.n_clock_reads s.n_inputs s.n_native_words s.total_words
    s.total_bytes;
  if s.n_picks > 0 then Fmt.pf ppf " picks=%d" s.n_picks

(* --- streaming writer -------------------------------------------------- *)

(* The one file writer ([save] goes through it too). The DJVU2 layout
   prefixes each section with its element count, which is unknown until
   the run ends — so each tape's sink encodes a flushed chunk in one bulk
   loop ([encode_chunk]) into the writer's scratch bytes, checking their
   capacity once per chunk, and appends the result to its stream's
   in-memory buffer in one copy. [finish] writes header, counts and
   encoded bytes into [path.tmp] (opened at [create]) and renames it into
   place. A stream whose buffer passes [cap] bytes appends it to the one
   scratch file [path.spill], opened on the first spill; [finish] copies
   the chunks back in order. The result is byte-identical to [to_bytes] of
   the materialized trace, which encodes value by value with
   [put_varint]. *)
module Writer = struct
  type stream = {
    w_buf : Buffer.t; (* encoded elements not yet spilled *)
    mutable w_chunks : (int * int) list;
        (* spilled (offset, length) in [path.spill], newest first *)
    mutable w_count : int; (* elements encoded *)
  }

  type t = {
    path : string;
    tmp : out_channel; (* [path.tmp], renamed to [path] by [finish] *)
    mutable spill : out_channel option; (* [path.spill], once opened *)
    cap : int; (* encoded bytes a stream buffers before it spills *)
    streams : stream array;
    mutable scratch : Bytes.t; (* one flushed chunk, encoded *)
    mutable w_tapes : Tape.t array;
    mutable peak_words : int; (* high-water mark of buffered words *)
    mutable clock_reads : int; (* compact clock entries begun *)
    mutable clock_owed : int; (* words the last clock escape still owes *)
    mutable closed : bool;
  }

  let default_buf_words = 4096

  let remove path = try Sys.remove path with Sys_error _ -> ()

  let spill_path w = w.path ^ ".spill"

  let buffered_words w =
    Array.fold_left (fun acc (t : Tape.t) -> acc + t.len) 0 w.w_tapes

  let spill w s =
    let oc =
      match w.spill with
      | Some oc -> oc
      | None ->
        let oc = open_out_bin (spill_path w) in
        w.spill <- Some oc;
        oc
    in
    s.w_chunks <- (pos_out oc, Buffer.length s.w_buf) :: s.w_chunks;
    Buffer.output_buffer oc s.w_buf;
    Buffer.clear s.w_buf

  let create ?(buf_words = default_buf_words) path =
    let buf_words = max 1 buf_words in
    (* the rename at [finish] would replace a FIFO, device or directory *)
    if Sys.file_exists path && not (Sys.is_regular_file path) then
      raise (Sys_error (path ^ ": not a regular file"));
    (* opened first, so an unwritable destination fails here, leaving
       nothing behind; the error names [path], not the scratch name *)
    let tmp =
      let tmp_path = path ^ ".tmp" in
      try open_out_bin tmp_path
      with Sys_error msg when String.starts_with ~prefix:tmp_path msg ->
        let n = String.length tmp_path in
        raise (Sys_error (path ^ String.sub msg n (String.length msg - n)))
    in
    let streams =
      Array.map
        (fun _ -> { w_buf = Buffer.create 256; w_chunks = []; w_count = 0 })
        section_names
    in
    let w =
      {
        path;
        tmp;
        spill = None;
        cap = 16 * buf_words;
        streams;
        scratch = Bytes.empty;
        w_tapes = [||];
        peak_words = 0;
        clock_reads = 0;
        clock_owed = 0;
        closed = false;
      }
    in
    let tapes =
      Array.mapi
        (fun i name ->
          Tape.with_sink name ~cap:buf_words (fun data len ->
              if w.closed then invalid_arg "Trace.Writer: finished writer";
              (* high-water mark sampled at the flush boundary, where the
                 buffered total is maximal *)
              w.peak_words <- max w.peak_words (buffered_words w);
              let s = streams.(i) in
              if len > Array.length data then
                invalid_arg "Trace.Writer: chunk longer than its tape";
              if Bytes.length w.scratch < max_varint_bytes * len then
                w.scratch <- Bytes.create (max_varint_bytes * len);
              let n = encode_chunk w.scratch 0 data len in
              Buffer.add_subbytes s.w_buf w.scratch 0 n;
              s.w_count <- s.w_count + len;
              if i = clock_section then begin
                let reads, owed =
                  count_clock_entries ~owed:w.clock_owed data len
                in
                w.clock_reads <- w.clock_reads + reads;
                w.clock_owed <- owed
              end;
              if Buffer.length s.w_buf >= w.cap then spill w s))
        section_names
    in
    w.w_tapes <- tapes;
    w

  let tapes w = w.w_tapes

  let peak_buffered_words w = max w.peak_words (buffered_words w)

  (* Remove scratch state; safe to call more than once, and after [finish].
     A cancelled recording aborts instead of finishing, so no partial trace
     ever appears under the destination name. *)
  let abort w =
    if not w.closed then begin
      w.closed <- true;
      close_out_noerr w.tmp;
      remove (w.path ^ ".tmp");
      Option.iter
        (fun oc ->
          close_out_noerr oc;
          remove (spill_path w))
        w.spill
    end

  let finish w ~program_digest : sizes =
    if w.closed then invalid_arg "Trace.Writer.finish: finished writer";
    let total_bytes =
      try
        Array.iter Tape.flush w.w_tapes;
        let spilled =
          Option.map
            (fun oc ->
              close_out oc;
              open_in_bin (spill_path w))
            w.spill
        in
        Fun.protect
          ~finally:(fun () -> Option.iter close_in_noerr spilled)
          (fun () ->
            let b = Buffer.create 64 in
            put_header b ~program_digest;
            Buffer.output_buffer w.tmp b;
            let n = n_written (Array.map (fun s -> s.w_count) w.streams) in
            Array.iteri
              (fun i s ->
                if i < n then begin
                  Buffer.clear b;
                  put_varint b s.w_count;
                  Buffer.output_buffer w.tmp b;
                  Option.iter
                    (fun ic ->
                      List.iter
                        (fun (off, len) ->
                          seek_in ic off;
                          output_string w.tmp (really_input_string ic len))
                        (List.rev s.w_chunks))
                    spilled;
                  Buffer.output_buffer w.tmp s.w_buf
                end)
              w.streams);
        let n = pos_out w.tmp in
        close_out w.tmp;
        Sys.rename (w.path ^ ".tmp") w.path;
        n
      with e ->
        abort w;
        raise e
    in
    if Option.is_some w.spill then remove (spill_path w);
    w.closed <- true;
    sizes_of_counts
      (Array.map (fun s -> s.w_count) w.streams)
      ~compact_clock_reads:w.clock_reads ~total_bytes
end

(* --- streaming reader -------------------------------------------------- *)

(* The one decoder ([of_bytes] and [load] drain it). It reads through a
   byte source, a file or a string in memory. [open_source] finds each
   section's byte range [start, stop) in one pass over 64 KiB windows,
   counting varint terminators without decoding; a refill then reads at
   most [9 * chunk_words] bytes of its section into a shared scratch buffer
   and decodes them into the tape's own array. Every varint but the last
   few of a refill (or a window) has 10 bytes buffered behind it, so
   [read_varint] decodes it on its unchecked fast path. Resident memory is
   O(window + chunk), constant in trace length. *)
module Reader = struct
  type section = { mutable offset : int; stop : int; mutable left : int }

  (* [read_at at buf n] copies the source's [n] bytes at offset [at] into
     [buf]; the length was measured at open, so running short means a file
     shrank since. *)
  type source = {
    length : int;
    read_at : int -> Bytes.t -> int -> unit;
    release : unit -> unit;
  }

  type t = {
    src : source;
    r_digest : string;
    r_tapes : Tape.t array;
    mutable r_closed : bool;
  }

  let default_chunk_words = 1024

  let window_bytes = 65536

  (* Refused before the open, which would block on a FIFO. *)
  let file_source path =
    if not (Sys.is_regular_file path) then
      raise (Sys_error (path ^ ": not a regular file"));
    let ic = open_in_bin path in
    let release () = close_in_noerr ic in
    match in_channel_length ic with
    | exception e ->
      release ();
      raise e
    | length ->
      let read_at at buf n =
        seek_in ic at;
        try really_input ic buf 0 n
        with End_of_file -> raise (Format_error "truncated section")
      in
      { length; read_at; release }

  let string_source s =
    let read_at at buf n =
      if n > String.length s - at then raise (Format_error "truncated section");
      Bytes.blit_string s at buf 0 n
    in
    { length = String.length s; read_at; release = ignore }

  let open_source ?(chunk_words = default_chunk_words) src =
    let chunk_words = max 1 chunk_words in
    match
      let src_len = src.length in
      (* the window holds source bytes [off, off + w.lim); [w.pos] is the
         parse point within it *)
      let w =
        { buf = Bytes.create (min window_bytes src_len); pos = 0; lim = 0 }
      in
      let off = ref 0 in
      let at () = !off + w.pos in
      let reload () =
        let a = at () in
        let n = min (Bytes.length w.buf) (src_len - a) in
        src.read_at a w.buf n;
        off := a;
        w.pos <- 0;
        w.lim <- n
      in
      (* make [n] bytes readable at the parse point, or all that remain *)
      let ensure n =
        if w.lim - w.pos < n && !off + w.lim < src_len then reload ()
      in
      let varint () =
        ensure 10;
        read_varint w
      in
      let ml = String.length magic in
      ensure ml;
      if w.lim < ml || Bytes.sub_string w.buf 0 ml <> magic then
        raise (Format_error "bad magic");
      w.pos <- ml;
      let str_field what =
        let n = varint () in
        if n < 0 || n > src_len - at () then
          raise (Format_error (Fmt.str "bad %s length" what));
        ensure n;
        if n <= w.lim - w.pos then begin
          w.pos <- w.pos + n;
          Bytes.sub_string w.buf (w.pos - n) n
        end
        else begin
          (* longer than the window: read it directly, restart after it *)
          let s = Bytes.create n in
          src.read_at (at ()) s n;
          off := at () + n;
          w.pos <- 0;
          w.lim <- 0;
          Bytes.unsafe_to_string s
        end
      in
      let r_digest = str_field "digest" in
      (* the second field: bounds-checked, then dropped *)
      ignore (str_field "analysis-hash");
      (* skip [count] varints by counting terminator bytes (top bit clear);
         malformed interiors surface as Format_error at refill time *)
      let section () =
        let count = varint () in
        let count = check_count count ~avail:(src_len - at ()) in
        let start = at () in
        let left = ref count in
        while !left > 0 do
          ensure 1;
          if w.pos >= w.lim then raise (Format_error "truncated section");
          let i = ref w.pos and lim = w.lim and b = w.buf in
          (* [w.pos <= !i < lim <= Bytes.length b] *)
          while !left > 0 && !i < lim do
            if Char.code (Bytes.unsafe_get b !i) < 0x80 then decr left;
            incr i
          done;
          w.pos <- !i
        done;
        (count, { offset = start; stop = at (); left = count })
      in
      let sections =
        Array.init (Array.length section_names) (fun i ->
            (* the sections past the mandatory four are optional: a
               trailing run of empty ones is absent *)
            if i < mandatory_sections || at () < src_len then section ()
            else (0, { offset = at (); stop = at (); left = 0 }))
      in
      if at () <> src_len then raise (Format_error "trailing bytes");
      let scratch =
        Bytes.create (min (max_varint_bytes * chunk_words) src_len)
      in
      let r_tapes =
        Array.mapi
          (fun i name ->
            let count, sec = sections.(i) in
            Tape.of_refill name ~pending:count (fun (t : Tape.t) ->
                if sec.left = 0 then false
                else begin
                  let k = min chunk_words sec.left in
                  let n =
                    min (max_varint_bytes * k) (sec.stop - sec.offset)
                  in
                  src.read_at sec.offset scratch n;
                  let c = { buf = scratch; pos = 0; lim = n } in
                  if Array.length t.data < k then
                    t.data <- Array.make (min chunk_words count) 0;
                  for j = 0 to k - 1 do
                    t.data.(j) <- read_varint c
                  done;
                  sec.offset <- sec.offset + c.pos;
                  sec.left <- sec.left - k;
                  t.base <- t.base + t.len;
                  t.len <- k;
                  t.rd <- 0;
                  t.pending <- sec.left;
                  true
                end))
          section_names
      in
      { src; r_digest; r_tapes; r_closed = false }
    with
    | r -> r
    | exception e ->
      src.release ();
      raise e

  let open_file ?chunk_words path = open_source ?chunk_words (file_source path)

  let program_digest r = r.r_digest

  let tapes r = r.r_tapes

  let close r =
    if not r.r_closed then begin
      r.r_closed <- true;
      r.src.release ()
    end
end

(* --- whole traces ------------------------------------------------------ *)

(* Open a reader over [src] and drain every tape into an array. *)
let read_all src =
  let r = Reader.open_source src in
  Fun.protect
    ~finally:(fun () -> Reader.close r)
    (fun () ->
      of_sections (Reader.program_digest r)
        (Array.map
           (fun tp -> Array.init (Tape.remaining tp) (fun _ -> Tape.read tp))
           (Reader.tapes r)))

let of_bytes s = read_all (Reader.string_source s)

let load path = read_all (Reader.file_source path)

(* Through the writer: temp file and atomic rename, so a crash mid-write
   never leaves a truncated trace under the final name. *)
let save path (t : t) =
  let w = Writer.create path in
  match
    Array.iter2
      (fun tape sec -> Array.iter (Tape.push tape) sec)
      (Writer.tapes w) (sections t);
    Writer.finish w ~program_digest:t.program_digest
  with
  | _ -> ()
  | exception e ->
    Writer.abort w;
    raise e
