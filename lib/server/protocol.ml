(* The farm's wire protocol: 4-byte big-endian length-prefixed frames whose
   payloads reuse the trace codec's zigzag varints (Trace.put_varint /
   get_varint), so the serving layer and the trace format share one integer
   encoding and one set of canonicality checks. Strings travel as
   varint(length) + bytes. Malformed frames raise Trace.Format_error, like
   malformed trace files. *)

module Trace = Dejavu.Trace

let max_frame = 16 * 1024 * 1024 (* refuse absurd lengths before allocating *)

type op = Op_record | Op_replay | Op_roundtrip | Op_lint

let int_of_op = function
  | Op_record -> 0
  | Op_replay -> 1
  | Op_roundtrip -> 2
  | Op_lint -> 3

let op_of_int = function
  | 0 -> Op_record
  | 1 -> Op_replay
  | 2 -> Op_roundtrip
  | 3 -> Op_lint
  | n -> raise (Trace.Format_error (Fmt.str "unknown op tag %d" n))

let string_of_op = function
  | Op_record -> "record"
  | Op_replay -> "replay"
  | Op_roundtrip -> "roundtrip"
  | Op_lint -> "lint"

type request =
  | Submit of {
      q_op : op;
      q_workload : string;
      q_seed : int;
      q_trace : string; (* server-side trace path for replay; "" otherwise *)
      q_deadline_ms : int; (* relative to receipt; 0 = none *)
    }
  | Finish (* no more submissions; server streams remaining replies, closes *)

type reply = {
  p_seq : int;
  p_op : op;
  p_workload : string;
  p_outcome : int; (* 0 done / 1 failed / 2 timed out / 3 cancelled *)
  p_status : string; (* VM status, or the failure message *)
  p_digest : string;
  p_attempts : int;
  p_latency_us : int;
  p_words : int;
}

(* --- payload codec --- *)

let put_string b s =
  Trace.put_varint b (String.length s);
  Buffer.add_string b s

let get_string s off =
  let n, off = Trace.get_varint s off in
  if n < 0 || off + n > String.length s then
    raise (Trace.Format_error "string runs past frame end");
  (String.sub s off n, off + n)

let get_int s off =
  let v, off = Trace.get_varint s off in
  (v, off)

let encode_request = function
  | Submit { q_op; q_workload; q_seed; q_trace; q_deadline_ms } ->
    let b = Buffer.create 64 in
    Trace.put_varint b 0;
    Trace.put_varint b (int_of_op q_op);
    put_string b q_workload;
    Trace.put_varint b q_seed;
    put_string b q_trace;
    Trace.put_varint b q_deadline_ms;
    Buffer.contents b
  | Finish ->
    let b = Buffer.create 4 in
    Trace.put_varint b 1;
    Buffer.contents b

let decode_request s =
  let tag, off = get_int s 0 in
  match tag with
  | 0 ->
    let opi, off = get_int s off in
    let q_workload, off = get_string s off in
    let q_seed, off = get_int s off in
    let q_trace, off = get_string s off in
    let q_deadline_ms, off = get_int s off in
    if off <> String.length s then
      raise (Trace.Format_error "trailing bytes in request frame");
    Submit
      { q_op = op_of_int opi; q_workload; q_seed; q_trace; q_deadline_ms }
  | 1 ->
    if off <> String.length s then
      raise (Trace.Format_error "trailing bytes in request frame");
    Finish
  | n -> raise (Trace.Format_error (Fmt.str "unknown request tag %d" n))

let encode_reply (r : reply) =
  let b = Buffer.create 96 in
  Trace.put_varint b r.p_seq;
  Trace.put_varint b (int_of_op r.p_op);
  put_string b r.p_workload;
  Trace.put_varint b r.p_outcome;
  put_string b r.p_status;
  put_string b r.p_digest;
  Trace.put_varint b r.p_attempts;
  Trace.put_varint b r.p_latency_us;
  Trace.put_varint b r.p_words;
  Buffer.contents b

let decode_reply s =
  let p_seq, off = get_int s 0 in
  let opi, off = get_int s off in
  let p_workload, off = get_string s off in
  let p_outcome, off = get_int s off in
  let p_status, off = get_string s off in
  let p_digest, off = get_string s off in
  let p_attempts, off = get_int s off in
  let p_latency_us, off = get_int s off in
  let p_words, off = get_int s off in
  if off <> String.length s then
    raise (Trace.Format_error "trailing bytes in reply frame");
  {
    p_seq;
    p_op = op_of_int opi;
    p_workload;
    p_outcome;
    p_status;
    p_digest;
    p_attempts;
    p_latency_us;
    p_words;
  }

(* --- framing --- *)

let write_frame oc payload =
  let n = String.length payload in
  if n > max_frame then invalid_arg "Protocol.write_frame: frame too large";
  output_binary_int oc n;
  output_string oc payload;
  flush oc

(* None at a clean EOF (no frame started); Format_error on a truncated or
   oversized frame. *)
let read_frame ic =
  match input_binary_int ic with
  | exception End_of_file -> None
  | n ->
    if n < 0 || n > max_frame then
      raise (Trace.Format_error (Fmt.str "bad frame length %d" n));
    let buf = Bytes.create n in
    (try really_input ic buf 0 n
     with End_of_file ->
       raise (Trace.Format_error "frame truncated mid-payload"));
    Some (Bytes.unsafe_to_string buf)

let write_request oc r = write_frame oc (encode_request r)

let read_request ic = Option.map decode_request (read_frame ic)

let write_reply oc r = write_frame oc (encode_reply r)

let read_reply ic = Option.map decode_reply (read_frame ic)
