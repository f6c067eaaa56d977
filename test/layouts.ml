(* The two layouts of clock reads and native outcomes in a trace: the
   compact sections new recordings write, and the legacy sections of
   traces written before them, which still replay. The library decodes
   both but encodes only the compact one; the legacy encoder lives here,
   for the converter the golden table and the tamper tests use.

   Legacy clock read: [tag; value]. Legacy native record: [id; has_result;
   result?; n_callbacks; (uid; nargs; args...)*]. *)

module T = Dejavu.Trace
module Tape = Dejavu.Tape

let push_legacy_native tape id (o : Vm.Rt.native_outcome) =
  Tape.push tape id;
  (match o.no_result with
  | Some v ->
    Tape.push tape 1;
    Tape.push tape v
  | None -> Tape.push tape 0);
  Tape.push tape (List.length o.no_callbacks);
  List.iter
    (fun (uid, args) ->
      Tape.push tape uid;
      Tape.push tape (Array.length args);
      Array.iter (Tape.push tape) args)
    o.no_callbacks

let drain tape read =
  let rec go acc =
    if Tape.remaining tape = 0 then List.rev acc else go (read () :: acc)
  in
  go []

(* Every clock read of [t], as (tag, value), through the library's one
   decoder in the layout that holds them. *)
let clock_reads (t : T.t) =
  let layout, tape = T.clock_source (T.tapes t) in
  let prev = ref 0 in
  drain tape (fun () ->
      let ((_, v) as read) = T.read_clock layout tape ~prev:!prev in
      prev := v;
      read)

(* Every native outcome of [t], as (native id, outcome). *)
let native_outcomes (t : T.t) =
  let layout, tape = T.native_source (T.tapes t) in
  drain tape (fun () -> T.read_native layout tape)

let clock_layout (t : T.t) = fst (T.clock_source (T.tapes t))

let native_layout (t : T.t) = fst (T.native_source (T.tapes t))

(* [t] with its clock reads replaced by [reads], coded in [layout]. *)
let with_clock_reads layout reads (t : T.t) =
  let tape = Tape.create "clocks" in
  let prev = ref 0 in
  List.iter
    (fun (tag, v) ->
      (match layout with
      | T.Compact -> T.push_clock tape ~prev:!prev tag v
      | T.Legacy ->
        Tape.push tape tag;
        Tape.push tape v);
      prev := v)
    reads;
  let words = Tape.to_array tape in
  match layout with
  | T.Compact -> { t with clocks = words; legacy_clocks = [||] }
  | T.Legacy -> { t with legacy_clocks = words; clocks = [||] }

(* [t] with its native outcomes replaced by [outcomes], coded in
   [layout]. *)
let with_native_outcomes layout outcomes (t : T.t) =
  let tape = Tape.create "natives" in
  let push =
    match layout with
    | T.Compact -> T.push_native tape
    | T.Legacy -> push_legacy_native tape
  in
  List.iter (fun (id, o) -> push id o) outcomes;
  let words = Tape.to_array tape in
  match layout with
  | T.Compact -> { t with natives = words; legacy_natives = [||] }
  | T.Legacy -> { t with legacy_natives = words; natives = [||] }

(* The converter: [t] as a build before the compact sections would have
   written it. *)
let legacy (t : T.t) =
  t
  |> with_clock_reads T.Legacy (clock_reads t)
  |> with_native_outcomes T.Legacy (native_outcomes t)

(* A recording in both layouts, each named. *)
let both (t : T.t) = [ ("compact", t); ("legacy", legacy t) ]
