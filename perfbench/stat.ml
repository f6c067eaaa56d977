(* The benchmark's own statistics: exact order-statistic quantiles that
   refuse a percentile with too thin a tail, ratio-of-sums rates, and span
   self time. Kept apart from dvbench.ml so the tests can pin them down. *)

exception Refused of string

(* A tail percentile is only reported when at least this many samples lie
   beyond it; with fewer, "p99" is just the slowest job or two. *)
let min_beyond = 10

(* Nearest-rank quantile of a sorted array: the smallest sample with at
   least [p] of the samples at or below it. No interpolation, so the value
   is always one that was measured. Raises [Refused] when fewer than
   [min_beyond] samples lie above the chosen rank (the median is exempt:
   it has half the samples on each side). *)
let quantile ?(min_beyond = min_beyond) (sorted : float array) p =
  let n = Array.length sorted in
  if n = 0 then raise (Refused "no samples");
  if not (p > 0. && p <= 1.) then invalid_arg "Stat.quantile: p not in (0, 1]";
  let rank = max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))) in
  let beyond = n - rank in
  if p > 0.5 && beyond < min_beyond then
    raise
      (Refused
         (Printf.sprintf "p%g needs %d samples beyond it, has %d of %d"
            (100. *. p) min_beyond beyond n));
  sorted.(rank - 1)

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Throughput over a whole phase: total work over total time, never a mean
   of per-operation rates (which would weight short operations as heavily
   as long ones). *)
let ratio_of_sums (pairs : (float * float) list) =
  let num, den =
    List.fold_left (fun (a, b) (x, y) -> (a +. x, b +. y)) (0., 0.) pairs
  in
  if den <= 0. then invalid_arg "Stat.ratio_of_sums: empty denominator";
  num /. den

(* ---- spans ---- *)

type span = {
  id : int;
  name : string;
  parent : int; (* -1 for a root *)
  job : int; (* spans of one operation share it *)
  start : float;
  stop : float;
}

(* Total length of the union of [(a, b)] intervals, each clipped to
   [lo, hi]: overlapping children count once. *)
let covered ~lo ~hi (ivs : (float * float) list) =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0., None) ivs
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of it covered by
   its direct children. Grandchildren are already inside their parent. *)
let self_times (spans : span array) : float array =
  let children = Hashtbl.create (Array.length spans) in
  Array.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  Array.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids)
    spans
