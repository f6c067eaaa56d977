(* The benchmark's own statistics: quantiles, rates and span self time. *)

let close = Alcotest.float 1e-9

let series n = Array.init n (fun i -> float_of_int (i + 1))

let quantile_exact () =
  let a = series 1000 in
  Alcotest.check close "p99 of 1..1000 is the 990th sample" 990. (Stat.quantile a 0.99);
  Alcotest.check close "median is the lower middle sample" 500. (Stat.quantile a 0.5);
  Alcotest.check close "p100 is the maximum" 1000.
    (Stat.quantile ~min_beyond:0 a 1.0);
  Alcotest.check close "median of one sample" 7. (Stat.quantile [| 7. |] 0.5);
  Alcotest.check close "sorting happens before ranking" 2.
    (Stat.quantile (Stat.sorted_of_list [ 3.; 1.; 2. ]) 0.5)

let quantile_refuses_thin_tail () =
  Alcotest.check_raises "999 samples leave 9 beyond p99"
    (Stat.Refused "p99 needs 10 samples beyond it, has 9 of 999") (fun () ->
      ignore (Stat.quantile (series 999) 0.99));
  Alcotest.check_raises "no samples" (Stat.Refused "no samples") (fun () ->
      ignore (Stat.quantile [||] 0.5));
  Alcotest.check close "100 samples are enough for p90" 90.
    (Stat.quantile (series 100) 0.9)

let ratio_of_sums () =
  (* 10 units in 1 s and 10 units in 9 s: 20 units in 10 s, not the mean
     of the two rates (5.5) *)
  Alcotest.check close "whole-run rate" 2.
    (Stat.ratio_of_sums [ (10., 1.); (10., 9.) ]);
  Alcotest.check_raises "empty"
    (Invalid_argument "Stat.ratio_of_sums: empty denominator") (fun () ->
      ignore (Stat.ratio_of_sums []))

let sp id parent start stop =
  { Stat.id; name = "s"; parent; job = 0; start; stop }

let self_nested () =
  let spans = [| sp 0 (-1) 0. 10.; sp 1 0 1. 4.; sp 2 1 2. 3. |] in
  let self = Stat.self_times spans in
  Alcotest.check close "parent minus its child" 7. self.(0);
  Alcotest.check close "child minus the grandchild" 2. self.(1);
  Alcotest.check close "leaf keeps its duration" 1. self.(2)

let self_overlapping () =
  (* children [1,5] and [3,7] overlap: together they cover 6, not 8;
     [9,12] pokes out of the parent and only its first second counts *)
  let spans = [| sp 0 (-1) 0. 10.; sp 1 0 1. 5.; sp 2 0 3. 7.; sp 3 0 9. 12. |] in
  Alcotest.check close "overlap counted once, overhang clipped" 3.
    (Stat.self_times spans).(0)

let () =
  Alcotest.run "perfbench stat"
    [
      ( "quantile",
        [
          Alcotest.test_case "exact order statistic" `Quick quantile_exact;
          Alcotest.test_case "refuses a thin tail" `Quick quantile_refuses_thin_tail;
        ] );
      ("rate", [ Alcotest.test_case "ratio of sums" `Quick ratio_of_sums ]);
      ( "spans",
        [
          Alcotest.test_case "nested self time" `Quick self_nested;
          Alcotest.test_case "overlapping children" `Quick self_overlapping;
        ] );
    ]
