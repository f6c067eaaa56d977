(* Golden parity table: the trace bytes, final state digest and
   instruction count of every registry program recorded at seeds 1-3,
   pinned across commits.

   Every other parity suite compares two configurations of the same
   build (register tier on/off, fast/observed loop). A change that moves
   every tier together — a different clock charge, PRNG draw, event
   encoding or instruction count — passes all of them; it fails here.

   The table was captured with a plain [Dejavu.record] (default config)
   before the superinstruction and inline-splice layers were deleted, so
   it also pins that the deletion kept replay exact. Regenerating it is a
   change to the parity contract: do it only for a reason stated in
   CHANGES.md (a deliberate change to the trace format, clock model or
   instruction semantics), never to make a failure go away. *)

(* (program, seed, MD5 of the trace bytes, state digest, n_instr) *)
let golden =
  [
    ("fig1ab", 1, "f09010497f9b23fce3bd31a026345cb0", 3343765450011637267, 37554);
    ("fig1ab", 2, "4b9a961a8b8dabfc7241d9fcbe445c39", 3472805561429564595, 37554);
    ("fig1ab", 3, "75287808e8bfb06bdd777206f917dabf", 3343765450011637267, 37554);
    ("fig1cd", 1, "7e322efed0d4dd053658cb96e70f8f6c", 3914778760862619257, 6451);
    ("fig1cd", 2, "cb738a6f48c599fd8ff6a244eefa1f10", 2074754994388260944, 6451);
    ("fig1cd", 3, "1516eb81f6eb8b46e1d7b1a741a210a2", 2049895327723652167, 6451);
    ("racy-counter", 1, "3aa329f1179be9820e1813efb87ee5d5", 1629827579066996520, 288044);
    ("racy-counter", 2, "f5f894b95f942d4335a960d35d5197a2", 3391171763686427059, 288044);
    ("racy-counter", 3, "595d529f27477c9a8788c2a6df427e2d", 4386392554431255426, 288044);
    ("synced-counter", 1, "001cab041a8eb8029d5594433b79eaa6", 2772165294036249918, 44052);
    ("synced-counter", 2, "23348fb52bdbaf2404f65cb1efa0d643", 1254460709729506002, 44052);
    ("synced-counter", 3, "a05d8e660308a6ec8a233e78942d6aa0", 1783316697823767018, 44052);
    ("producer-consumer", 1, "e484b0d63278f69c09595e173c01ebfe", 1601650389662093972, 14211);
    ("producer-consumer", 2, "61d3ab84e6cfb6b778c420d0f0a1f2ac", 1359331336285304187, 14211);
    ("producer-consumer", 3, "41cd3c0218a061e4a7060cb435e668b5", 409351690489035904, 14211);
    ("philosophers", 1, "d536f2d03ac3bee504a5ed7beedbb757", 398803563289677927, 22558);
    ("philosophers", 2, "246bb88c3f42db878fb9770ba95b09db", 1348954716141329007, 22558);
    ("philosophers", 3, "3eb62b5f22d9e90e78c1821df7a1aa4f", 1577270920654141848, 22558);
    ("philosophers-deadlock", 1, "ed0e6dc05ab0bad12ff31f20da94ef08", 3505977005394104149, 10127);
    ("philosophers-deadlock", 2, "cb096c49de6ddfb62789c34148dbd737", 4322407468914795741, 2847);
    ("philosophers-deadlock", 3, "774c2fd2ca7950c0eab58be7f38e0c38", 3108580795949751319, 9567);
    ("bank", 1, "a2f80b7dcb9b332cc961341747f92e7a", 2850138310534364740, 8762);
    ("bank", 2, "d18fbbc6ae4d5c25b8569940cf5f2dbf", 1273635648538172150, 8611);
    ("bank", 3, "f555b73fa1870793b8b8a19be630bece", 831224451450165305, 8881);
    ("primes", 1, "252c61303f5f947f12f780617db07ae3", 371564037265852667, 236267);
    ("primes", 2, "398eeb2114f642fb858d43cc2883d8d6", 371564037265852667, 236267);
    ("primes", 3, "05d8b624ac70e442e40c777a20d1fe8d", 371564037265852667, 236267);
    ("parsum", 1, "ec4821306ab33819557219237a3e1f0f", 1225677560544275215, 112178);
    ("parsum", 2, "0dbfe58a534e47ba2fc7f7967c3544d6", 1225677560544275215, 112178);
    ("parsum", 3, "431781c42863163b0459749ef72d30df", 1225677560544275215, 112178);
    ("gc-churn", 1, "e2376487a99b5155ffe8d392cbbd9454", 2470701313164837690, 361967);
    ("gc-churn", 2, "5ea19c0fb2a50ef475adbf2755b2a596", 160031654213679625, 361967);
    ("gc-churn", 3, "c13118e1f7d0b796564a8e615b78587c", 395837302724492860, 361967);
    ("exceptions", 1, "1ca9206aaac65540668073a242bff512", 1166964634947273224, 1486);
    ("exceptions", 2, "b9699af34438b08acf7458a96fed7399", 286783953579445218, 1486);
    ("exceptions", 3, "a7a36eac800d86ff49198233bb03af54", 286783953579445218, 1486);
    ("native", 1, "c465dac6b3317c37af5a49538a253eac", 349737741447120707, 653);
    ("native", 2, "1454e78755f790f24647241a471b7ed6", 3854348818486321069, 645);
    ("native", 3, "0999da2ece19610005399df73a46d1f0", 2241824432339740939, 605);
    ("deep", 1, "69803b16cda439dd538d455f8d39a290", 2693740616460664887, 30010);
    ("deep", 2, "118149d2368fccb9de31164eb86f4962", 2693740616460664887, 30010);
    ("deep", 3, "ab9f4d28c71cb759a275de436ba8827f", 2693740616460664887, 30010);
    ("overflow", 1, "d37488a5a41e9aebd9a5754f70cf6019", 3836442443036248111, 81857);
    ("overflow", 2, "1de0e9ec0f43086f20fa8aa08022284e", 3836442443036248111, 81857);
    ("overflow", 3, "9637a33147945760b4166585beaf6908", 3836442443036248111, 81857);
    ("timed", 1, "a7202d03133290d5746544c720c4813e", 1158674053229663132, 458);
    ("timed", 2, "48ff295736717996ce909470a08b503e", 2217145742758085014, 458);
    ("timed", 3, "20b0c8ec843a3a9ef30b92ddb5fa15b1", 1003788476089946220, 458);
    ("barrier", 1, "6c19b923cbf0294bc81603c0ff566287", 702654742682705272, 5435);
    ("barrier", 2, "214f7ab1ba8719f3254e27c4f7d258e8", 702654742682705272, 5435);
    ("barrier", 3, "3a1c363f3385cdac563e4a596e685315", 918477095159997460, 5435);
    ("rwlock", 1, "748d5810b2434f636278c6d94a7cc12f", 2663785233621360672, 12967);
    ("rwlock", 2, "67c234e4ace7e6995007578f615ffb1a", 2663785233621360672, 12922);
    ("rwlock", 3, "5482e95214f5d684c2ce7a94f9a5b266", 2663785233621360672, 12946);
    ("mergesort", 1, "f90af59394fb628d0b06106441dfe34e", 197307643144747303, 216768);
    ("mergesort", 2, "90830200d43a34ea7735081bf650de9e", 197307643144747303, 216768);
    ("mergesort", 3, "27c8c16493e2baef346376133a71efe7", 197307643144747303, 216768);
    ("ring", 1, "f3ed69cd7f35477de8ad8ecab38f77e4", 597223163919494670, 1378);
    ("ring", 2, "c3b0f65d829b6a210f65bfa2d9be90da", 597223163919494670, 1378);
    ("ring", 3, "c3b0f65d829b6a210f65bfa2d9be90da", 597223163919494670, 1378);
    ("webserver", 1, "298d946fb22c156ada5ed18c2a8bcf92", 2318360544962747603, 8155);
    ("webserver", 2, "526e5d404c7d5a759f50c7081c6e2822", 2927707485617515691, 8158);
    ("webserver", 3, "a9f8dcbb09ff7529da2524ba45fc9fbf", 2323337712929309793, 8175);
    ("lock-cycle", 1, "acbe2d9884c1258cf2ef66c5e25a5f34", 129918241298043405, 32033);
    ("lock-cycle", 2, "e8cb13714097ced74cb784bfcb0ff55c", 129918241298043405, 32033);
    ("lock-cycle", 3, "1a9e8098bec7ea33c9fc1e5ad7203118", 129918241298043405, 32033);
    ("atomicity", 1, "be79199eee6ec353d87dee3215fc9fb5", 2392117920251058574, 84);
    ("atomicity", 2, "be79199eee6ec353d87dee3215fc9fb5", 2392117920251058574, 84);
    ("atomicity", 3, "be79199eee6ec353d87dee3215fc9fb5", 2392117920251058574, 84);
  ]

let entry name =
  match Workloads.Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "registry program %s missing" name

let check_row (name, seed, md5, digest, n_instr) () =
  let e = entry name in
  let run, trace = Dejavu.record ~natives:e.natives ~seed e.program in
  let ctx = Fmt.str "%s/%d" name seed in
  Alcotest.(check string)
    (ctx ^ " trace md5") md5
    (Digest.to_hex (Digest.string (Dejavu.Trace.to_bytes trace)));
  Alcotest.(check int) (ctx ^ " state digest") digest run.Dejavu.state_digest;
  Alcotest.(check int)
    (ctx ^ " instructions") n_instr
    (Vm.stats run.Dejavu.vm).Vm.Rt.n_instr

(* The table must cover the whole registry, so a new program cannot slip
   in unpinned. *)
let test_covers_registry () =
  let pinned = List.sort_uniq compare (List.map (fun (n, _, _, _, _) -> n) golden) in
  let registry =
    List.sort_uniq compare
      (List.map
         (fun (e : Workloads.Registry.entry) -> e.name)
         (Lazy.force Workloads.Registry.all))
  in
  Alcotest.(check (list string)) "pinned programs" registry pinned

let () =
  Alcotest.run "golden"
    [
      ("coverage", [ Tutil.quick "table covers the registry" test_covers_registry ]);
      ( "traces",
        List.map
          (fun ((name, seed, _, _, _) as row) ->
            Tutil.quick (Fmt.str "%s seed %d" name seed) (check_row row))
          golden );
    ]
