module Domain_pool = Mg_smp.Domain_pool

let test_sequential_pool () =
  let hits = Array.make 10 0 in
  Domain_pool.parallel_for Domain_pool.sequential ~lo:0 ~hi:10 (fun lo hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  Alcotest.(check (array int)) "each exactly once" (Array.make 10 1) hits

let test_parallel_covers_range () =
  let pool = Domain_pool.create 3 in
  let hits = Array.make 1000 0 in
  Domain_pool.parallel_for pool ~lo:0 ~hi:1000 (fun lo hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  Domain_pool.shutdown pool;
  Alcotest.(check (array int)) "each exactly once" (Array.make 1000 1) hits

let test_reuse_across_calls () =
  let pool = Domain_pool.create 2 in
  let total = Atomic.make 0 in
  for _ = 1 to 50 do
    Domain_pool.parallel_for pool ~lo:0 ~hi:100 (fun lo hi ->
        ignore (Atomic.fetch_and_add total (hi - lo)))
  done;
  Domain_pool.shutdown pool;
  Alcotest.(check int) "all iterations" 5000 (Atomic.get total)

let test_empty_range () =
  let pool = Domain_pool.create 2 in
  let ran = ref false in
  Domain_pool.parallel_for pool ~lo:5 ~hi:5 (fun _ _ -> ran := true);
  Domain_pool.shutdown pool;
  Alcotest.(check bool) "no work" false !ran

let test_exception_propagates () =
  let pool = Domain_pool.create 2 in
  let raised =
    try
      Domain_pool.parallel_for pool ~lo:0 ~hi:8 (fun lo _ -> if lo = 0 then failwith "boom");
      false
    with Failure _ -> true
  in
  (* The pool survives an exception. *)
  let ok = ref 0 in
  Domain_pool.parallel_for pool ~lo:0 ~hi:4 (fun lo hi -> ok := !ok + (hi - lo));
  Domain_pool.shutdown pool;
  Alcotest.(check bool) "exception seen" true raised

(* After the first block raises, unclaimed blocks are abandoned: every
   block raises immediately, so each of the 4 participants executes at
   most one block before observing the failure flag. *)
let test_early_stop_after_failure () =
  let pool = Domain_pool.create 4 in
  let executed = Atomic.make 0 in
  let raised =
    try
      Domain_pool.parallel_for pool ~lo:0 ~hi:64 (fun _ _ ->
          Atomic.incr executed;
          failwith "boom");
      false
    with Failure _ -> true
  in
  Domain_pool.shutdown pool;
  Alcotest.(check bool) "exception seen" true raised;
  let n = Atomic.get executed in
  Alcotest.(check bool)
    (Printf.sprintf "abandoned remaining blocks (executed %d <= 4 participants)" n)
    true
    (n >= 1 && n <= 4)

(* Several pool sizes, an uneven range: exact once-each coverage. *)
let test_policy_coverage () =
  List.iter
    (fun np ->
      let pool = Domain_pool.create np in
      let hits = Array.make 203 0 in
      (* Blocks are disjoint, so the unsynchronised writes race only if
         coverage is already broken. *)
      Domain_pool.parallel_for pool ~lo:0 ~hi:203 (fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Domain_pool.shutdown pool;
      Alcotest.(check (array int)) (Printf.sprintf "%d domains" np) (Array.make 203 1) hits)
    [ 1; 2; 3; 4 ]

(* The static schedule: one near-equal contiguous block per domain,
   never more blocks than range elements. *)
let test_sched_ranges () =
  let blocks pool ~lo ~hi =
    let m = Mutex.create () and got = ref [] in
    Domain_pool.parallel_for pool ~lo ~hi (fun a b ->
        Mutex.lock m;
        got := (a, b) :: !got;
        Mutex.unlock m);
    List.sort compare !got
  in
  let check_partition name pool ~lo ~hi =
    let rs = blocks pool ~lo ~hi in
    let pos = ref lo in
    List.iter
      (fun (a, b) ->
        Alcotest.(check int) (name ^ ": contiguous") !pos a;
        Alcotest.(check bool) (name ^ ": nonempty block") true (b > a);
        pos := b)
      rs;
    Alcotest.(check int) (name ^ ": covers range") hi !pos;
    List.map (fun (a, b) -> b - a) rs
  in
  let pool = Domain_pool.create 4 in
  Alcotest.(check (list int)) "block: one per domain" [ 25; 25; 25; 25 ]
    (check_partition "block" pool ~lo:0 ~hi:100);
  Alcotest.(check (list int)) "uneven: near-equal" [ 2; 3; 2; 3 ]
    (check_partition "uneven" pool ~lo:0 ~hi:10);
  Alcotest.(check (list int)) "capped at range length" [ 1; 1; 1 ]
    (check_partition "capped" pool ~lo:10 ~hi:13);
  Alcotest.(check (list int)) "empty range" [] (check_partition "empty" pool ~lo:3 ~hi:3);
  Domain_pool.shutdown pool

let test_create_validation () =
  Alcotest.check_raises "zero size" (Invalid_argument "Domain_pool.create: size must be >= 1")
    (fun () -> ignore (Domain_pool.create 0))

let suite =
  ( "smp",
    [ Alcotest.test_case "sequential pool" `Quick test_sequential_pool;
      Alcotest.test_case "parallel covers range" `Quick test_parallel_covers_range;
      Alcotest.test_case "pool reuse" `Quick test_reuse_across_calls;
      Alcotest.test_case "empty range" `Quick test_empty_range;
      Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
      Alcotest.test_case "early stop after failure" `Quick test_early_stop_after_failure;
      Alcotest.test_case "policy coverage" `Quick test_policy_coverage;
      Alcotest.test_case "sched ranges partition" `Quick test_sched_ranges;
      Alcotest.test_case "create validation" `Quick test_create_validation;
    ] )
