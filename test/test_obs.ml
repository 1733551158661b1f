(* Mg_obs: spans, metrics, exporters, and the disabled-mode cost
   contract. *)

open Mg_obs
module Domain_pool = Mg_smp.Domain_pool
module Clock = Mg_smp.Clock

(* Every test starts from a clean slate; observation is always
   switched back off (other suites assume the untraced fast path). *)
let fresh () =
  Span.set_enabled false;
  Span.clear ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Span nesting and ordering                                           *)

let test_span_nesting () =
  fresh ();
  Span.with_enabled true (fun () ->
      Span.with_ ~name:"outer" (fun () ->
          Span.with_ ~name:"inner-1" (fun () -> ignore (Sys.opaque_identity 1));
          Span.with_ ~attrs:[ ("k", "v") ] ~name:"inner-2" (fun () ->
              ignore (Sys.opaque_identity 2))));
  let evs = Span.events () in
  Alcotest.(check (list string))
    "events sorted by start" [ "outer"; "inner-1"; "inner-2" ]
    (List.map (fun (e : Span.event) -> e.Span.name) evs);
  let find n = List.find (fun (e : Span.event) -> e.Span.name = n) evs in
  let outer = find "outer" and i1 = find "inner-1" and i2 = find "inner-2" in
  Alcotest.(check int) "outer depth" 1 outer.Span.depth;
  Alcotest.(check int) "inner depth" 2 i1.Span.depth;
  Alcotest.(check bool) "same lane" true (outer.Span.lane = i1.Span.lane);
  Alcotest.(check (list (pair string string))) "attrs kept" [ ("k", "v") ] i2.Span.attrs;
  List.iter
    (fun (c : Span.event) ->
      Alcotest.(check bool) "child starts after parent" true
        (Int64.compare outer.Span.start_ns c.Span.start_ns <= 0);
      Alcotest.(check bool) "child ends before parent" true
        (Int64.compare c.Span.end_ns outer.Span.end_ns <= 0))
    [ i1; i2 ];
  Alcotest.(check bool) "siblings ordered" true
    (Int64.compare i1.Span.end_ns i2.Span.start_ns <= 0);
  fresh ()

let test_span_exception () =
  fresh ();
  Span.with_enabled true (fun () ->
      (try Span.with_ ~name:"raises" (fun () -> failwith "boom") with Failure _ -> ());
      Span.with_ ~name:"after" (fun () -> ()));
  let evs = Span.events () in
  Alcotest.(check (list string)) "span recorded on raise" [ "raises"; "after" ]
    (List.map (fun (e : Span.event) -> e.Span.name) evs);
  (* Depth bookkeeping recovered: "after" sits at depth 1 again. *)
  let after = List.find (fun (e : Span.event) -> e.Span.name = "after") evs in
  Alcotest.(check int) "depth recovered" 1 after.Span.depth;
  fresh ()

(* Spans recorded from pool workers land in per-domain rings; the
   collected chunk spans tile the iteration space exactly once.  With
   MG_PROCS=4 in CI this exercises genuine cross-domain recording (we
   deliberately don't assert distinct lanes: a fast worker may claim
   several chunks before a slow one wakes). *)
let test_span_multi_domain () =
  fresh ();
  let pool = Domain_pool.create 4 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      Span.with_enabled true (fun () ->
          Domain_pool.parallel_for pool ~lo:0 ~hi:64 (fun lo hi ->
              for _ = lo to hi - 1 do
                ignore (Sys.opaque_identity (Stdlib.sqrt 2.0))
              done)));
  let chunks =
    List.filter (fun (e : Span.event) -> e.Span.name = "pool:chunk") (Span.events ())
  in
  (* Static-block policy over 4 participants: one range each. *)
  Alcotest.(check int) "one span per chunk" 4 (List.length chunks);
  let ranges =
    List.sort compare
      (List.map
         (fun (e : Span.event) ->
           ( int_of_string (List.assoc "lo" e.Span.attrs),
             int_of_string (List.assoc "hi" e.Span.attrs) ))
         chunks)
  in
  let covered = List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 ranges in
  Alcotest.(check int) "ranges cover the index space" 64 covered;
  List.iter
    (fun (e : Span.event) ->
      Alcotest.(check bool) "monotone timestamps" true
        (Int64.compare e.Span.start_ns e.Span.end_ns <= 0))
    chunks;
  fresh ()

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_histogram_buckets () =
  List.iter
    (fun (v, b) ->
      Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) b (Metrics.bucket_of v))
    [ (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (7, 2); (8, 3); (1023, 9); (1024, 10);
      (max_int, 61);
    ];
  Alcotest.(check int) "bucket_lo 0" 0 (Metrics.bucket_lo 0);
  Alcotest.(check int) "bucket_lo 5" 32 (Metrics.bucket_lo 5);
  let h = Metrics.histogram "test.histo" in
  List.iter (Metrics.observe h) [ 0; 1; 2; 3; 1024 ];
  let s = Metrics.histogram_snapshot h in
  Alcotest.(check int) "count" 5 s.Metrics.count;
  Alcotest.(check int) "sum" 1030 s.Metrics.sum;
  Alcotest.(check int) "trimmed to last bucket" 11 (Array.length s.Metrics.buckets);
  Alcotest.(check int) "bucket 0 holds v<=1" 2 s.Metrics.buckets.(0);
  Alcotest.(check int) "bucket 1 holds 2..3" 2 s.Metrics.buckets.(1);
  Alcotest.(check int) "bucket 10 holds 1024" 1 s.Metrics.buckets.(10)

let test_counter_atomicity () =
  let c = Metrics.counter "test.atomic" in
  Metrics.set_counter c 0;
  let pool = Domain_pool.create 4 in
  let n = 100_000 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      Domain_pool.parallel_for ~policy:(Mg_smp.Sched_policy.Dynamic_chunked 8) pool
        ~lo:0 ~hi:n (fun lo hi ->
          for _ = lo to hi - 1 do
            Metrics.incr c
          done));
  Alcotest.(check int) "no lost increments" n (Metrics.value c)

let test_registry () =
  let c = Metrics.counter "test.reg.counter" in
  let g = Metrics.gauge "test.reg.gauge" in
  Metrics.set_counter c 0;
  Metrics.add c 41;
  Metrics.incr c;
  Metrics.set_gauge g 1.0;
  Metrics.add_gauge g 0.5;
  Alcotest.(check int) "counter interned" 42
    (Metrics.value (Metrics.counter "test.reg.counter"));
  Alcotest.(check (float 1e-12)) "gauge accumulates" 1.5 (Metrics.gauge_value g);
  (match List.assoc_opt "test.reg.counter" (Metrics.dump ()) with
  | Some (Metrics.Counter 42) -> ()
  | _ -> Alcotest.fail "counter missing from dump");
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Metrics.gauge: \"test.reg.counter\" is not a gauge") (fun () ->
      ignore (Metrics.gauge "test.reg.counter"))

(* ------------------------------------------------------------------ *)
(* Chrome exporter golden test (deterministic via origin_ns)           *)

let test_chrome_golden () =
  let evs =
    [ { Span.name = "a"; lane = 0; depth = 1; start_ns = 1000L; end_ns = 3000L;
        attrs = [ ("k", "v") ]; scope = None };
      { Span.name = "b"; lane = 0; depth = 2; start_ns = 1500L; end_ns = 1500L;
        attrs = []; scope = None };
      { Span.name = "c"; lane = 3; depth = 1; start_ns = 2000L; end_ns = 2500L;
        attrs = []; scope = None };
    ]
  in
  let expected =
    "{\"traceEvents\":[\n\
     {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"domain-0\"}},\n\
     {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":3,\"args\":{\"name\":\"domain-3\"}},\n\
     {\"name\":\"a\",\"ph\":\"X\",\"ts\":0.000,\"dur\":2.000,\"pid\":1,\"tid\":0,\"args\":{\"k\":\"v\"}},\n\
     {\"name\":\"b\",\"ph\":\"i\",\"s\":\"t\",\"ts\":0.500,\"pid\":1,\"tid\":0},\n\
     {\"name\":\"c\",\"ph\":\"X\",\"ts\":1.000,\"dur\":0.500,\"pid\":1,\"tid\":3}\n\
     ],\"displayTimeUnit\":\"ms\"}\n"
  in
  Alcotest.(check string) "golden JSON" expected
    (Chrome_trace.to_string ~origin_ns:1000L evs)

let test_chrome_escaping () =
  let evs =
    [ { Span.name = "quo\"te"; lane = 0; depth = 1; start_ns = 0L; end_ns = 1L;
        attrs = [ ("nl", "a\nb\\c") ]; scope = None };
    ]
  in
  let s = Chrome_trace.to_string ~origin_ns:0L evs in
  Alcotest.(check bool) "quote escaped" true (contains s {|"quo\"te"|});
  Alcotest.(check bool) "newline and backslash escaped" true (contains s {|"a\nb\\c"|})

(* ------------------------------------------------------------------ *)
(* Profile report                                                      *)

let test_self_times () =
  (* parent [0,100], children [10,30] and [40,90] -> parent self 40. *)
  let ev name depth start_ns end_ns =
    { Span.name; lane = 0; depth; start_ns; end_ns; attrs = []; scope = None }
  in
  let selfs =
    Profile_report.self_times [ ev "p" 1 0L 100L; ev "c1" 2 10L 30L; ev "c2" 2 40L 90L ]
  in
  let self n =
    List.assoc n (List.map (fun ((e : Span.event), s) -> (e.Span.name, s)) selfs)
  in
  Alcotest.(check int64) "parent self excludes children" 30L (self "p");
  Alcotest.(check int64) "leaf self is its duration" 20L (self "c1");
  Alcotest.(check int64) "leaf self is its duration" 50L (self "c2")

let test_report_smoke () =
  fresh ();
  Span.with_enabled true (fun () ->
      Span.with_ ~name:"stage" (fun () ->
          Span.with_
            ~attrs:
              [ ("extent", "18"); ("elements", "100"); ("cache", "hit"); ("kernel", "zip") ]
            ~name:"wl:force"
            (fun () -> ignore (Sys.opaque_identity 1))));
  let report = Profile_report.render (Span.events ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "report mentions %S" needle) true
        (contains report needle))
    [ "Pipeline stages"; "wl:force"; "stage"; "18" ];
  fresh ()

(* ------------------------------------------------------------------ *)
(* Disabled-mode overhead: a span around a disabled flag is one atomic
   load and a branch.  The bound is deliberately generous (noisy CI
   containers): the regression it guards against is accidentally
   reading the clock or allocating attrs when disabled, which costs
   well over 100 ns per call. *)

let test_disabled_overhead () =
  fresh ();
  let n = 200_000 in
  let acc = ref 0 in
  for i = 0 to 999 do
    Span.with_ ~name:"off" (fun () -> acc := !acc + i)
  done;
  let t0 = Clock.now () in
  for i = 0 to n - 1 do
    Span.with_ ~name:"off" (fun () -> acc := !acc + i)
  done;
  let dt = Clock.now () -. t0 in
  ignore (Sys.opaque_identity !acc);
  let ns_per_call = dt *. 1e9 /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "disabled span < 250 ns/call (measured %.1f)" ns_per_call)
    true (ns_per_call < 250.0);
  Alcotest.(check int) "nothing recorded" 0 (List.length (Span.events ()))

(* ------------------------------------------------------------------ *)
(* Observation must not change results: force the same graph with the
   spans on and off and compare the floats bitwise. *)

let test_observe_bitwise_identity () =
  fresh ();
  let open Mg_ndarray in
  let open Mg_withloop in
  let module E = Wl.Expr in
  let shp = [| 18; 18; 18 |] in
  let src =
    Ndarray.init shp (fun iv ->
        Stdlib.sin (float_of_int ((iv.(0) * 331) + (iv.(1) * 97) + iv.(2))))
  in
  let build () =
    let gen = Generator.interior shp 1 in
    Wl.genarray shp
      [ ( gen,
          E.(
            (const 0.5 * read_offset (Wl.of_ndarray src) [| 1; 0; 0 |])
            + (const 0.25 * read_offset (Wl.of_ndarray src) [| -1; 0; 0 |])
            + read (Wl.of_ndarray src)) );
      ]
  in
  Wl.cache_clear ();
  let plain = Wl.force (build ()) in
  Wl.cache_clear ();
  let observed =
    Span.with_enabled true (fun () ->
        Wl.with_config (fun c -> { c with Engine.observe = true }) (fun () -> Wl.force (build ())))
  in
  let n = Shape.num_elements shp in
  let same = ref true in
  for i = 0 to n - 1 do
    if
      Int64.bits_of_float (Ndarray.get_flat plain i)
      <> Int64.bits_of_float (Ndarray.get_flat observed i)
    then same := false
  done;
  Alcotest.(check bool) "bitwise identical with observation on" true !same;
  fresh ()


(* ------------------------------------------------------------------ *)
(* Quantile estimation: nearest rank with in-bucket interpolation.     *)

let test_quantile_units () =
  (* Empty snapshot. *)
  let empty = { Metrics.buckets = [||]; count = 0; sum = 0 } in
  Alcotest.(check (float 0.0)) "empty -> 0" 0.0 (Metrics.quantile empty 0.5);
  (* All mass in bucket 0 (v <= 1): any quantile lands in [0, 1]. *)
  let b0 = { Metrics.buckets = [| 10 |]; count = 10; sum = 10 } in
  Alcotest.(check bool) "bucket-0 median within [0,1]" true
    (let m = Metrics.quantile b0 0.5 in
     m >= 0.0 && m <= 1.0);
  (* One observation per bucket 0..3: p100 lands in the last bucket. *)
  let h = { Metrics.buckets = [| 1; 1; 1; 1 |]; count = 4; sum = 0 } in
  let p100 = Metrics.quantile h 1.0 in
  Alcotest.(check bool) "p100 in last bucket" true (p100 >= 8.0 && p100 <= 16.0);
  let p25 = Metrics.quantile h 0.25 in
  Alcotest.(check bool) "p25 in first bucket" true (p25 >= 0.0 && p25 <= 1.0);
  (* Out-of-range q clamps rather than raising. *)
  Alcotest.(check bool) "q clamps" true
    (Metrics.quantile h 2.0 = p100 && Metrics.quantile h (-1.0) = Metrics.quantile h 0.0)

(* Property: the interpolated estimate lands within one log2 bucket of
   the exact nearest-rank order statistic, for arbitrary observation
   multisets and quantiles. *)
let qcheck_quantile_bucket =
  QCheck.Test.make ~name:"quantile within one log2 bucket of exact" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 200) (0 -- 1_000_000)) (0 -- 100))
    (fun (obs, qi) ->
      let q = float_of_int qi /. 100.0 in
      let buckets = Array.make 63 0 in
      List.iter (fun v -> buckets.(Metrics.bucket_of v) <- buckets.(Metrics.bucket_of v) + 1) obs;
      let count = List.length obs in
      let snap = { Metrics.buckets; count; sum = List.fold_left ( + ) 0 obs } in
      let est = Metrics.quantile snap q in
      let sorted = List.sort compare obs in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int count))) in
      let exact = List.nth sorted (rank - 1) in
      let est_b = Metrics.bucket_of (int_of_float est) in
      let exact_b = Metrics.bucket_of exact in
      abs (est_b - exact_b) <= 1)

(* ------------------------------------------------------------------ *)
(* Labelled metrics: per-label cells are independent of each other and
   of the unlabelled aggregate; kinds are enforced across label sets.  *)

let test_labelled_metrics () =
  let base = Metrics.counter "test.lab.counter" in
  let e1 = Metrics.counter ~labels:[ ("engine", "1") ] "test.lab.counter" in
  let e2 = Metrics.counter ~labels:[ ("tenant", "t"); ("engine", "2") ] "test.lab.counter" in
  Metrics.set_counter base 0;
  Metrics.set_counter e1 0;
  Metrics.set_counter e2 0;
  Metrics.add base 1;
  Metrics.add e1 10;
  Metrics.add e2 100;
  Alcotest.(check int) "aggregate independent" 1 (Metrics.value base);
  Alcotest.(check int) "engine-1 shard independent" 10 (Metrics.value e1);
  Alcotest.(check int) "engine-2 shard independent" 100 (Metrics.value e2);
  (* Label order is canonicalised at interning. *)
  let e2' = Metrics.counter ~labels:[ ("engine", "2"); ("tenant", "t") ] "test.lab.counter" in
  Metrics.incr e2';
  Alcotest.(check int) "label order canonicalised" 101 (Metrics.value e2);
  Alcotest.(check (list (pair string string)))
    "labels sorted" [ ("engine", "2"); ("tenant", "t") ] (Metrics.counter_labels e2);
  (* dump hides labelled shards; dump_all shows them. *)
  Alcotest.(check bool) "dump is unlabelled only" true
    (List.for_all (fun (n, _) -> n <> "test.lab.counter" || true) (Metrics.dump ())
    && List.length (List.filter (fun (n, _) -> n = "test.lab.counter") (Metrics.dump ())) = 1);
  let shards =
    List.filter (fun (n, _, _) -> n = "test.lab.counter") (Metrics.dump_all ())
  in
  Alcotest.(check int) "dump_all has all shards" 3 (List.length shards);
  (* One kind per family, across label sets. *)
  Alcotest.check_raises "cross-label kind mismatch rejected"
    (Invalid_argument "Metrics.gauge: \"test.lab.counter\" is not a gauge") (fun () ->
      ignore (Metrics.gauge ~labels:[ ("engine", "9") ] "test.lab.counter"))

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

let test_openmetrics_export () =
  let c = Metrics.counter ~labels:[ ("engine", "7") ] "test.om.counter" in
  Metrics.set_counter c 0;
  Metrics.add c 5;
  let h = Metrics.histogram "test.om.histo" in
  List.iter (Metrics.observe h) [ 1; 2; 4; 100; 5000 ];
  let om = Export.to_openmetrics () in
  Alcotest.(check bool) "TYPE line for counter" true
    (contains om "# TYPE test_om_counter counter");
  Alcotest.(check bool) "labelled _total sample" true
    (contains om "test_om_counter_total{engine=\"7\"} 5");
  Alcotest.(check bool) "TYPE line for histogram" true
    (contains om "# TYPE test_om_histo histogram");
  Alcotest.(check bool) "+Inf bucket present" true
    (contains om "test_om_histo_bucket{le=\"+Inf\"} 5");
  Alcotest.(check bool) "_count matches" true (contains om "test_om_histo_count 5");
  Alcotest.(check bool) "ends with EOF" true
    (let n = String.length om in
     n >= 6 && String.sub om (n - 6) 6 = "# EOF\n");
  (* Cumulative bucket series are monotone non-decreasing. *)
  let lines = String.split_on_char '\n' om in
  let bucket_counts =
    List.filter_map
      (fun l ->
        if String.length l > 20 && String.sub l 0 20 = "test_om_histo_bucket" then
          match String.rindex_opt l ' ' with
          | Some sp -> int_of_string_opt (String.sub l (sp + 1) (String.length l - sp - 1))
          | None -> None
        else None)
      lines
  in
  Alcotest.(check bool) "bucket series cumulative" true
    (let rec mono = function
       | a :: (b :: _ as tl) -> a <= b && mono tl
       | _ -> true
     in
     mono bucket_counts)

let test_jsonl_export () =
  let h = Metrics.histogram "test.jl.histo" in
  List.iter (Metrics.observe h) [ 10; 20; 30 ];
  let jl = Export.to_jsonl () in
  let line =
    List.find (fun l -> contains l "test.jl.histo") (String.split_on_char '\n' jl)
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "jsonl has %s" needle) true (contains line needle))
    [ "\"type\":\"histogram\""; "\"count\":3"; "\"p50\":"; "\"p99\":"; "\"buckets\":[" ]

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)

let flight_note i =
  Flight.note ~solve_id:i ~engine_id:(i mod 3) ~tenant:None ~config:"test"
    ~wall_ns:1000L ~stages:[ ("init", 10L); ("iterate", 900L) ] ~cache_hits:1
    ~cache_misses:2 ~pool_hits:3 ~reuse_hits:4 ~alloc_bytes:8192 ~bytes_live_hw:65536
    ~rnm2:1e-5 ~verified:true ()

let test_flight_ring () =
  Flight.clear ();
  let n = Flight.capacity + 100 in
  for i = 0 to n - 1 do
    flight_note i
  done;
  let rs = Flight.records () in
  Alcotest.(check int) "ring bounded at capacity" Flight.capacity (List.length rs);
  (* Oldest-first, consecutive seq, ending at the newest admission. *)
  let seqs = List.map (fun (r : Flight.record) -> r.Flight.seq) rs in
  let rec consecutive = function
    | a :: (b :: _ as tl) -> b = a + 1 && consecutive tl
    | _ -> true
  in
  Alcotest.(check bool) "seq consecutive oldest-first" true (consecutive seqs);
  Alcotest.(check int) "newest record survived" (n - 1) (List.nth seqs (List.length seqs - 1));
  let r = List.hd (List.rev rs) in
  Alcotest.(check int) "payload intact" 3 r.Flight.pool_hits;
  Alcotest.(check (list (pair string int64))) "stages intact"
    [ ("init", 10L); ("iterate", 900L) ] r.Flight.stages;
  Alcotest.(check bool) "pp mentions VERIFIED" true
    (contains (Format.asprintf "%a" Flight.pp_record r) "VERIFIED");
  Flight.clear ();
  Alcotest.(check int) "clear empties" 0 (List.length (Flight.records ()))

let test_flight_note_cost () =
  Flight.clear ();
  let n = 50_000 in
  for i = 0 to 999 do flight_note i done;
  let t0 = Clock.now () in
  for i = 0 to n - 1 do
    flight_note i
  done;
  let dt = Clock.now () -. t0 in
  let ns = dt *. 1e9 /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "flight note < 1000 ns (measured %.0f)" ns)
    true (ns < 1000.0);
  Flight.clear ()

(* ------------------------------------------------------------------ *)
(* Scopes: per-solve contexts veto span recording and shard metrics.   *)

let test_scope_veto () =
  fresh ();
  (* Pool lifecycle happens outside the enabled window: worker startup
     and teardown record their own (unscoped) spans, which are not
     what this test is about. *)
  let pool = Domain_pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      Span.with_enabled true (fun () ->
          (* Global flag on, scope observe=false: nothing records — on
             the calling domain or on pool workers (the pool mirrors
             the scope). *)
          let dark = Scope.make ~observe:false ~engine_id:97 () in
          Scope.with_scope dark (fun () ->
              Span.with_ ~name:"vetoed" (fun () -> ());
              Domain_pool.parallel_for pool ~lo:0 ~hi:16 (fun lo hi ->
                  for _ = lo to hi - 1 do
                    ignore (Sys.opaque_identity 1)
                  done));
          (* Worker startup (arena registration) may race into this
             window and record unscoped infrastructure spans; the veto
             property is that no *scoped* work recorded — neither the
             caller's span nor any pool chunk. *)
          Alcotest.(check int) "scope observe=false vetoes all scoped spans" 0
            (List.length
               (List.filter
                  (fun (e : Span.event) ->
                    e.Span.name = "vetoed" || e.Span.name = "pool:chunk"
                    || e.Span.scope <> None)
                  (Span.events ())));
          Span.clear ();
          (* And an observing scope stamps its events. *)
          let lit = Scope.make ~observe:true ~engine_id:98 () in
          Scope.with_scope lit (fun () -> Span.with_ ~name:"stamped" (fun () -> ()));
          match List.filter (fun (e : Span.event) -> e.Span.name = "stamped") (Span.events ()) with
          | [ e ] -> (
              match e.Span.scope with
              | Some sc ->
                  Alcotest.(check int) "stamped with engine id" 98 (Scope.engine_id sc)
              | None -> Alcotest.fail "event not stamped with its scope")
          | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)));
  fresh ()

let test_scope_shards () =
  let sc =
    Scope.make ~observe:true ~counters:[ "test.sc.counter" ]
      ~histograms:[ "test.sc.histo" ] ~engine_id:55 ()
  in
  (* Bumps outside any scope go nowhere (no allocation, no raise). *)
  Scope.bump "test.sc.counter" 7;
  Alcotest.(check int) "no ambient scope, no bump" 0 (Scope.counter_value sc "test.sc.counter");
  Scope.with_scope sc (fun () ->
      Scope.bump "test.sc.counter" 7;
      Scope.bump "test.sc.unknown" 3;
      (* unknown names ignored *)
      Scope.observe "test.sc.histo" 42);
  Alcotest.(check int) "bump lands in the scope's shard" 7
    (Scope.counter_value sc "test.sc.counter");
  let shard = Metrics.counter ~labels:(Scope.labels sc) "test.sc.counter" in
  Alcotest.(check int) "shard is the labelled registry cell" 7 (Metrics.value shard);
  Alcotest.(check (list (pair string string)))
    "labels carry the engine id" [ ("engine", "55") ] (Scope.labels sc)

let test_scope_stages () =
  let sc = Scope.make ~observe:true ~engine_id:56 () in
  Scope.with_scope sc (fun () ->
      ignore (Scope.time_stage "one" (fun () -> Sys.opaque_identity 1));
      ignore (Scope.time_stage "two" (fun () -> Sys.opaque_identity 2)));
  (match Scope.stages sc with
  | [ ("one", a); ("two", b) ] ->
      Alcotest.(check bool) "stage times non-negative" true
        (Int64.compare a 0L >= 0 && Int64.compare b 0L >= 0)
  | st -> Alcotest.failf "expected 2 stages in order, got %d" (List.length st));
  (* Outside any scope time_stage is transparent. *)
  Alcotest.(check int) "transparent outside scope" 9
    (Scope.time_stage "ignored" (fun () -> 9))

(* The disabled-span bound must hold with a scope installed too: the
   global flag is read first, so the DLS lookup never happens. *)
let test_scope_disabled_overhead () =
  fresh ();
  let sc = Scope.make ~observe:true ~engine_id:57 () in
  Scope.with_scope sc (fun () ->
      let n = 200_000 in
      let acc = ref 0 in
      for i = 0 to 999 do
        Span.with_ ~name:"off" (fun () -> acc := !acc + i)
      done;
      let t0 = Clock.now () in
      for i = 0 to n - 1 do
        Span.with_ ~name:"off" (fun () -> acc := !acc + i)
      done;
      let dt = Clock.now () -. t0 in
      ignore (Sys.opaque_identity !acc);
      let ns_per_call = dt *. 1e9 /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "disabled span < 250 ns/call under a scope (measured %.1f)" ns_per_call)
        true (ns_per_call < 250.0));
  Alcotest.(check int) "nothing recorded" 0 (List.length (Span.events ()))

(* Scoped events get engine lanes and async solve brackets; unscoped
   output stays byte-identical (the golden test above). *)
let test_chrome_scoped () =
  fresh ();
  Span.with_enabled true (fun () ->
      let sc = Scope.make ~observe:true ~engine_id:3 () in
      Scope.with_scope sc (fun () -> Span.with_ ~name:"scoped-work" (fun () -> ())));
  let json = Chrome_trace.to_string (Span.events ()) in
  Alcotest.(check bool) "engine lane name" true (contains json "engine3/domain-");
  Alcotest.(check bool) "async bracket open" true (contains json "\"ph\":\"b\"");
  Alcotest.(check bool) "async bracket close" true (contains json "\"ph\":\"e\"");
  Alcotest.(check bool) "solve cat" true (contains json "\"cat\":\"solve\"");
  fresh ()

let suite =
  ( "obs",
    [ Alcotest.test_case "span nesting" `Quick test_span_nesting;
      Alcotest.test_case "span on exception" `Quick test_span_exception;
      Alcotest.test_case "spans across domains" `Quick test_span_multi_domain;
      Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
      Alcotest.test_case "counter atomicity" `Quick test_counter_atomicity;
      Alcotest.test_case "metrics registry" `Quick test_registry;
      Alcotest.test_case "chrome golden" `Quick test_chrome_golden;
      Alcotest.test_case "chrome escaping" `Quick test_chrome_escaping;
      Alcotest.test_case "self times" `Quick test_self_times;
      Alcotest.test_case "report smoke" `Quick test_report_smoke;
      Alcotest.test_case "disabled overhead" `Quick test_disabled_overhead;
      Alcotest.test_case "observe bitwise identity" `Quick test_observe_bitwise_identity;
      Alcotest.test_case "quantile units" `Quick test_quantile_units;
      QCheck_alcotest.to_alcotest qcheck_quantile_bucket;
      Alcotest.test_case "labelled metrics" `Quick test_labelled_metrics;
      Alcotest.test_case "openmetrics export" `Quick test_openmetrics_export;
      Alcotest.test_case "jsonl export" `Quick test_jsonl_export;
      Alcotest.test_case "flight ring" `Quick test_flight_ring;
      Alcotest.test_case "flight note cost" `Quick test_flight_note_cost;
      Alcotest.test_case "scope veto" `Quick test_scope_veto;
      Alcotest.test_case "scope shards" `Quick test_scope_shards;
      Alcotest.test_case "scope stages" `Quick test_scope_stages;
      Alcotest.test_case "scope disabled overhead" `Quick test_scope_disabled_overhead;
      Alcotest.test_case "chrome scoped lanes" `Quick test_chrome_scoped;
    ] )
