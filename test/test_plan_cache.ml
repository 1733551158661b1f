(* Plan-cache correctness: replays must be indistinguishable from cold
   compilation.  The dangerous failure mode is a key collision — two
   graphs that compile differently but hash to the same plan — so the
   tests drive pairs of same-shape graphs that differ only in details
   the key must capture (coefficient values, offsets, optimisation
   configuration) and check each gets its own answer. *)

open Mg_ndarray
open Mg_withloop
module E = Wl.Expr

let src_of_seed shp seed =
  let st = Mg_nasrand.Nasrand.make ~seed:(float_of_int (4200 + seed)) () in
  Ndarray.init shp (fun _ -> Mg_nasrand.Nasrand.next st -. 0.5)

(* A fresh delayed stencil graph; [c] is the only varying coefficient. *)
let stencil_graph src c =
  let shp = Ndarray.shape src in
  let w = Wl.of_ndarray src in
  let gen = Generator.interior shp 1 in
  let body =
    E.(
      (const c * read_offset w [| 0; 0 |])
      + (const 0.5 * (read_offset w [| 1; 0 |] + read_offset w [| -1; 0 |]))
      + (const 0.25 * (read_offset w [| 0; 1 |] + read_offset w [| 0; -1 |])))
  in
  Wl.genarray ~default:0.0 shp [ (gen, body) ]

let oracle src c =
  let shp = Ndarray.shape src in
  let gen = Generator.interior shp 1 in
  Ndarray.init shp (fun iv ->
      if Generator.mem gen iv then
        (c *. Ndarray.get src iv)
        +. (0.5 *. (Ndarray.get src [| iv.(0) + 1; iv.(1) |] +. Ndarray.get src [| iv.(0) - 1; iv.(1) |]))
        +. (0.25 *. (Ndarray.get src [| iv.(0); iv.(1) + 1 |] +. Ndarray.get src [| iv.(0); iv.(1) - 1 |]))
      else 0.0)

let check_exact msg a b = Alcotest.(check bool) msg true (Ndarray.equal a b)

let test_replay_identical () =
  Wl.cache_clear ();
  let src = src_of_seed [| 20; 20 |] 1 in
  let cold = Wl.force (stencil_graph src 2.0) in
  let s1 = Wl.cache_stats () in
  let warm = Wl.force (stencil_graph src 2.0) in
  let s2 = Wl.cache_stats () in
  check_exact "replay bitwise-identical to cold run" cold warm;
  Alcotest.(check bool) "second force was a cache hit" true
    (s2.Plan_cache.hits > s1.Plan_cache.hits)

let test_coefficients_do_not_collide () =
  Wl.cache_clear ();
  let src = src_of_seed [| 20; 20 |] 2 in
  (* Same structure, different coefficient: the second force must not
     replay the first plan's compiled constants. *)
  let a = Wl.force (stencil_graph src 2.0) in
  let b = Wl.force (stencil_graph src (-3.25)) in
  Alcotest.(check bool) "coeff 2.0 correct" true (Ndarray.max_abs_diff a (oracle src 2.0) < 1e-12);
  Alcotest.(check bool) "coeff -3.25 correct" true
    (Ndarray.max_abs_diff b (oracle src (-3.25)) < 1e-12);
  (* And the structurally identical repeats do hit. *)
  let s1 = Wl.cache_stats () in
  ignore (Wl.force (stencil_graph src 2.0));
  ignore (Wl.force (stencil_graph src (-3.25)));
  let s2 = Wl.cache_stats () in
  Alcotest.(check int) "both repeats hit" (s1.Plan_cache.hits + 2) s2.Plan_cache.hits

let test_offsets_do_not_collide () =
  Wl.cache_clear ();
  let shp = [| 16; 16 |] in
  let src = src_of_seed shp 3 in
  let w = Wl.of_ndarray src in
  let gen = Generator.interior shp 1 in
  let graph d = Wl.genarray ~default:0.0 shp [ (gen, E.read_offset w d) ] in
  let a = Wl.force (graph [| 1; 0 |]) in
  let b = Wl.force (graph [| 0; 1 |]) in
  let want d =
    Ndarray.init shp (fun iv ->
        if Generator.mem gen iv then Ndarray.get src (Shape.add iv d) else 0.0)
  in
  check_exact "offset [1;0] correct" a (want [| 1; 0 |]);
  check_exact "offset [0;1] correct" b (want [| 0; 1 |])

let test_opt_levels_do_not_collide () =
  Wl.cache_clear ();
  let src = src_of_seed [| 20; 20 |] 4 in
  let want = oracle src 1.5 in
  (* Interleave opt levels over the same structure: each level has its
     own env fingerprint, so each compiles once and then hits. *)
  List.iter
    (fun level ->
      let got =
        Wl.with_config
          (fun c -> { c with Engine.opt_level = level })
          (fun () -> Wl.force (stencil_graph src 1.5))
      in
      Alcotest.(check bool)
        (Printf.sprintf "correct at %s" (Engine.opt_level_to_string level))
        true
        (Ndarray.max_abs_diff got want < 1e-12))
    [ Engine.O0; Engine.O3; Engine.O1; Engine.O0; Engine.O2; Engine.O3 ]

let test_threads_round_trip () =
  Wl.cache_clear ();
  let src = src_of_seed [| 24; 24 |] 5 in
  let a = Wl.force (stencil_graph src 0.75) in
  (* The env omits thread count: the parallel split happens at
     execution time, so a plan compiled under one pool size must
     replay — bitwise-identically — under another.  (The derived
     engines share the same cache instance, so the stats accumulate.) *)
  let s1 = Wl.cache_stats () in
  let with_threads threads =
    Wl.with_config (fun c -> { c with Engine.threads }) (fun () -> Wl.force (stencil_graph src 0.75))
  in
  let b = with_threads 1 in
  let c = with_threads 4 in
  let s2 = Wl.cache_stats () in
  check_exact "1 thread replay identical" a b;
  check_exact "4 thread replay identical" a c;
  Alcotest.(check int) "both thread settings hit" (s1.Plan_cache.hits + 2) s2.Plan_cache.hits

let test_line_buffers_env_split () =
  Wl.cache_clear ();
  let shp = [| 10; 10; 10 |] in
  let src = src_of_seed shp 6 in
  let force_with lb =
    Wl.with_config
      (fun c -> { c with Engine.line_buffers = lb })
      (fun () -> Wl.force (Mg_core.Mg_sac.relax_kernel Mg_core.Stencil.a (Wl.of_ndarray src)))
  in
  let plain = force_with false in
  let buffered = force_with true in
  (* Different kernels, different summation grouping — tolerance, not
     bitwise equality. *)
  Alcotest.(check bool) "line-buffered kernel agrees" true
    (Ndarray.max_abs_diff plain buffered < 1e-12);
  (* Each setting replays from its own entry, values stable. *)
  check_exact "plain replay stable" plain (force_with false);
  check_exact "buffered replay stable" buffered (force_with true)

(* The nt bit: a plan compiled for the native tier must not be served
   to a cfun force and vice versa — the stored kernel payloads differ
   (dlopen'd function pointer vs staged closure) even though the
   results are bitwise identical.  coarse2fine's strided parts reach
   the unrecognised-body rung, so the native tier genuinely engages. *)
let test_native_env_split () =
  Wl.cache_clear ();
  let shp = [| 10; 10; 10 |] in
  let src = src_of_seed shp 8 in
  let force_with nt =
    Wl.with_config
      (fun c -> { c with Engine.native = nt })
      (fun () -> Wl.force (Mg_core.Mg_sac.coarse2fine (Wl.of_ndarray src)))
  in
  let plain = force_with false in
  let s1 = Wl.cache_stats () in
  let native = force_with true in
  let s2 = Wl.cache_stats () in
  Alcotest.(check bool) "native force misses (nt bit splits the key)" true
    (s2.Plan_cache.misses > s1.Plan_cache.misses);
  check_exact "native tier bitwise equals cfun tier" plain native;
  check_exact "plain replay stable" plain (force_with false);
  check_exact "native replay stable" native (force_with true)

let test_cache_clear_resets () =
  Wl.cache_clear ();
  let src = src_of_seed [| 12; 12 |] 7 in
  ignore (Wl.force (stencil_graph src 1.0));
  ignore (Wl.force (stencil_graph src 1.0));
  let s = Wl.cache_stats () in
  Alcotest.(check bool) "recorded a hit" true (s.Plan_cache.hits >= 1);
  Wl.cache_clear ();
  let z = Wl.cache_stats () in
  Alcotest.(check int) "hits reset" 0 z.Plan_cache.hits;
  Alcotest.(check int) "misses reset" 0 z.Plan_cache.misses;
  (* After a clear the same graph compiles afresh — still correct. *)
  let again = Wl.force (stencil_graph src 1.0) in
  Alcotest.(check bool) "recompiles correctly" true
    (Ndarray.max_abs_diff again (oracle src 1.0) < 1e-12)

(* A periodic-border barrier whose base has no other consumer updates
   the base's buffer in place (steals it).  The stored plan must
   resolve the stolen buffer to the base's binding slot, so a second,
   structurally identical graph replays the steal instead of being
   recompiled on every force. *)
let border_graph src =
  let shp = Ndarray.shape src in
  let w = Wl.of_ndarray src in
  let base =
    Wl.genarray ~default:0.0 shp
      [ (Generator.interior shp 1, E.((const 0.5 * read_offset w [| 1; 0 |]) + (const 0.25 * read w))) ]
  in
  Mg_arraylib.Border.setup_periodic_border base

let test_steal_replays () =
  Wl.cache_clear ();
  let src = src_of_seed [| 12; 12 |] 9 in
  let want = Wl.run_reference (border_graph src) in
  let cold = Wl.force (border_graph src) in
  let s1 = Wl.cache_stats () in
  let warm = Wl.force (border_graph src) in
  let s2 = Wl.cache_stats () in
  check_exact "cold force matches the reference" want cold;
  check_exact "replay bitwise-identical to the cold force" cold warm;
  Alcotest.(check int) "border and base both replayed" 2 (s2.Plan_cache.hits - s1.Plan_cache.hits);
  Alcotest.(check int) "nothing recompiled" 0 (s2.Plan_cache.misses - s1.Plan_cache.misses);
  Alcotest.(check int) "nothing uncacheable" 0
    (s2.Plan_cache.uncacheable - s1.Plan_cache.uncacheable)

(* Every force of a warm V-cycle replays a stored plan: from the second
   class-S solve on, an engine compiles nothing and meets no
   uncacheable force.  The engine takes its configuration from the
   environment, so each CI leg (threads, reuse, pooling, native) checks
   its own configuration. *)
let test_warm_solve_all_hits () =
  let e = Engine.create () in
  Fun.protect ~finally:(fun () -> Engine.shutdown e) @@ fun () ->
  let solve () =
    (Mg_core.Driver.run ~engine:e ~impl:Mg_core.Driver.Sac ~cls:Mg_core.Classes.class_s ())
      .Mg_core.Driver.rnm2
  in
  let cold = solve () in
  let s1 = Engine.cache_stats e in
  let warm = solve () in
  let s2 = Engine.cache_stats e in
  Alcotest.(check bool) "rnm2 bitwise-identical" true (Int64.bits_of_float cold = Int64.bits_of_float warm);
  Alcotest.(check bool) "warm solve hit the cache" true (s2.Plan_cache.hits > s1.Plan_cache.hits);
  Alcotest.(check int) "warm solve: no misses" 0 (s2.Plan_cache.misses - s1.Plan_cache.misses);
  Alcotest.(check int) "warm solve: no uncacheable forces" 0
    (s2.Plan_cache.uncacheable - s1.Plan_cache.uncacheable)

(* The qcheck spec machinery from the oracle suite, replayed: any
   random linear with-loop forced twice must produce bitwise-identical
   results, with the second force served by the cache whenever the
   first stored a plan. *)
let qcheck_replay_matches_cold =
  QCheck.Test.make ~name:"random graphs replay bitwise-identically" ~count:150
    Test_exec_oracle.arb_spec
    (fun s ->
      let cold = Test_exec_oracle.force_spec s in
      let warm = Test_exec_oracle.force_spec s in
      Ndarray.equal cold warm)

let suite =
  ( "plan_cache",
    [ Alcotest.test_case "replay identical to cold run" `Quick test_replay_identical;
      Alcotest.test_case "coefficients do not collide" `Quick test_coefficients_do_not_collide;
      Alcotest.test_case "offsets do not collide" `Quick test_offsets_do_not_collide;
      Alcotest.test_case "opt levels do not collide" `Quick test_opt_levels_do_not_collide;
      Alcotest.test_case "thread round-trip hits, identical" `Quick test_threads_round_trip;
      Alcotest.test_case "line-buffer setting splits the env" `Quick test_line_buffers_env_split;
      Alcotest.test_case "native setting splits the env" `Quick test_native_env_split;
      Alcotest.test_case "cache_clear resets store and stats" `Quick test_cache_clear_resets;
      Alcotest.test_case "stolen border base replays" `Quick test_steal_replays;
      Alcotest.test_case "warm class-S solve all hits" `Quick test_warm_solve_all_hits;
      QCheck_alcotest.to_alcotest qcheck_replay_matches_cold;
    ] )
