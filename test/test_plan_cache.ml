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

(* Hit/miss parity per output mode.  Each case builds a fresh graph per
   force; the cold force compiles and stores a plan, the warm force of
   a structurally identical graph replays it.  Both must equal the
   reference interpreter bitwise, and each must take the named output
   mode — read from the root force's [wl:force] span ([out]), its trace
   event ([bytes_alloc] is 0 exactly when the output took over a
   source's buffer) and the [mempool.reuse_hits] delta.

   The two reuse fallbacks replay a reuse plan on a graph whose operand
   is escaped or still has another consumer: the cache key records a
   cached operand's shape and strides, not its liveness, so the warm
   force hits and must write a fresh buffer instead.  A steal has no
   fallback: its base is unmaterialised when the force is keyed and no
   other node reads it, so nothing else can have pinned it. *)
let mode_cases () =
  let shp = [| 8; 8 |] in
  let src = src_of_seed shp 10 in
  let leaf = Wl.of_ndarray src in
  let full = Generator.full shp in
  let strided ub = Generator.make ~step:[| 2; 2 |] ~lb:[| 1; 1 |] ~ub () in
  let scaled () = Wl.genarray shp [ (full, E.(const 2.0 * read leaf)) ] in
  let consumer a = Wl.genarray shp [ (full, E.(read a + const 1.0)) ] in
  let reuse () = consumer (Wl.materialize (scaled ())) in
  (* The same graph cold and warm, taking mode [name] both times. *)
  let same name graph = (name, graph, graph, name, name) in
  [ same "fresh" scaled;
    same "fill" (fun () ->
        Wl.genarray ~default:7.0 shp [ (Generator.interior shp 1, E.(const 2.0 * read leaf)) ]);
    same "blit" (fun () -> Wl.modarray leaf [ (strided [| 7; 7 |], E.(const 3.0 * read leaf)) ]);
    (* The empty strided part keeps the modarray from being lowered to a
       genarray; only the dense part is compiled. *)
    same "complement" (fun () ->
        Wl.modarray leaf
          [ (Generator.interior shp 1, E.(const 3.0 * read leaf)); (strided [| 1; 1 |], E.const 0.0) ]);
    same "steal" (fun () -> border_graph src);
    same "reuse" reuse;
    ( "reuse of an escaped operand",
      reuse,
      (fun () ->
        let a = scaled () in
        ignore (Wl.force a);
        consumer a),
      "reuse",
      "fresh" );
    ( "reuse of a live operand",
      reuse,
      (fun () ->
        let a = Wl.materialize (scaled ()) in
        ignore (Wl.genarray shp [ (full, E.(const 3.0 * read a)) ]);
        consumer a),
      "reuse",
      "fresh" );
  ]

type observed = { out : Ndarray.t; cache : string; mode : string; bytes : int; reused : int }

let test_modes_hit_miss_parity () =
  let c_reuse = Mg_obs.Metrics.counter "mempool.reuse_hits" in
  (* Force [g] observed; the root force is the first span opened and the
     last op to end. *)
  let observed g =
    Mg_obs.Span.clear ();
    let r0 = Mg_obs.Metrics.value c_reuse in
    let ops, out = Mg_smp.Smp_sim.traced (Mg_obs.Scope.make ~engine_id:0 ()) (fun () -> Wl.force g) in
    let span =
      List.find (fun (e : Mg_obs.Span.event) -> e.Mg_obs.Span.name = "wl:force") (Mg_obs.Span.events ())
    in
    let attr k = Option.value ~default:"" (List.assoc_opt k span.Mg_obs.Span.attrs) in
    { out;
      cache = attr "cache";
      mode = attr "out";
      bytes = (List.nth ops (List.length ops - 1)).Mg_smp.Smp_sim.bytes;
      reused = Mg_obs.Metrics.value c_reuse - r0;
    }
  in
  let check name phase o ~cache ~mode =
    let msg what = Printf.sprintf "%s, %s force: %s" name phase what in
    Alcotest.(check string) (msg "cache outcome") cache o.cache;
    Alcotest.(check string) (msg "output mode") mode o.mode;
    let inplace = mode = "steal" || mode = "reuse" in
    Alcotest.(check int) (msg "bytes allocated") (if inplace then 0 else 8 * Ndarray.size o.out) o.bytes;
    Alcotest.(check int) (msg "reuse hits") (if mode = "reuse" then 1 else 0) o.reused
  in
  Wl.with_config
    (fun c -> { c with Engine.opt_level = Engine.O3; reuse = true })
    (fun () ->
      List.iter
        (fun (name, cold_graph, warm_graph, cold_mode, warm_mode) ->
          Wl.cache_clear ();
          let g = cold_graph () in
          let want = Wl.run_reference g in
          let cold = observed g in
          check name "cold" cold ~cache:"miss" ~mode:cold_mode;
          check_exact (name ^ ": cold force matches the reference") want cold.out;
          let warm = observed (warm_graph ()) in
          check name "warm" warm ~cache:"hit" ~mode:warm_mode;
          check_exact (name ^ ": replay bitwise-identical to the cold force") cold.out warm.out)
        (mode_cases ()));
  Mg_obs.Span.clear ()

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

(* A hit credits the compile time it skipped, and nothing else: the
   producer forces that fusion triggers while compiling are excluded,
   whether or not the forces are observed.  The producer is a barrier
   whose opaque body sleeps 20 ms per element, so it is uncacheable and
   costs 80 ms at every force; the linear consumer is stored once and
   replayed once, with spans and traces off. *)
let test_saved_excludes_producers () =
  Wl.cache_clear ();
  let shp = [| 4 |] in
  let graph () =
    let slow =
      Wl.genarray ~barrier:true shp
        [ (Generator.full shp, E.of_fun (fun _ -> Unix.sleepf 0.02; 1.0)) ]
    in
    Wl.genarray shp [ (Generator.full shp, E.(const 2.0 * read slow)) ]
  in
  let cold = Wl.force (graph ()) in
  let warm = Wl.force (graph ()) in
  let s = Wl.cache_stats () in
  check_exact "replay identical" cold warm;
  Alcotest.(check int) "consumer replayed" 1 s.Plan_cache.hits;
  Alcotest.(check bool)
    (Printf.sprintf "saved %.1f ms < 20 ms" (s.Plan_cache.saved_seconds *. 1e3))
    true
    (s.Plan_cache.saved_seconds < 0.02)

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
      Alcotest.test_case "every output mode: hit equals miss" `Quick test_modes_hit_miss_parity;
      Alcotest.test_case "saved seconds exclude producer forces" `Quick
        test_saved_excludes_producers;
      QCheck_alcotest.to_alcotest qcheck_replay_matches_cold;
    ] )
