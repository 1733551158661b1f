(* A cold class-S solve: one SAC solve on a fresh engine (empty plan
   cache), one thread, the literal default configuration (O3, cfun on,
   native off, reuse and pooling on), whatever MG_* variables the
   suite runs under.

   - Its decisions are pinned: the plan-cache hit and miss counts, the
     in-place reuse count, every kernel path's dispatch count, every
     fixed nest's branch count and the bits of the final residual
     norm.  A change to the compile path that alters a fusion,
     grouping, clustering or kernel decision moves one of them.
   - Its allocation is capped.  The compile path's garbage paces the
     minor and major GC, and the major GC's pacing moves the process's
     peak resident memory (EXPERIMENTS.md E19, E23).
   - What an engine's plan cache retains is capped: every cached plan
     and tape keeps its parts and their foots for the engine's life. *)

open Mg_core
open Mg_withloop

let delta before after =
  List.map (fun (name, v) -> (name, v - Option.value (List.assoc_opt name before) ~default:0)) after

(* Runs [f] on a fresh engine after a warm-up solve on another one (the
   process's lazy state and buffer pool are warm, the plan cache is
   empty). *)
let cold_solve f =
  let solve e = Driver.run ~engine:e ~impl:Driver.Sac ~cls:Classes.class_s () in
  let fresh () = Engine.create ~config:Engine.default_config () in
  let warm = fresh () in
  Fun.protect ~finally:(fun () -> Engine.shutdown warm) (fun () -> ignore (solve warm));
  let e = fresh () in
  Fun.protect ~finally:(fun () -> Engine.shutdown e) (fun () -> f e (fun () -> solve e))

let test_decisions_pinned () =
  cold_solve (fun e solve ->
      let k0 = Kernel.counters () and b0 = Kernel.branch_counts () in
      let r = solve () in
      let kernels = delta k0 (Kernel.counters ())
      and branches = delta b0 (Kernel.branch_counts ()) in
      let stats = Engine.cache_stats e in
      let flight = List.hd (List.rev (Engine.flight_log e)) in
      Alcotest.(check string) "rnm2 bits" "3f0bd3e23d92190a"
        (Printf.sprintf "%Lx" (Int64.bits_of_float r.Driver.rnm2));
      Alcotest.(check int) "plan_cache.misses" 47 stats.Plan_cache.misses;
      Alcotest.(check int) "plan_cache.hits" 2 stats.Plan_cache.hits;
      Alcotest.(check int) "plan_cache.uncacheable" 0 stats.Plan_cache.uncacheable;
      Alcotest.(check int) "mempool.reuse_hits" 28 flight.Mg_obs.Flight.reuse_hits;
      List.iter
        (fun (name, expected) ->
          Alcotest.(check int) ("kernel." ^ name) expected (List.assoc name kernels))
        (* border: the 14 stolen or lent borders compile to one walk
           each; 6 of each of the 3 replayed iterations' parts are dead
           stores the tape liveness pass drops (walks and shell groups). *)
        [ ("stencil", 112); ("linebuf", 69); ("copy", 0); ("generic", 0); ("interp", 128);
          ("cfun", 216); ("native", 0); ("border", 61);
        ];
      Alcotest.(check (list (pair string int)))
        "kernel.branch.* (non-zero)"
        [ ("stencil.full", 27); ("stencil2.lex", 1); ("linebuf.full", 8); ("linebuf.c023", 2);
          ("linebuf.c012", 3); ("linebuf.resid", 3); ("linebuf.psinv", 1); ("linebuf.psinv2", 1);
          ("flat.2", 3); ("flat.4", 3); ("flat.8", 1); ("zip.0", 2); ("zip.1", 82); ("zip.2", 31);
          ("zip.3", 6); ("shell", 18); ("border", 14);
        ]
        (List.filter (fun (_, v) -> v <> 0) branches))

(* 1.2x the 0.91 M minor words one such solve allocates. *)
let minor_words_ceiling = 1_090_000.

let test_allocation_ceiling () =
  cold_solve (fun _ solve ->
      let w0 = Gc.minor_words () in
      ignore (solve ());
      let words = Gc.minor_words () -. w0 in
      if words > minor_words_ceiling then
        Alcotest.failf "a cold class-S solve allocated %.0f minor words (ceiling %.0f)" words
          minor_words_ceiling)

(* What one engine's plan cache retains after two class-S solves: the
   plans and tapes of the first, all replayed by the second.  1.1x the
   46 496 words it holds (55 344 when every border compiled 26 parts
   with their foots). *)
let retained_words_ceiling = 51_100

let test_retention_ceiling () =
  let e = Engine.create ~config:Engine.default_config () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown e)
    (fun () ->
      for _ = 1 to 2 do
        ignore (Driver.run ~engine:e ~impl:Driver.Sac ~cls:Classes.class_s ())
      done;
      let words = Obj.reachable_words (Obj.repr (Engine.cache e)) in
      if words > retained_words_ceiling then
        Alcotest.failf "the plan cache retains %d words after two class-S solves (ceiling %d)" words
          retained_words_ceiling)

let suite =
  ( "cold_solve",
    [ Alcotest.test_case "class S decisions pinned" `Quick test_decisions_pinned;
      Alcotest.test_case "class S allocation ceiling" `Quick test_allocation_ceiling;
      Alcotest.test_case "class S plan-cache retention ceiling" `Quick test_retention_ceiling;
    ] )
