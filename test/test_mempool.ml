(* The per-domain arena allocator: recycling at the last use, stats
   and clear, capacity caps, the debug poison, pooling off, and — the
   property that matters — bitwise-identical results with pooling on
   and off. *)

open Mg_ndarray
open Mg_withloop
module E = Wl.Expr
module Driver = Mg_core.Driver

let same_buffer (a : Ndarray.t) (b : Ndarray.t) = a.Ndarray.data == b.Ndarray.data

(* Direct arena probes, as an engine with pooling on makes them. *)
let alloc = Mempool.alloc ~pooling:true
let recycle = Mempool.recycle ~pooling:true
let pooled f = Wl.with_config (fun c -> { c with Engine.pooling = true }) f

(* Satellite: [clear] must zero the reuse/recycle counters, not just
   drop the buffers — repeated bench runs read deltas from zero. *)
let test_clear_resets_stats () =
  Mempool.clear ();
  let shp = [| 11; 7 |] in
  for _ = 1 to 5 do
    let a = alloc shp in
    recycle a;
    ignore (alloc shp)
  done;
  let reused, recycled = Mempool.stats () in
  Alcotest.(check bool) "counters moved before clear" true (reused > 0 && recycled > 0);
  let total f = Mg_obs.Metrics.value (Mg_obs.Scope.total f) in
  let hits = total Mempool.pool_hits and bytes = total Mempool.alloc_bytes in
  Mempool.clear ();
  Alcotest.(check (pair int int)) "stats zero after clear" (0, 0) (Mempool.stats ());
  (* The metric families are never lowered: [clear] zeroes [reused]
     through a baseline. *)
  Alcotest.(check (pair int int)) "family totals kept by clear" (hits, bytes)
    (total Mempool.pool_hits, total Mempool.alloc_bytes);
  let s = Mempool.snapshot () in
  Alcotest.(check int) "bytes_live zero after clear" 0 s.Mempool.bytes_live

let test_capacity_cap () =
  Mempool.clear ();
  let n = Mempool.max_per_class + 8 in
  let shp = [| 53 |] in
  let live = Array.init n (fun _ -> alloc shp) in
  Array.iter recycle live;
  let _, recycled = Mempool.stats () in
  Alcotest.(check int) "free stack capped per class" Mempool.max_per_class recycled;
  (* Draining the slot reuses exactly the capped population. *)
  let again = Array.init n (fun _ -> alloc shp) in
  let reused, _ = Mempool.stats () in
  Alcotest.(check int) "reuses capped population" Mempool.max_per_class reused;
  ignore again

(* A recycled buffer goes straight back to its free slot: the next
   allocation of its size takes it, and under debug it arrives
   NaN-poisoned, so a read after the last use cannot pass unnoticed. *)
let test_recycle_at_last_use () =
  Mempool.clear ();
  Mempool.set_debug true;
  Fun.protect ~finally:(fun () -> Mempool.set_debug false) @@ fun () ->
  let shp = [| 31; 3 |] in
  let a = alloc shp in
  Ndarray.fill a 42.0;
  recycle a;
  let b = alloc shp in
  Alcotest.(check bool) "recycled buffer handed out next" true (same_buffer a b);
  Alcotest.(check bool) "recycled buffer poisoned" true (Float.is_nan (Ndarray.get b [| 0; 0 |]))

(* Random interleavings of alloc / recycle against a shadow model:
   every live allocation keeps its sentinel value (no two live arrays
   ever share a buffer).  Sizes collide in a handful of classes to
   stress slot claiming and LRU eviction. *)
let qcheck_arena_shadow_model =
  let op =
    QCheck.Gen.(frequency [ (5, map (fun i -> `Alloc i) (0 -- 2)); (4, return `Recycle) ])
  in
  let print_ops ops =
    String.concat ""
      (List.map (function `Alloc i -> Printf.sprintf "A%d " i | `Recycle -> "R ") ops)
  in
  let arb = QCheck.make ~print:print_ops QCheck.Gen.(list_size (10 -- 80) op) in
  QCheck.Test.make ~name:"arena vs shadow model (sentinels intact)" ~count:200 arb (fun ops ->
      Mempool.clear ();
      let sizes = [| [| 17 |]; [| 17; 2 |]; [| 5; 7 |] |] in
      let live = ref [] in
      let next = ref 0 in
      List.for_all
        (fun o ->
          (match o with
          | `Alloc i ->
              let a = alloc sizes.(i) in
              incr next;
              let v = float_of_int !next in
              Ndarray.fill a v;
              live := (a, v) :: !live
          | `Recycle -> (
              match !live with
              | (a, _) :: rest ->
                  live := rest;
                  recycle a
              | [] -> ()));
          List.for_all (fun (a, v) -> Ndarray.get_flat a 0 = v) !live)
        ops)

(* Regression: a result that leaves the engine through [Wl.force]
   must survive the recycles of the force's intermediates — debug
   NaN-poisoning of recycled buffers turns any violation into a loud
   failure. *)
let test_escape_through_reset () =
  pooled @@ fun () ->
  Mempool.clear ();
  Mempool.set_debug true;
  Fun.protect ~finally:(fun () -> Mempool.set_debug false) @@ fun () ->
  let shp = [| 9; 9 |] in
  let src = Wl.of_ndarray (Ndarray.init shp (fun iv -> float_of_int (iv.(0) + (10 * iv.(1))))) in
  (* Chain two sweeps so the intermediate dies (and is recycled) while
     the final result escapes. *)
  let mid = Wl.genarray shp [ (Generator.full shp, E.(read src * const 2.0)) ] in
  let r = Wl.force (Wl.genarray shp [ (Generator.full shp, E.(read mid + const 1.0)) ]) in
  ignore (Wl.force (Wl.genarray shp [ (Generator.full shp, E.(read src + const 3.0)) ]));
  Alcotest.(check (float 0.0)) "escaped result intact after recycles" (2.0 *. 84.0 +. 1.0)
    (Ndarray.get r [| 4; 8 |])

(* Regression: with buffer-reuse on, a result aliasing a dead
   operand's buffer (Plan.OReuse) is still a live, escaped result —
   the operand's death must not recycle the aliased buffer. *)
let test_reuse_alias_survives_reset () =
  Wl.with_config (fun c -> { c with Engine.pooling = true; reuse = true }) @@ fun () ->
  Mempool.clear ();
  Mempool.set_debug true;
  Fun.protect ~finally:(fun () -> Mempool.set_debug false) @@ fun () ->
  let shp = [| 8; 8 |] in
  let a = Wl.genarray shp [ (Generator.full shp, E.const 3.0) ] in
  (* Fully covered sweep over a dying operand with identity reads: the
     reuse pass aliases the output with [a]. *)
  let r = Wl.force (Wl.genarray shp [ (Generator.full shp, E.(read a * const 5.0)) ]) in
  ignore (Wl.force (Wl.genarray shp [ (Generator.full shp, E.const 4.0) ]));
  let expect = Ndarray.fill_value shp 15.0 in
  Alcotest.(check bool) "aliased result intact after recycles" true
    (Ndarray.equal ~eps:0.0 r expect)

(* A force may materialise a source and then, in a nested force,
   consume that source's last edge before its own parts have read it.
   Here the root's first part folds the selection [s] and reads the
   barrier [b] directly; the second part is too small to split, so it
   materialises [s], whose release drops [b]'s last edge.  A recycled
   buffer goes straight back to the free slots, and the root's output
   has [b]'s size: [b] must stay pinned until the root's parts have
   run, on the cold force and on the replay. *)
let pin_graph src =
  let shp = Ndarray.shape src in
  let n = shp.(0) in
  let b = Mg_arraylib.Border.setup_periodic_border (Wl.of_ndarray src) in
  let s = Wl.genarray ~default:0.0 shp [ (Generator.interior shp 1, E.read b) ] in
  Wl.genarray ~default:0.0 shp
    [ (Generator.make ~lb:[| 1; 1 |] ~ub:[| (n / 2) - 1; n - 1 |] (), E.read_offset s [| 1; 0 |]);
      (Generator.make ~lb:[| n / 2; 0 |] ~ub:[| n; n |] (), E.read s);
    ]

let test_pinned_source_outside_scope () =
  pooled @@ fun () ->
  Mempool.clear ();
  Mempool.set_debug true;
  Fun.protect ~finally:(fun () -> Mempool.set_debug false) @@ fun () ->
  Wl.cache_clear ();
  let src = Ndarray.init [| 12; 12 |] (fun iv -> float_of_int (1 + iv.(0) + (16 * iv.(1)))) in
  let want = Wl.run_reference (pin_graph src) in
  let cold = Wl.force (pin_graph src) in
  let s1 = Wl.cache_stats () in
  let warm = Wl.force (pin_graph src) in
  let s2 = Wl.cache_stats () in
  Alcotest.(check bool) "cold force matches the reference" true (Ndarray.equal ~eps:0.0 cold want);
  Alcotest.(check bool) "replay matches the reference" true (Ndarray.equal ~eps:0.0 warm want);
  Alcotest.(check int) "replay compiled nothing" 0
    ((s2.Plan_cache.misses + s2.Plan_cache.uncacheable)
    - (s1.Plan_cache.misses + s1.Plan_cache.uncacheable))

(* The headline property: the solver is bitwise identical with pooling
   on and off (the arena only changes *which* buffers carry values,
   never the values). *)
let test_solver_bitwise_pooling_on_off () =
  let rnm2 pooling =
    (Driver.run ~pooling ~impl:Driver.Sac ~cls:Mg_core.Classes.tiny ()).Driver.rnm2
  in
  Alcotest.(check int64) "sac/tiny rnm2 bitwise equal across pooling"
    (Int64.bits_of_float (rnm2 false))
    (Int64.bits_of_float (rnm2 true))

let test_kill_switch_inert () =
  Mempool.clear ();
  let shp = [| 13; 13 |] in
  let a = Mempool.alloc ~pooling:false shp in
  Ndarray.fill a 7.0;
  Mempool.recycle ~pooling:false a;
  Alcotest.(check (pair int int)) "pooling off cycles nothing" (0, 0) (Mempool.stats ());
  let s = Mempool.snapshot () in
  Alcotest.(check int) "no live bytes tracked" 0 s.Mempool.bytes_live

(* The concurrent hammer: every worker allocates, fills and recycles
   on its own arena, with a nested allocation live across each inner
   recycle. *)
let test_concurrent_hammer () =
  Mempool.clear ();
  let pool = Mg_smp.Domain_pool.create 4 in
  let shp = [| 17; 13 |] in
  let intact = Array.make 400 false in
  Mg_smp.Domain_pool.parallel_for ~policy:(Mg_smp.Sched_policy.Dynamic_chunked 8) pool ~lo:0
    ~hi:400 (fun lo hi ->
      for i = lo to hi - 1 do
        let a = alloc shp in
        Ndarray.fill a (float_of_int i);
        let b = alloc [| 64 |] in
        Ndarray.fill b (float_of_int (i * 2));
        intact.(i) <-
          Ndarray.get a [| 3; 3 |] = float_of_int i && Ndarray.get b [| 5 |] = float_of_int (i * 2);
        recycle b;
        recycle a
      done);
  Mg_smp.Domain_pool.shutdown pool;
  Alcotest.(check bool) "all live allocations intact" true (Array.for_all Fun.id intact);
  let reused, recycled = Mempool.stats () in
  Alcotest.(check bool)
    (Printf.sprintf "pool cycled buffers (reused %d, recycled %d)" reused recycled)
    true
    (reused > 0 && recycled > 0)

let suite =
  ( "mempool",
    [ Alcotest.test_case "clear resets stats" `Quick test_clear_resets_stats;
      Alcotest.test_case "free stack capacity cap" `Quick test_capacity_cap;
      Alcotest.test_case "recycle at the last use" `Quick test_recycle_at_last_use;
      QCheck_alcotest.to_alcotest qcheck_arena_shadow_model;
      Alcotest.test_case "escape through reset" `Quick test_escape_through_reset;
      Alcotest.test_case "reuse alias survives reset" `Quick test_reuse_alias_survives_reset;
      Alcotest.test_case "pinned source outside a scope" `Quick test_pinned_source_outside_scope;
      Alcotest.test_case "solver bitwise across pooling" `Quick test_solver_bitwise_pooling_on_off;
      Alcotest.test_case "kill-switch inert" `Quick test_kill_switch_inert;
      Alcotest.test_case "concurrent hammer" `Quick test_concurrent_hammer;
    ] )
