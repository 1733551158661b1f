(* Property tests pitting the compiled executor (kernel recognition,
   clusters, incremental bases) against a direct per-element oracle on
   randomly generated linear with-loops — the strongest guard on the
   code-generation layer. *)

open Mg_ndarray
open Mg_withloop
module E = Wl.Expr

let src_of_seed shp seed =
  let st = Mg_nasrand.Nasrand.make ~seed:(float_of_int (10000 + seed)) () in
  Ndarray.init shp (fun _ -> Mg_nasrand.Nasrand.next st -. 0.5)

(* A random linear stencil body over one source: coefficients and
   offsets within radius k. *)
type spec = {
  rank : int;
  extent : int;
  radius : int;
  terms : (int list * float) list;  (* offset, coefficient *)
  const : float;
  strided : bool;
}

let gen_spec =
  QCheck.Gen.(
    let* rank = 1 -- 3 in
    let* extent = 4 -- 7 in
    let* radius = 0 -- 1 in
    let* nterms = 1 -- 6 in
    let* terms =
      list_size (return nterms)
        (pair (list_size (return rank) (-radius -- radius)) (float_range (-2.0) 2.0))
    in
    let* const = float_range (-1.0) 1.0 in
    let* strided = bool in
    return { rank; extent; radius; terms; const; strided })

let print_spec s =
  Printf.sprintf "rank=%d extent=%d radius=%d strided=%b terms=[%s] const=%.3f" s.rank s.extent
    s.radius s.strided
    (String.concat ";"
       (List.map
          (fun (d, c) ->
            Printf.sprintf "(%s)*%.3f" (String.concat "," (List.map string_of_int d)) c)
          s.terms))
    s.const

let arb_spec = QCheck.make ~print:print_spec gen_spec

(* A fresh graph for the spec each call: forcing the result of a second
   call exercises the plan cache (same structural key, new IR nodes). *)
let graph_of_spec s =
  let shp = Array.make s.rank s.extent in
  let src = src_of_seed shp (s.extent + List.length s.terms) in
  let w = Wl.of_ndarray src in
  let gen =
    if s.strided && s.extent > (2 * s.radius) + 2 then
      Generator.make
        ~step:(Array.make s.rank 2)
        ~lb:(Array.make s.rank s.radius)
        ~ub:(Array.map (fun e -> e - s.radius) shp)
        ()
    else Generator.interior shp s.radius
  in
  let body =
    List.fold_left
      (fun acc (d, c) -> E.(acc + (const c * read_offset w (Array.of_list d))))
      (E.const s.const) s.terms
  in
  (src, gen, Wl.genarray ~default:0.0 shp [ (gen, body) ])

let force_spec s =
  let _, gen, g = graph_of_spec s in
  QCheck.assume (not (Generator.is_empty gen));
  Wl.force g

let run_spec s =
  let src, gen, g = graph_of_spec s in
  QCheck.assume (not (Generator.is_empty gen));
  let got = Wl.force g in
  (* Oracle: straightforward per-element evaluation. *)
  let shp = Ndarray.shape src in
  let want =
    Ndarray.init shp (fun iv ->
        if Generator.mem gen iv then
          List.fold_left
            (fun acc (d, c) -> acc +. (c *. Ndarray.get src (Shape.add iv (Array.of_list d))))
            s.const s.terms
        else 0.0)
  in
  Ndarray.max_abs_diff got want < 1e-11

let qcheck_linear_bodies =
  QCheck.Test.make ~name:"compiled linear with-loops match per-element oracle" ~count:300
    arb_spec run_spec

(* The same property on the warm path: the first run seeds the plan
   cache, the second replays against the same oracle. *)
let qcheck_replay_matches_oracle =
  QCheck.Test.make ~name:"cached replays match per-element oracle" ~count:150 arb_spec
    (fun s -> run_spec s && run_spec s)

let qcheck_all_opt_levels =
  QCheck.Test.make ~name:"random bodies identical across opt levels" ~count:100 arb_spec
    (fun s ->
      let results =
        List.map
          (fun l -> Wl.with_config (fun c -> { c with Engine.opt_level = l }) (fun () -> run_spec s))
          [ Engine.O0; Engine.O1; Engine.O2; Engine.O3 ]
      in
      List.for_all (fun ok -> ok) results)

(* Scale-2 reads: the condense-fused shape (consumer half the size of
   the source, base pointer advancing two source cells per element). *)
let qcheck_scaled_reads =
  QCheck.Test.make ~name:"scale-2 reads match oracle" ~count:100
    QCheck.(pair (2 -- 4) (int_bound 1000))
    (fun (half, seed) ->
      let n = 2 * half in
      let src = src_of_seed [| n; n; n |] seed in
      let shp = [| half; half; half |] in
      let got =
        Wl.force
          (Wl.genarray shp
             [ (Generator.full shp, E.read_at (Wl.of_ndarray src) (Ixmap.scale 3 2)) ])
      in
      let want = Ndarray.init shp (fun iv -> Ndarray.get src (Shape.scale 2 iv)) in
      Ndarray.equal got want)

(* ------------------------------------------------------------------ *)
(* Staged kernel compilation (Cfun): the compiled closures must be
   bitwise identical to the interpreted generic cluster nest — same
   accumulation order, same leading [0.0 +.] in every group sum — on
   random rank-3 clustered bodies.  Coefficients are drawn from a small
   set so factoring produces groups of many deltas, covering every
   unrolled arity arm and the >12-delta loop fallback. *)

let gen_cfun_spec =
  QCheck.Gen.(
    let* extent = 5 -- 8 in
    let* radius = 0 -- 1 in
    let* nterms = 1 -- 27 in
    let* coeffs = list_size (return nterms) (oneofl [ 0.5; -1.0; 2.0; 0.125 ]) in
    let* offs = list_size (return nterms) (list_size (return 3) (-radius -- radius)) in
    let* const = float_range (-1.0) 1.0 in
    let* strided = bool in
    return { rank = 3; extent; radius; terms = List.combine offs coeffs; const; strided })

let arb_cfun_spec = QCheck.make ~print:print_spec gen_cfun_spec

(* How many samples actually dispatched a compiled closure (bodies the
   fixed kernels recognise bypass Cfun); checked after the qcheck run. *)
let cfun_dispatches = ref 0

let qcheck_cfun_bitwise_generic =
  QCheck.Test.make ~name:"compiled cfun closures bitwise match the generic nest" ~count:200
    arb_cfun_spec
    (fun s ->
      let c_cfun = Mg_obs.Metrics.counter "kernel.cfun" in
      (* Native off: this test pins the cfun tier specifically, and an
         MG_NATIVE=1 environment would otherwise take over the rung. *)
      let force cfun =
        Wl.with_config
          (fun c -> { c with Engine.native = false; cfun; opt_level = Engine.O3 })
          (fun () -> force_spec s)
      in
      let before = Mg_obs.Metrics.value c_cfun in
      let compiled = force true in
      if Mg_obs.Metrics.value c_cfun > before then incr cfun_dispatches;
      Ndarray.equal compiled (force false))

let test_cfun_path_exercised () =
  Alcotest.(check bool)
    (Printf.sprintf "qcheck samples dispatched compiled closures (%d did)" !cfun_dispatches)
    true (!cfun_dispatches > 0)

(* Buffer recycling: a node whose cache was recycled after its last
   consumer ran must transparently recompute when forced again, and
   results obtained before recycling must never change. *)
let test_recompute_after_recycle () =
  let shp = [| 12; 12 |] in
  let src = src_of_seed shp 5 in
  let producer = Mg_arraylib.Ops.mul_scalar (Wl.of_ndarray src) 3.0 in
  (* One consumer; after forcing it, the producer's refcount is 0 and
     its buffer may have been recycled. *)
  let consumer = Mg_arraylib.Ops.add_scalar producer 1.0 in
  let c1 = Ndarray.copy (Wl.force consumer) in
  (* Unrelated work that would reuse a recycled buffer of this size. *)
  for _ = 1 to 5 do
    ignore (Wl.force (Mg_arraylib.Ops.genarray_const shp 9.0))
  done;
  (* Forcing the producer directly must recompute correct values. *)
  let p = Wl.force producer in
  let expected = Ndarray.map (fun x -> x *. 3.0) src in
  Alcotest.(check bool) "producer recomputed" true (Ndarray.max_abs_diff p expected < 1e-12);
  Alcotest.(check bool) "consumer unchanged" true
    (Ndarray.max_abs_diff c1 (Ndarray.map (fun x -> (x *. 3.0) +. 1.0) src) < 1e-12)

let test_escaped_values_stable () =
  (* Values returned by Wl.force must survive arbitrary later engine
     activity (they are never recycled). *)
  let shp = [| 16; 16 |] in
  let src = src_of_seed shp 9 in
  let a = Wl.force (Mg_arraylib.Ops.mul_scalar (Wl.of_ndarray src) 2.0) in
  let snapshot = Ndarray.copy a in
  for i = 1 to 20 do
    ignore (Wl.force (Mg_arraylib.Ops.genarray_const shp (float_of_int i)))
  done;
  Alcotest.(check bool) "escaped array untouched" true (Ndarray.equal a snapshot)

(* ------------------------------------------------------------------ *)
(* Scheduling-policy / backend / domain-count bitwise identity.
   Parallel execution splits a compiled part along axis 0 into pieces;
   each element's arithmetic is unchanged by the split, so the output
   must be bit-for-bit identical for every piece count — i.e. across
   pool sizes, scheduling policies and backends. *)

(* A 27-point box stencil body (the NAS-MG operator shape), which the
   executor recognises and runs through the specialised kernels. *)
let stencil27 w =
  let coeff = [| -8.0 /. 3.0; 1.0 /. 8.0; 1.0 /. 6.0; 1.0 /. 12.0 |] in
  let body = ref (E.const 0.0) in
  for dz = -1 to 1 do
    for dy = -1 to 1 do
      for dx = -1 to 1 do
        let c = coeff.(abs dz + abs dy + abs dx) in
        body := E.(!body + (const c * read_offset w [| dz; dy; dx |]))
      done
    done
  done;
  !body

(* A body the fixed kernels do not recognise (9 scattered offsets, not
   a box): at O3 with cfun on it runs through the compiled closures, so
   the identity matrix also pits cfun against generic under every
   policy, tile shape, backend and domain count. *)
let scattered9 w =
  List.fold_left
    (fun acc (d, c) -> E.(acc + (const c * read_offset w d)))
    (E.const 0.0)
    [ ([| 0; 0; 0 |], -1.25); ([| 1; 0; -1 |], 0.5); ([| -1; 1; 0 |], 0.5);
      ([| 0; -1; 1 |], 2.0); ([| 1; 1; 1 |], 0.5); ([| -1; -1; -1 |], 2.0);
      ([| 1; -1; 0 |], -1.25); ([| 0; 1; -1 |], 0.5); ([| -1; 0; 1 |], 2.0);
    ]

let test_policies_backends_bitwise_identical () =
  let n = 24 in
  let shp = [| n; n; n |] in
  let src = src_of_seed shp 42 in
  let gen = Generator.interior shp 1 in
  let force_with ~threads ~sched ~backend ~cfun body =
    (* Fresh plans per configuration; par_threshold 1 forces the
       parallel split even on this small grid. *)
    Wl.cache_clear ();
    Wl.with_config
      (fun c -> { c with Engine.threads; par_threshold = 1; cfun; sched; backend })
      (fun () ->
        let w = Wl.of_ndarray src in
        Ndarray.copy (Wl.force (Wl.genarray ~default:0.0 shp [ (gen, body w) ])))
  in
  let policies =
    [ Mg_smp.Sched_policy.Static_block;
      Mg_smp.Sched_policy.Dynamic_chunked 3;
      (* Tile-shape sweep: degenerate 1×1 tiles, small and default
         shapes, and tiles larger than the whole iteration space. *)
      Mg_smp.Sched_policy.Tiled { planes = 1; rows = 1 };
      Mg_smp.Sched_policy.Tiled { planes = 2; rows = 8 };
      Mg_smp.Sched_policy.Tiled { planes = 8; rows = 32 };
      Mg_smp.Sched_policy.Tiled { planes = 64; rows = 64 };
    ]
  in
  List.iter
    (fun (body_name, body, cfuns) ->
      (* The reference runs sequentially through the interpreted
         generic nest (cfun off), so cfun-on configurations check
         compiled-vs-interpreted identity too. *)
      let reference =
        force_with ~threads:1 ~sched:Mg_smp.Sched_policy.Static_block
          ~backend:Backend.default ~cfun:false body
      in
      List.iter
        (fun cfun ->
          List.iter
            (fun threads ->
              List.iter
                (fun sched ->
                  List.iter
                    (fun (bname, backend) ->
                      let got = force_with ~threads ~sched ~backend ~cfun body in
                      Alcotest.(check bool)
                        (Printf.sprintf "bitwise identical: %s, cfun=%b, %d domains, %s, %s"
                           body_name cfun threads
                           (Mg_smp.Sched_policy.to_string sched)
                           bname)
                        true (Ndarray.equal got reference))
                    [ ("pool", (module Backend.Pool : Backend.S));
                      ("smp_sim", (module Backend.Smp_sim : Backend.S));
                    ])
                policies)
            [ 1; 2; 4 ])
        cfuns)
    [ ("stencil27", stencil27, [ true ]); ("scattered9", scattered9, [ false; true ]) ]

(* The executor buffer pool is shared state hammered from worker
   domains (replays recycle buffers inside parallel regions); this
   drives it from several domains at once and checks it still hands
   out usable arrays. *)
let test_mempool_concurrent () =
  Mempool.clear ();
  let pool = Mg_smp.Domain_pool.create 4 in
  let shp = [| 17; 13 |] in
  (* Workers only record pass/fail; Alcotest.check formats through
     shared Format state and must not be called from other domains. *)
  let intact = Array.make 400 false in
  Mg_smp.Domain_pool.parallel_for ~policy:(Mg_smp.Sched_policy.Dynamic_chunked 8) pool ~lo:0
    ~hi:400 (fun lo hi ->
      for i = lo to hi - 1 do
        let a = Mempool.alloc ~pooling:true shp in
        Ndarray.fill a (float_of_int i);
        let b = Mempool.alloc ~pooling:true [| 64 |] in
        Ndarray.fill b (float_of_int (i * 2));
        (* Values written before recycling must still be there: no two
           live allocations may share a buffer. *)
        intact.(i) <-
          Ndarray.get a [| 3; 3 |] = float_of_int i
          && Ndarray.get b [| 5 |] = float_of_int (i * 2);
        Mempool.recycle ~pooling:true a;
        Mempool.recycle ~pooling:true b
      done);
  Mg_smp.Domain_pool.shutdown pool;
  Alcotest.(check bool) "all live allocations intact" true (Array.for_all Fun.id intact);
  let reused, recycled = Mempool.stats () in
  Alcotest.(check bool)
    (Printf.sprintf "pool cycled buffers (reused %d, recycled %d)" reused recycled)
    true
    (reused > 0 && recycled > 0);
  let a = Mempool.alloc ~pooling:true shp in
  Ndarray.fill a 3.0;
  Alcotest.(check (float 0.0)) "still usable after hammering" 3.0 (Ndarray.get a [| 0; 0 |])

let test_force_twice_same_array () =
  let shp = [| 8 |] in
  let node = Mg_arraylib.Ops.genarray_const shp 4.0 in
  let a = Wl.force node and b = Wl.force node in
  Alcotest.(check bool) "cached" true (a == b)

let suite =
  ( "exec_oracle",
    [ QCheck_alcotest.to_alcotest qcheck_linear_bodies;
      QCheck_alcotest.to_alcotest qcheck_replay_matches_oracle;
      QCheck_alcotest.to_alcotest qcheck_all_opt_levels;
      QCheck_alcotest.to_alcotest qcheck_scaled_reads;
      QCheck_alcotest.to_alcotest qcheck_cfun_bitwise_generic;
      Alcotest.test_case "cfun path exercised by qcheck" `Quick test_cfun_path_exercised;
      Alcotest.test_case "recompute after recycle" `Quick test_recompute_after_recycle;
      Alcotest.test_case "escaped values stable" `Quick test_escaped_values_stable;
      Alcotest.test_case "policies/backends bitwise identical" `Quick
        test_policies_backends_bitwise_identical;
      Alcotest.test_case "mempool concurrent hammer" `Quick test_mempool_concurrent;
      Alcotest.test_case "force twice, same array" `Quick test_force_twice_same_array;
    ] )
