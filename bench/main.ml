(* Bechamel micro-benchmark suite: the §5 ablations and the Fig. 10
   array-library primitives, on scaled-down problem sizes so the whole
   suite finishes in minutes.  Whole-benchmark runs and the machine
   models are measured by bin/fig11.exe, bin/fig12.exe, bin/fig13.exe
   and mgbench/; this executable is the quick, statistically sampled
   view of the kernels.

     stencil/*        E4: one residual sweep, four implementation styles
                      (the factored O1 style is `ablation --stencil`'s)
     fusion/*         E6: whole benchmark at O0 vs O3 (class tiny)
     arraylib/*       the Fig. 10 building blocks

   Besides the console table, results land in results/bench.json for
   regression tracking across commits.                                 *)

open Bechamel
open Toolkit
open Mg_ndarray
open Mg_core
module Wl = Mg_withloop.Wl
module Engine = Mg_withloop.Engine
module Json = Mg_bench_util.Bench_util.Json
module Env = Mg_bench_util.Bench_util.Env

let tiny = Classes.tiny

(* Groups are thunks: each is built when its turn comes, not at module
   initialisation. *)

(* --- E4: stencil styles --------------------------------------------- *)

let stencil_tests () =
  let n = 32 in
  let m = n + 2 in
  let shp = [| m; m; m |] in
  let u = Ndarray.init shp (fun iv -> float_of_int ((iv.(0) * 13) + iv.(1) + iv.(2)) /. 97.0) in
  let v = Ndarray.init shp (fun iv -> float_of_int iv.(0)) in
  let r = Ndarray.create shp in
  let a = Stencil.to_array Stencil.a in
  let wl ?(linebuf = false) level () =
    Wl.with_config
      (fun c -> { c with Engine.line_buffers = linebuf; opt_level = level })
      (fun () -> ignore (Wl.force (Mg_sac.relax_kernel Stencil.a (Wl.of_ndarray u))))
  in
  Test.make_grouped ~name:"stencil"
    [ Test.make ~name:"wl_naive_O0" (Staged.stage (wl Engine.O0));
      Test.make ~name:"wl_linebuf_O1" (Staged.stage (wl ~linebuf:true Engine.O1));
      Test.make ~name:"c_unbuffered" (Staged.stage (fun () -> Mg_c.resid ~u ~v ~r ~a));
      Test.make ~name:"f77_line_buffers" (Staged.stage (fun () -> Mg_f77.resid ~u ~v ~r ~a));
    ]

(* --- E6: with-loop folding ------------------------------------------ *)

let fusion_tests () =
  let run level () = ignore (Driver.run ~opt:level ~impl:Driver.Sac ~cls:tiny ()) in
  Test.make_grouped ~name:"fusion"
    [ Test.make ~name:"tiny_O0" (Staged.stage (run Engine.O0));
      Test.make ~name:"tiny_O3" (Staged.stage (run Engine.O3));
    ]

(* --- Fig. 10 array library building blocks -------------------------- *)

let arraylib_input () =
  let shp = [| 34; 34; 34 |] in
  let a = Ndarray.init shp (fun iv -> float_of_int (iv.(0) + (iv.(1) * 3) + iv.(2)) /. 7.0) in
  fun () -> Wl.of_ndarray a

let arraylib_tests () =
  let open Mg_arraylib in
  let wa = arraylib_input () in
  Test.make_grouped ~name:"arraylib"
    [ Test.make ~name:"condense2" (Staged.stage (fun () -> ignore (Wl.force (Select.condense 2 (wa ())))));
      Test.make ~name:"scatter2" (Staged.stage (fun () -> ignore (Wl.force (Select.scatter 2 (wa ())))));
      Test.make ~name:"periodic_border"
        (Staged.stage (fun () -> ignore (Wl.force (Border.setup_periodic_border (wa ())))));
      Test.make ~name:"sum_squares" (Staged.stage (fun () -> ignore (Ops.sum_squares (wa ()))));
    ]

(* Sampled with the long quota (see [slow_cfg]). *)
let arraylib_add_tests () =
  let wa = arraylib_input () in
  Test.make_grouped ~name:"arraylib"
    [ Test.make ~name:"elementwise_add"
        (Staged.stage (fun () -> ignore (Wl.force (Mg_arraylib.Ops.add (wa ()) (wa ())))));
    ]

(* --- harness --------------------------------------------------------- *)

(* MG_BENCH_QUOTA scales the sampling quotas (seconds; default 1.0) —
   CI's profile-smoke sets a small value to assert the reporting
   plumbing without paying the full sampling time. *)
let quota =
  match Option.bind (Sys.getenv_opt "MG_BENCH_QUOTA") float_of_string_opt with
  | Some q when q > 0.0 -> q
  | _ -> 1.0

let default_cfg = lazy (Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ())

(* arraylib/elementwise_add's 1 s fit read r² 0.62 (0.91 and 0.96 at
   5 s), so it gets a long quota. *)
let slow_cfg = lazy (Benchmark.cfg ~limit:2000 ~quota:(Time.second (5.0 *. quota)) ~kde:None ())

let benchmark ~cfg tests =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let raw = Benchmark.all (Lazy.force cfg) [ instance ] tests in
  Analyze.all ols instance raw

(* Print one group's table; return its rows as (full name, ns/run, r²).
   Poor fits get a stderr warning so regressions in measurement quality
   are visible, not just regressions in time. *)
let report results =
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort compare rows in
  List.filter_map
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (t :: _) ->
          let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> Float.nan in
          Printf.printf "  %-32s %12.3f us/run   (r^2 %.4f)\n" name (t /. 1e3) r2;
          ignore (Mg_bench_util.Bench_util.Quality.warn_r_square ~name r2);
          Some (name, t, r2)
      | _ ->
          Printf.printf "  %-32s (no estimate)\n" name;
          None)
    rows

(* MG_KERNELS selects the dispatch tier for bodies no fixed kernel
   recognises (generic | cfun | native; default cfun, the O2+
   default), so CI's profile-smoke can sample each tier with the same
   binary. *)
let kernel_tier =
  Option.value ~default:Engine.Cfun (Option.bind (Sys.getenv_opt "MG_KERNELS") Engine.tier_of_string)

let () =
  Printf.printf "sac_mg benchmark suite (scaled-down classes; see bin/fig*.exe for full sizes)\n";
  (* Per-kernel ns/elt histograms ride along in the metrics section. *)
  Mg_withloop.Kernel.set_timing true;
  Wl.with_config (Engine.with_tier kernel_tier) @@ fun () ->
  let all =
    List.concat_map
      (fun (tests, cfg) ->
        let tests = tests () in
        Printf.printf "\n%s:\n%!" (Test.name tests);
        report (benchmark ~cfg tests))
      [ (stencil_tests, default_cfg);
        (fusion_tests, default_cfg);
        (arraylib_tests, default_cfg);
        (arraylib_add_tests, slow_cfg);
      ]
  in
  let cstats = Wl.cache_stats () in
  let c = Engine.config (Engine.current ()) in
  let json =
    Json.Obj
      [ ("schema", Json.Int 1);
        ("suite", Json.String "sac_mg_bench");
        ("unix_time", Json.Float (Unix.time ()));
        ("env", Json.String (Env.description ()));
        ("sched_policy", Json.String (Mg_smp.Sched_policy.to_string c.Engine.sched));
        ("backend", Json.String (Mg_withloop.Backend.name c.Engine.backend));
        ("reuse", Json.String (if c.Engine.reuse then "on" else "off"));
        ("pooling", Json.String (if c.Engine.pooling then "on" else "off"));
        ("kernel_tier", Json.String (Engine.tier_to_string kernel_tier));
        ("kernels",
         Json.Obj
           (List.map
              (fun (name, count) -> ("hits_" ^ name, Json.Int count))
              (Mg_withloop.Kernel.counters ())));
        ("plan_cache",
         Json.Obj
           [ ("hits", Json.Int cstats.Mg_withloop.Plan_cache.hits);
             ("misses", Json.Int cstats.Mg_withloop.Plan_cache.misses);
             ("evictions", Json.Int cstats.Mg_withloop.Plan_cache.evictions);
             ("uncacheable", Json.Int cstats.Mg_withloop.Plan_cache.uncacheable);
             ("saved_seconds", Json.Float cstats.Mg_withloop.Plan_cache.saved_seconds);
           ]);
        (* Per-engine cache statistics: one record per live engine
           (the default engine plus any created ones). *)
        ("engines",
         Json.List
           (List.map
              (fun e ->
                let s = Mg_withloop.Engine.cache_stats e in
                Json.Obj
                  [ ("id", Json.Int (Mg_withloop.Engine.label e));
                    ("plans", Json.Int (Mg_withloop.Engine.cache_length e));
                    ("hits", Json.Int s.Mg_withloop.Plan_cache.hits);
                    ("misses", Json.Int s.Mg_withloop.Plan_cache.misses);
                    ("evictions", Json.Int s.Mg_withloop.Plan_cache.evictions);
                    ("uncacheable", Json.Int s.Mg_withloop.Plan_cache.uncacheable);
                    ("saved_seconds", Json.Float s.Mg_withloop.Plan_cache.saved_seconds);
                  ])
              (Mg_withloop.Engine.all ())));
        (* The whole metrics registry — labelled shards included, with
           the labels folded into the key — so new instruments land in
           the bench record without touching this file again. *)
        ("metrics",
         Json.Obj
           (List.map
              (fun (name, labels, v) ->
                let key =
                  match labels with
                  | [] -> name
                  | ls ->
                      name ^ "{"
                      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
                      ^ "}"
                in
                ( key,
                  match v with
                  | Mg_obs.Metrics.Counter n -> Json.Int n
                  | Mg_obs.Metrics.Gauge g -> Json.Float g
                  | Mg_obs.Metrics.Histogram h ->
                      Json.Obj
                        [ ("count", Json.Int h.Mg_obs.Metrics.count);
                          ("sum", Json.Int h.Mg_obs.Metrics.sum);
                          ("p50", Json.Float (Mg_obs.Metrics.quantile h 0.5));
                          ("p99", Json.Float (Mg_obs.Metrics.quantile h 0.99));
                          ("buckets",
                           Json.List
                             (Array.to_list (Array.map (fun c -> Json.Int c) h.Mg_obs.Metrics.buckets)));
                        ] ))
              (Mg_obs.Metrics.dump_all ())));
        ("results",
         Json.List
           (List.map
              (fun (name, ns, r2) ->
                Json.Obj
                  [ ("name", Json.String name);
                    ("ns_per_run", Json.Float ns);
                    ("r_square", Json.Float r2);
                  ])
              all));
      ]
  in
  let path = "results/bench.json" in
  Json.write_file path json;
  Printf.printf "\nwrote %s (%d estimates)\n" path (List.length all)
