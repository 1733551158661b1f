(* The benchmark definition: workloads, metrics and bounds.  This is
   the single source of truth — BENCHMARK.json at the repository root
   is [render ()] verbatim (`mgbench --print-spec`), and the test
   holds the committed file to it. *)

module Json = Mg_bench_util.Bench_util.Json

type workload = { name : string; why : string }

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (* end-to-end metrics only *)
}

let run_seconds = 20

let workloads =
  [ { name = "solve-W";
      why =
        "Fig. 11 at class W: 64^3 x 40 iterations, SAC/F77 pairs on one warm engine; finest-level \
         kernels and coarse-level per-force fixed cost both show";
    };
    { name = "solve-W128";
      why =
        "NPB 3 class W, 128^3 x 4 iterations: finest-grid kernels and memory traffic dominate, so a \
         per-force fixed-cost change should not move it";
    };
    { name = "serve-S";
      why =
        "closed loop through Mg_serve with 1 worker and 2 requests outstanding, cfun/native tiers: \
         graph build, key hashing, cache lookup and dispatch dominate";
    };
    { name = "cold-S";
      why =
        "class S solved on a fresh engine each time: an empty plan cache, so every plan is compiled \
         anew, the write side of the cache that serve-S never sees";
    };
  ]

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ better = { name; unit_; better; bound = None }

let end_to_end =
  [ e2e "solve_s" "s" Lower 0.25;
    e2e "sac_f77_ratio" "ratio" Lower 0.2;
    e2e "setup_s" "s" Lower 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.15;
  ]

let per_layer =
  [ (* Mg_sac graph construction and Plan_cache keys, probed directly. *)
    layer "graph.build_us" "us" Lower;
    layer "plan_cache.key_us" "us" Lower;
    layer "plan_cache.hits" "count" Higher;
    layer "plan_cache.misses" "count" Lower;
    layer "plan_cache.uncacheable" "count" Lower;
    (* Exec, probed directly. *)
    layer "exec.force_us.coarsest" "us" Lower;
    layer "exec.force_ns_elt.finest" "ns" Lower;
    layer "exec.compile_us" "us" Lower;
    (* Span self-times per solve. *)
    layer "force.self_ms" "ms" Lower;
    layer "fusion.self_ms" "ms" Lower;
    layer "linform.self_ms" "ms" Lower;
    layer "lower.self_ms" "ms" Lower;
    layer "cluster.self_ms" "ms" Lower;
    layer "kernel_choice.self_ms" "ms" Lower;
    layer "driver.self_ms" "ms" Lower;
    (* Kernel dispatch counts and per-piece ns/elt. *)
    layer "kernel.dispatch.stencil" "count" Higher;
    layer "kernel.dispatch.linebuf" "count" Higher;
    layer "kernel.dispatch.copy" "count" Lower;
    layer "kernel.dispatch.interp" "count" Lower;
    layer "kernel.dispatch.cfun" "count" Lower;
    layer "kernel.dispatch.native" "count" Lower;
    layer "kernel.ns_elt.stencil" "ns" Lower;
    layer "kernel.ns_elt.linebuf" "ns" Lower;
    layer "kernel.ns_elt.interp" "ns" Lower;
    layer "kernel.ns_elt.cfun" "ns" Lower;
    (* Mempool. *)
    layer "mempool.alloc_bytes" "bytes" Lower;
    layer "mempool.pool_hits" "count" Higher;
    layer "mempool.reuse_hits" "count" Higher;
    layer "mempool.bytes_live_hw" "bytes" Lower;
    layer "mempool.alloc_recycle_ns" "ns" Lower;
    (* Native. *)
    layer "native.compiles" "count" Lower;
    layer "native.compile_ms" "ms" Lower;
    layer "native.ns_elt" "ns" Lower;
    (* Serve / Admission. *)
    layer "serve.queue_p50_ms" "ms" Lower;
    layer "serve.queue_p90_ms" "ms" Lower;
    layer "serve.solve_p50_ms" "ms" Lower;
    layer "serve.latency_p50_ms" "ms" Lower;
    layer "serve.latency_p90_ms" "ms" Lower;
    layer "serve.latency_p99_ms" "ms" Lower;
    layer "serve.cache_hit_ratio" "ratio" Higher;
    (* Mg_obs. *)
    layer "obs.trace_overhead" "ratio" Lower;
    layer "obs.span_coverage" "ratio" Higher;
    layer "obs.spans_dropped" "count" Lower;
    layer "obs.series_per_engine" "count" Lower;
  ]

let command = [ "bash"; "mgbench/run.sh" ]
let paths = [ "mgbench" ]

(* One entry per line; bounds printed with %g so they read as written
   (Json.Float would print 0.10000000000000001). *)
let render () =
  let str s = Json.to_string (Json.String s) in
  let field k v = Printf.sprintf "%s: %s" (str k) v in
  let obj fields = "{" ^ String.concat ", " fields ^ "}" in
  let block name entries =
    Printf.sprintf "  %s: [\n    %s\n  ]" (str name) (String.concat ",\n    " entries)
  in
  let metric (m : metric) =
    obj
      ([ field "name" (str m.name);
         field "unit" (str m.unit_);
         field "better" (str (match m.better with Lower -> "lower" | Higher -> "higher"));
       ]
      @ match m.bound with Some b -> [ field "bound" (Printf.sprintf "%g" b) ] | None -> [])
  in
  let strings l = "[" ^ String.concat ", " (List.map str l) ^ "]" in
  String.concat ",\n"
    [ "{\n  " ^ field "command" (strings command);
      "  " ^ field "paths" (strings paths);
      "  " ^ field "run_seconds" (string_of_int run_seconds);
      block "workloads"
        (List.map
           (fun (w : workload) -> obj [ field "name" (str w.name); field "why" (str w.why) ])
           workloads);
      block "end_to_end" (List.map metric end_to_end);
      block "per_layer" (List.map metric per_layer);
    ]
  ^ "\n}\n"
