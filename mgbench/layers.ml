(* The traced run: per-layer metrics, measured from outside the
   library.  Two sources:

   - a shortened pass of the workload that alternates untraced and
     traced solves.  Traced solves record the spans the library
     already emits (Mg_obs.Span) and per-piece kernel timing; the
     span ring is cleared after each, since a class-W solve emits
     ~54k spans against 65 536 slots per domain.  Counters are deltas
     of the metrics registry across the pass, per solve;
   - probes that call each layer's public functions directly on the
     workload's finest and coarsest extents. *)

open Mg_core
open Mg_ndarray
module Wl = Mg_withloop.Wl
module Ir = Mg_withloop.Ir
module Exec = Mg_withloop.Exec
module Engine = Mg_withloop.Engine
module Kernel = Mg_withloop.Kernel
module Mempool = Mg_withloop.Mempool
module Native = Mg_withloop.Native
module Plan_cache = Mg_withloop.Plan_cache
module Metrics = Mg_obs.Metrics
module Span = Mg_obs.Span
module Serve = Mg_serve.Serve
module W = Workloads
module R = Record

(* ------------------------------------------------------------------ *)
(* Registry snapshots                                                  *)

let counter name = Metrics.value (Metrics.counter name)

let hist name =
  let s = Metrics.histogram_snapshot (Metrics.histogram name) in
  (float_of_int s.Metrics.sum, float_of_int s.Metrics.count)

let kernel_paths = [ "stencil"; "linebuf"; "copy"; "interp"; "cfun"; "native" ]
let timed_paths = [ "stencil"; "linebuf"; "interp"; "cfun" ]

let cache_names = [ "plan_cache.hits"; "plan_cache.misses"; "plan_cache.uncacheable" ]

(* (metric, registry counter) *)
let counter_names =
  List.map
    (fun n -> (n, n))
    (cache_names @ [ "mempool.alloc_bytes"; "mempool.pool_hits"; "mempool.reuse_hits" ])
  @ List.map (fun p -> ("kernel.dispatch." ^ p, "kernel." ^ p)) kernel_paths

let snapshot () =
  ( List.map (fun (metric, reg) -> (metric, float_of_int (counter reg))) counter_names,
    List.map (fun p -> (p, hist ("kernel.ns_elt." ^ p))) timed_paths )

(* Per-solve counter deltas, and mean ns/elt per kernel path over the
   traced solves' pieces (every workload runs every timed path). *)
let deltas ~solves (c0, h0) (c1, h1) =
  List.map2 (fun (name, a) (_, b) -> (name, (b -. a) /. float_of_int solves)) c0 c1
  @ List.map2
      (fun (p, (s0, n0)) (_, (s1, n1)) -> ("kernel.ns_elt." ^ p, (s1 -. s0) /. (n1 -. n0)))
      h0 h1

(* ------------------------------------------------------------------ *)
(* Traced pass                                                         *)

type pass = {
  self_ns : (string, float) Hashtbl.t;  (* span name -> summed self time *)
  mutable traced_wall : float;
  mutable traced : int;  (* traced solves *)
  mutable dropped : int;
  mutable plain_s : float list;  (* untraced solve times *)
  mutable traced_s : float list;  (* traced solve times, same measure *)
}

let new_pass () =
  { self_ns = Hashtbl.create 16; traced_wall = 0.0; traced = 0; dropped = 0; plain_s = [];
    traced_s = [] }

(* Run [f] (covering [solves] solves) with spans and kernel timing on,
   then fold its spans' self times into the pass. *)
let traced pass ~solves f =
  Span.clear ();
  Kernel.set_timing true;
  let wall, r =
    Fun.protect
      ~finally:(fun () -> Kernel.set_timing false)
      (fun () -> Span.with_enabled true (fun () -> R.elapsed f))
  in
  pass.dropped <- pass.dropped + Span.dropped ();
  List.iter
    (fun ((e : Span.event), self) ->
      let prev = Option.value (Hashtbl.find_opt pass.self_ns e.Span.name) ~default:0.0 in
      Hashtbl.replace pass.self_ns e.Span.name (prev +. Int64.to_float self))
    (Mg_obs.Profile_report.self_times (Span.events ()));
  Span.clear ();
  pass.traced_wall <- pass.traced_wall +. wall;
  pass.traced <- pass.traced + solves;
  r

let span_metrics pass =
  let per_solve_ms span =
    Option.value (Hashtbl.find_opt pass.self_ns span) ~default:0.0 /. 1e6 /. float_of_int pass.traced
  in
  let total = Hashtbl.fold (fun _ v acc -> acc +. v) pass.self_ns 0.0 in
  [ ("force.self_ms", per_solve_ms "wl:force");
    ("fusion.self_ms", per_solve_ms "wl:fusion");
    ("linform.self_ms", per_solve_ms "wl:linform");
    ("lower.self_ms", per_solve_ms "wl:lower");
    ("cluster.self_ms", per_solve_ms "wl:cluster");
    ("kernel_choice.self_ms", per_solve_ms "wl:kernel-choice");
    ("driver.self_ms", per_solve_ms "driver:run");
    ("obs.trace_overhead", R.median pass.traced_s /. R.median pass.plain_s);
    ("obs.span_coverage", total /. 1e9 /. pass.traced_wall);
    ("obs.spans_dropped", float_of_int pass.dropped);
  ]

(* Alternate untraced and traced ops for half the run (at least one
   of each; the probes take most of the rest); [op ~traced] returns
   the op's time, or [None] when it failed. *)
let alternate ctx pass ~solves_per_op op =
  let deadline = R.now () +. (ctx.W.seconds /. 2.0) in
  let rec go () =
    Option.iter
      (fun t -> pass.plain_s <- t :: pass.plain_s)
      (W.settled (fun () -> op ~traced:false));
    Option.iter
      (fun t -> pass.traced_s <- t :: pass.traced_s)
      (W.settled (fun () -> traced pass ~solves:solves_per_op (fun () -> op ~traced:true)));
    if R.now () < deadline then go ()
  in
  go ()

let sac_seconds = Option.map (fun r -> r.Driver.seconds)

let live_hw () = float_of_int (Mempool.snapshot ()).Mempool.bytes_live_hw

(* The pass for the sequential workloads: returns the per-solve
   counter deltas and the pass record.  Every pass ends with one more
   op on a cleared pool, for the high-water mark of the pool's live
   bytes over one op (escaped results are never returned to the pool,
   so the mark over a whole pass grows with its length). *)
let sequential_pass ctx kind cls =
  let pass = new_pass () in
  let e = Engine.create ~config:W.config () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown e)
    (fun () ->
      let op ~traced:_ =
        match kind with
        | W.Cold -> sac_seconds (W.cold_solve ctx cls)
        | W.Solve | W.Serve -> sac_seconds (W.solve ctx ~engine:e Driver.Sac cls)
      in
      ignore (op ~traced:false);
      let s0 = snapshot () in
      alternate ctx pass ~solves_per_op:1 op;
      let s1 = snapshot () in
      Mempool.clear ();
      ignore (op ~traced:false);
      (deltas ~solves:(2 * pass.traced) s0 s1 @ [ ("mempool.bytes_live_hw", live_hw ()) ], pass))

(* ------------------------------------------------------------------ *)
(* Serve                                                               *)

let batch = 8

let cache_counters () = List.map (fun n -> (n, counter n)) cache_names

let serve_metrics ctx cls served ~c0 ~c1 =
  let done_ = W.sac_only (W.check_served ctx cls served) in
  let ms ns = Int64.to_float ns /. 1e6 in
  let q p f = R.quantile p (List.map f done_) in
  let latency (r : Serve.response) = ms (Int64.add r.Serve.queue_ns r.Serve.solve_ns) in
  let d name = float_of_int (List.assoc name c1 - List.assoc name c0) in
  [ ("serve.queue_p50_ms", q 0.5 (fun r -> ms r.Serve.queue_ns));
    ("serve.queue_p90_ms", q 0.9 (fun r -> ms r.Serve.queue_ns));
    ("serve.solve_p50_ms", q 0.5 (fun r -> ms r.Serve.solve_ns));
    ("serve.latency_p50_ms", q 0.5 latency);
    ("serve.latency_p90_ms", q 0.9 latency);
    ("serve.latency_p99_ms", q 0.99 latency);
    ( "serve.cache_hit_ratio",
      d "plan_cache.hits" /. List.fold_left (fun acc n -> acc +. d n) 0.0 cache_names );
  ]

(* A warm server (one set-up) for [f]; twins and shutdown after.
   Also returns the native kernels the set-up compiled. *)
let with_server ctx cls f =
  let n0 = counter "native.compiles" in
  let _, server, dir, first = W.serve_setup ctx cls in
  let compiles = float_of_int (counter "native.compiles" - n0) in
  let r = Fun.protect ~finally:(fun () -> Serve.shutdown server) (fun () -> f server) in
  W.set_twins ctx ~dir cls;
  ignore (W.check_served ctx cls first);
  (r, ("native.compiles", compiles))

(* serve-S's own pass: batches of [batch] requests, untraced and
   traced alternately.  The serve metrics come from the untraced
   batches. *)
let serve_pass ctx cls =
  let pass = new_pass () in
  let plain = ref [] and others = ref [] in
  let (s0, c0, s1, c1, hw), compiles =
    with_server ctx cls (fun server ->
        let run () =
          let served, _ = W.closed_loop ctx server cls ~outstanding:2 ~stop:(fun k -> k >= batch) in
          let solve_s =
            List.filter_map
              (function _, Serve.Done r -> Some (W.solve_s r) | _ -> None)
              served
          in
          (served, R.median solve_s)
        in
        let s0 = snapshot () and c0 = cache_counters () in
        (* Spans are read between batches, when the worker idles. *)
        alternate ctx pass ~solves_per_op:batch (fun ~traced ->
            let served, t = run () in
            if traced then others := served @ !others else plain := served @ !plain;
            Some t);
        let s1 = snapshot () and c1 = cache_counters () in
        Mempool.clear ();
        let one, _ = W.closed_loop ctx server cls ~outstanding:1 ~stop:(fun k -> k >= 1) in
        others := one @ !others;
        (s0, c0, s1, c1, live_hw ()))
  in
  ignore (W.check_served ctx cls !others);
  ( deltas ~solves:(2 * pass.traced) s0 s1 @ [ ("mempool.bytes_live_hw", hw) ],
    pass,
    compiles :: serve_metrics ctx cls !plain ~c0 ~c1 )

(* The serving layer probed on class S for the workloads that do not
   serve: one warm server, 3 x [batch] requests. *)
let serve_probe ctx =
  let cls = if ctx.W.smoke then Classes.tiny else Classes.class_s in
  let (served, c0, c1), compiles =
    with_server ctx cls (fun server ->
        let c0 = cache_counters () in
        let served, _ =
          W.closed_loop ctx server cls ~outstanding:2 ~stop:(fun k -> k >= 3 * batch)
        in
        (served, c0, cache_counters ()))
  in
  compiles :: serve_metrics ctx cls served ~c0 ~c1

(* ------------------------------------------------------------------ *)
(* Layer probes                                                        *)

(* Median of [f]'s returned per-call seconds, sampled for [budget]
   seconds (at least 5 samples). *)
let sample ~budget f =
  let stop = R.now () +. budget in
  let rec go n acc = if n >= 5 && R.now () >= stop then acc else go (n + 1) (f () :: acc) in
  R.median (go 0 [])

(* Per-call seconds of [f] over a batch of [n] calls. *)
let per_call n f () =
  let t0 = R.now () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (R.now () -. t0) /. float_of_int n

let grid n =
  Wl.of_ndarray
    (Ndarray.init [| n; n; n |] (fun iv ->
         float_of_int (((iv.(0) * 7) + (iv.(1) * 13) + (iv.(2) * 29)) mod 97) /. 97.0))

let node_of (g : Wl.t) =
  match Wl.Expr.read g with
  | Ir.Read (Ir.Node n, _) -> n
  | _ -> failwith "mgbench: expected a with-loop node"

let resid u = node_of (Mg_sac.resid Stencil.a u)

(* Force a fresh graph under [st]; the output goes back to the pool
   so samples do not pile up live buffers.  Returns seconds. *)
let force_once st build =
  let n = build () in
  let t, out = R.elapsed (fun () -> Exec.force st n) in
  Mempool.recycle ~pooling:true out;
  t

let budget ctx = if ctx.W.smoke then 0.02 else 0.3

let probes ctx (cls : Classes.t) =
  let budget = budget ctx in
  let fine = cls.Classes.nx + 2 and coarse = 4 in
  let e = Engine.create ~config:W.config () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown e)
    (fun () ->
      let st = Engine.settings e in
      let cold st = { st with Exec.cache = Plan_cache.create () } in
      let u_fine = grid fine and u_coarse = grid coarse in
      let g = resid u_fine in
      let build_s = sample ~budget (per_call 50 (fun () -> Mg_sac.resid Stencil.a u_fine)) in
      let key_s =
        sample ~budget (per_call 50 (fun () -> Plan_cache.key_of_graph ~env:"" ~fold:true g))
      in
      ignore (force_once st (fun () -> resid u_coarse));
      let warm_coarse = sample ~budget (fun () -> force_once st (fun () -> resid u_coarse)) in
      let cold_coarse = sample ~budget (fun () -> force_once (cold st) (fun () -> resid u_coarse)) in
      ignore (force_once st (fun () -> resid u_fine));
      let warm_fine = sample ~budget (fun () -> force_once st (fun () -> resid u_fine)) in
      let shape = [| fine; fine; fine |] in
      let alloc_recycle =
        sample ~budget
          (per_call 1000 (fun () -> Mempool.recycle ~pooling:true (Mempool.alloc ~pooling:true shape)))
      in
      [ ("graph.build_us", build_s *. 1e6);
        ("plan_cache.key_us", key_s *. 1e6);
        ("exec.force_us.coarsest", warm_coarse *. 1e6);
        ("exec.force_ns_elt.finest", warm_fine *. 1e9 /. float_of_int (fine * fine * fine));
        ("exec.compile_us", (cold_coarse -. warm_coarse) *. 1e6);
        ("mempool.alloc_recycle_ns", alloc_recycle *. 1e9);
      ])

(* The native tier on a V-cycle from the workload's finest extent
   (its interpolation bodies are what no fixed kernel recognises).
   Compile time per kernel is a cold native force minus a cold cfun
   force, each with a fresh plan cache, cache directory and kernel
   memo, over the kernels compiled; kernel speed comes from warm
   native forces. *)
let native_probe ctx (cls : Classes.t) =
  let fine = grid (cls.Classes.nx + 2) in
  let graph () = node_of (Mg_sac.v_cycle ~smoother:(Classes.smoother_coeffs cls) fine) in
  let e = Engine.create ~config:W.config () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown e)
    (fun () ->
      let cfun = { (Engine.settings e) with Exec.native = None } in
      let native () =
        Native.reset_for_tests ();
        { cfun with Exec.native = Some (W.fresh_dir ctx "probe"); cache = Plan_cache.create () }
      in
      let compile_ms =
        R.median
          (List.init (W.setups ctx 3) (fun _ ->
               let c = force_once { cfun with cache = Plan_cache.create () } graph in
               let n0 = counter "native.compiles" in
               let t = force_once (native ()) graph in
               (t -. c) *. 1e3 /. float_of_int (counter "native.compiles" - n0)))
      in
      let st = native () in
      ignore (force_once st graph);
      let s0, n0 = hist "kernel.ns_elt.native" in
      Kernel.set_timing true;
      Fun.protect
        ~finally:(fun () -> Kernel.set_timing false)
        (fun () -> ignore (sample ~budget:(budget ctx) (fun () -> force_once st graph)));
      let s1, n1 = hist "kernel.ns_elt.native" in
      [ ("native.compile_ms", compile_ms); ("native.ns_elt", (s1 -. s0) /. (n1 -. n0)) ])

(* Metric series each new engine leaves in the registry for good:
   engines created and used for one tiny solve each. *)
let series_per_engine ctx =
  let n = 10 in
  let series () = List.length (Metrics.dump_all ()) in
  let s0 = series () in
  for _ = 1 to n do
    ignore (W.cold_solve ctx Classes.tiny)
  done;
  float_of_int (series () - s0) /. float_of_int n

(* ------------------------------------------------------------------ *)

let run ctx kind (cls : Classes.t) =
  let counts, pass, serve =
    match kind with
    | W.Serve -> serve_pass ctx cls
    | W.Solve | W.Cold ->
        let counts, pass = sequential_pass ctx kind cls in
        (counts, pass, serve_probe ctx)
  in
  let probes = probes ctx cls in
  let native = native_probe ctx cls in
  counts @ span_metrics pass @ serve @ probes @ native
  @ [ ("obs.series_per_engine", series_per_engine ctx) ]
