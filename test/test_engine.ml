(* Engine reification: explicit Engine.t contexts must (1) carry
   genuinely independent plan caches, (2) make concurrent solves with
   different configurations from different domains bitwise-identical
   to their sequential counterparts — the payoff gate for the whole
   refactor — and (3) be the only configuration switch: pooling and
   the per-engine telemetry shards follow the engine config alone. *)

open Mg_ndarray
open Mg_withloop
open Mg_core
module E = Wl.Expr

let src_of_seed shp seed =
  let st = Mg_nasrand.Nasrand.make ~seed:(float_of_int (7700 + seed)) () in
  Ndarray.init shp (fun _ -> Mg_nasrand.Nasrand.next st -. 0.5)

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

(* Single-threaded engines: the property runs many iterations and
   must not spawn worker domains per engine. *)
let test_engine () =
  Engine.create ~config:{ (Engine.config_of_env ()) with Engine.threads = 1 } ()

(* ------------------------------------------------------------------ *)
(* Cache independence (qcheck): filling one engine's cache never
   changes another's statistics or contents.                           *)

let qcheck_caches_independent =
  QCheck.Test.make ~name:"engine caches are independent" ~count:40
    QCheck.(pair (int_range 1 1000) (int_range 1 64))
    (fun (c1000, seed) ->
      let c = float_of_int c1000 /. 125.0 in
      let ea = test_engine () and eb = test_engine () in
      Fun.protect
        ~finally:(fun () ->
          Engine.shutdown ea;
          Engine.shutdown eb)
        (fun () ->
          let src = src_of_seed [| 12; 12 |] seed in
          (* Two forces in A: miss then hit, all in A's cache. *)
          let a1 = Engine.with_current ea (fun () -> Wl.force (stencil_graph src c)) in
          let a2 = Engine.with_current ea (fun () -> Wl.force (stencil_graph src c)) in
          let sa = Engine.cache_stats ea in
          let sb = Engine.cache_stats eb in
          (* B never executed: stats zero, store empty. *)
          let b_untouched =
            sb.Plan_cache.hits = 0 && sb.Plan_cache.misses = 0
            && sb.Plan_cache.uncacheable = 0
            && Engine.cache_length eb = 0
          in
          (* B still computes the same values from its own cold cache. *)
          let b1 = Engine.with_current eb (fun () -> Wl.force (stencil_graph src c)) in
          sa.Plan_cache.hits >= 1 && sa.Plan_cache.misses >= 1 && b_untouched
          && Ndarray.equal a1 a2 && Ndarray.equal a1 b1))

(* ------------------------------------------------------------------ *)
(* The payoff gate: two engines with different settings (cfun without
   line buffers vs generic with them) solving class S concurrently
   from two domains produce bitwise-identical norms to their own
   sequential runs.                                                    *)

let bits = Int64.bits_of_float

let test_concurrent_solves_bitwise () =
  let base = Engine.config_of_env () in
  let cfg_a = { base with Engine.threads = 2; cfun = true; line_buffers = false } in
  let cfg_b = { base with Engine.threads = 2; cfun = false; line_buffers = true } in
  let ea = Engine.create ~config:cfg_a () in
  let eb = Engine.create ~config:cfg_b () in
  Fun.protect
    ~finally:(fun () ->
      Engine.shutdown ea;
      Engine.shutdown eb)
    (fun () ->
      let solve e () =
        (Driver.run ~engine:e ~impl:Driver.Sac ~cls:Classes.class_s ()).Driver.rnm2
      in
      (* Sequential references, one per configuration. *)
      let seq_a = solve ea () in
      let seq_b = solve eb () in
      (* The same two solves, concurrently from two fresh domains.
         Each engine owns its pool and its cache; the only shared
         state left (mempool arenas, metrics) must be domain-local or
         atomic. *)
      let da = Domain.spawn (solve ea) in
      let db = Domain.spawn (solve eb) in
      let con_a = Domain.join da in
      let con_b = Domain.join db in
      Alcotest.(check bool) "A concurrent = A sequential (bitwise)" true
        (Int64.equal (bits seq_a) (bits con_a));
      Alcotest.(check bool) "B concurrent = B sequential (bitwise)" true
        (Int64.equal (bits seq_b) (bits con_b));
      (* The two configurations genuinely differ in kernel path, so
         the gate is not vacuous: both verify against the class. *)
      Alcotest.(check bool) "distinct engine labels" true (Engine.label ea <> Engine.label eb))


(* ------------------------------------------------------------------ *)
(* Telemetry attribution under concurrency: two engines hammering
   class S from separate domains must produce per-engine labelled
   metric deltas equal to their own solo runs — nothing bleeds across
   the labels — and flight records attributed to the right engine in
   admission order.                                                    *)

let shard_names =
  [ "plan_cache.hits"; "plan_cache.misses"; "mempool.pool_hits"; "mempool.reuse_hits";
    "mempool.alloc_bytes";
  ]

let shard_snapshot e =
  let labels = [ ("engine", string_of_int (Engine.label e)) ] in
  List.map (fun n -> (n, Mg_obs.Metrics.value (Mg_obs.Metrics.counter ~labels n))) shard_names

let shard_delta before after =
  List.map2 (fun (n, b) (n', a) -> assert (n = n'); (n, a - b)) before after

let test_concurrent_telemetry_attribution () =
  let base = Engine.config_of_env () in
  let cfg_a = { base with Engine.threads = 2; cfun = true; line_buffers = false } in
  let cfg_b = { base with Engine.threads = 2; cfun = false; line_buffers = true } in
  let ea = Engine.create ~config:cfg_a () in
  let eb = Engine.create ~config:cfg_b () in
  Fun.protect
    ~finally:(fun () ->
      Engine.shutdown ea;
      Engine.shutdown eb)
    (fun () ->
      Alcotest.(check bool) "distinct metric labels" true (Engine.label ea <> Engine.label eb);
      let solve e () =
        ignore (Driver.run ~engine:e ~impl:Driver.Sac ~cls:Classes.class_s ())
      in
      (* Every measured solve runs on a fresh spawned domain, so its
         calling-domain arena is cold in the solo and the concurrent
         case alike — making mempool deltas comparable.  The first
         pair also warms each engine's plan cache. *)
      let spawn_solve e = Domain.join (Domain.spawn (solve e)) in
      spawn_solve ea;
      spawn_solve eb;
      (* Solo references. *)
      let a0 = shard_snapshot ea in
      spawn_solve ea;
      let solo_a = shard_delta a0 (shard_snapshot ea) in
      let b0 = shard_snapshot eb in
      spawn_solve eb;
      let solo_b = shard_delta b0 (shard_snapshot eb) in
      (* The same two solves, concurrently. *)
      let flight_seq0 =
        match List.rev (Mg_obs.Flight.records ()) with
        | [] -> -1
        | r :: _ -> r.Mg_obs.Flight.seq
      in
      let ca0 = shard_snapshot ea and cb0 = shard_snapshot eb in
      let da = Domain.spawn (solve ea) and db = Domain.spawn (solve eb) in
      Domain.join da;
      Domain.join db;
      let con_a = shard_delta ca0 (shard_snapshot ea) in
      let con_b = shard_delta cb0 (shard_snapshot eb) in
      List.iter2
        (fun (n, solo) (_, con) ->
          Alcotest.(check int) (Printf.sprintf "A: %s concurrent = solo" n) solo con)
        solo_a con_a;
      List.iter2
        (fun (n, solo) (_, con) ->
          Alcotest.(check int) (Printf.sprintf "B: %s concurrent = solo" n) solo con)
        solo_b con_b;
      (* Both solves left flight records with the right attribution. *)
      let fresh_records =
        List.filter
          (fun (r : Mg_obs.Flight.record) -> r.Mg_obs.Flight.seq > flight_seq0)
          (Mg_obs.Flight.records ())
      in
      Alcotest.(check int) "two fresh flight records" 2 (List.length fresh_records);
      let ids = List.map (fun (r : Mg_obs.Flight.record) -> r.Mg_obs.Flight.engine_id) fresh_records in
      Alcotest.(check bool) "one record per engine" true
        (List.sort compare ids = List.sort compare [ Engine.label ea; Engine.label eb ]);
      (match fresh_records with
      | [ r1; r2 ] ->
          Alcotest.(check bool) "seq strictly increasing" true
            (r1.Mg_obs.Flight.seq < r2.Mg_obs.Flight.seq);
          Alcotest.(check bool) "distinct solve ids" true
            (r1.Mg_obs.Flight.solve_id <> r2.Mg_obs.Flight.solve_id)
      | _ -> ());
      List.iter
        (fun (r : Mg_obs.Flight.record) ->
          Alcotest.(check bool) "solve verified" true r.Mg_obs.Flight.verified;
          Alcotest.(check bool) "stages recorded" true
            (List.mem_assoc "iterate" r.Mg_obs.Flight.stages))
        fresh_records;
      (* Engine.flight_log filters by label. *)
      List.iter
        (fun (r : Mg_obs.Flight.record) ->
          Alcotest.(check int) "flight_log filtered to ea" (Engine.label ea)
            r.Mg_obs.Flight.engine_id)
        (Engine.flight_log ea))

(* ------------------------------------------------------------------ *)
(* One configuration path                                              *)

let shard_value e name =
  Mg_obs.Metrics.value
    (Mg_obs.Metrics.counter ~labels:[ ("engine", string_of_int (Engine.label e)) ] name)

(* Pooling is decided by the engine config alone: with [pooling =
   false] no allocation of the solve is served from an arena, whatever
   the process environment says; with it on the arenas serve some, and
   the norm is bitwise the same. *)
let test_pooling_follows_config () =
  let solve pooling =
    Wl.with_config (fun c -> { c with Engine.pooling }) (fun () ->
        let e = Engine.current () in
        let h0 = shard_value e "mempool.pool_hits" in
        let r = Driver.run ~impl:Driver.Sac ~cls:Classes.tiny () in
        (shard_value e "mempool.pool_hits" - h0, r.Driver.rnm2))
  in
  let hits_off, rnm2_off = solve false in
  let hits_on, rnm2_on = solve true in
  Alcotest.(check int) "pooling off: no pool hits" 0 hits_off;
  Alcotest.(check bool) (Printf.sprintf "pooling on: pool hits (%d)" hits_on) true (hits_on > 0);
  Alcotest.(check int64) "rnm2 bitwise equal across pooling" (bits rnm2_off) (bits rnm2_on)

(* Every kernel timing lands in its unlabelled aggregate and in the
   solving engine's shard of the same family: per family, the two
   count deltas are equal.  One timed solve per kernel tier; a native
   solve the toolchain refused dispatches no native kernel, so its
   family is only required to balance, not to be non-empty. *)
let test_kernel_timing_shards_sum () =
  let families () =
    List.filter_map
      (function
        | name, Mg_obs.Metrics.Histogram _
          when String.length name > 14 && String.sub name 0 14 = "kernel.ns_elt." ->
            Some name
        | _ -> None)
      (Mg_obs.Metrics.dump ())
  in
  let count ?labels name =
    (Mg_obs.Metrics.histogram_snapshot (Mg_obs.Metrics.histogram ?labels name)).Mg_obs.Metrics.count
  in
  let e = Engine.create () in
  let labels = [ ("engine", string_of_int (Engine.label e)) ] in
  let counts () = List.map (fun n -> (n, count n, count ~labels n)) (families ()) in
  let native_kernels = Mg_obs.Metrics.counter "kernel.native" in
  Kernel.set_timing true;
  Fun.protect
    ~finally:(fun () ->
      Kernel.set_timing false;
      Engine.shutdown e)
    (fun () ->
      List.iter
        (fun tier ->
          let tname = Engine.tier_to_string tier in
          let before = counts () and n0 = Mg_obs.Metrics.value native_kernels in
          ignore
            (Driver.run ~engine:(Engine.derive e (Engine.with_tier tier)) ~impl:Driver.Sac
               ~cls:Classes.tiny ());
          let deltas =
            List.map
              (fun (name, agg, shard) ->
                match List.find_opt (fun (n, _, _) -> n = name) before with
                | Some (_, agg0, shard0) -> (name, agg - agg0, shard - shard0)
                | None -> (name, agg, shard))
              (counts ())
          in
          List.iter
            (fun (name, agg, shard) ->
              Alcotest.(check int)
                (Printf.sprintf "%s solve: %s shard delta = aggregate delta" tname name)
                agg shard)
            deltas;
          let own = "kernel.ns_elt." ^ tname in
          if tier = Engine.Native && Mg_obs.Metrics.value native_kernels = n0 then
            Printf.printf "native toolchain refused: %s not required\n%!" own
          else
            Alcotest.(check bool)
              (Printf.sprintf "%s solve timed its own tier" tname)
              true
              (List.exists (fun (n, agg, _) -> n = own && agg > 0) deltas))
        Engine.tiers)

(* ------------------------------------------------------------------ *)
(* One write per event: totals are derived, shutdown retires           *)

module Metrics = Mg_obs.Metrics

(* Family totals agree: counters and histograms exactly, gauges up to
   float summation order (a retired gauge cell is added in a different
   order). *)
let same_totals a b =
  List.length a = List.length b
  && List.for_all2
       (fun (n, x) (n', y) ->
         n = n'
         &&
         match (x, y) with
         | Metrics.Gauge x, Metrics.Gauge y -> Float.abs (x -. y) <= 1e-9 *. Float.abs x
         | x, y -> x = y)
       a b

(* Ten create/solve/shutdown cycles leave the registry's series count
   where it was, and no family total moves when an engine (or a
   2-worker server) shuts down: shutdown folds the shards into the
   retired totals instead of leaving them behind. *)
let test_shutdown_retires () =
  let series () = List.length (Metrics.dump_all ()) in
  let shutdown_keeps_totals what stop =
    let before = Metrics.dump () in
    stop ();
    Alcotest.(check bool) (what ^ ": family totals unchanged by shutdown") true
      (same_totals before (Metrics.dump ()))
  in
  let engine_cycle () =
    let e = Engine.create () in
    ignore (Driver.run ~engine:e ~impl:Driver.Sac ~cls:Classes.tiny ());
    shutdown_keeps_totals "engine" (fun () -> Engine.shutdown e)
  in
  let serve_cycle () =
    let server =
      Mg_serve.Serve.create ~config:{ (Mg_serve.Serve.default_config ()) with workers = 2 } ()
    in
    let solve = Mg_serve.Serve.(Solve (spec ~impl:Driver.Sac ~cls:Classes.tiny ())) in
    List.iter
      (fun tk ->
        match Mg_serve.Serve.await server tk with
        | Mg_serve.Serve.Done _ -> ()
        | _ -> Alcotest.fail "served solve failed")
      (List.init 4 (fun _ ->
           Result.get_ok (Mg_serve.Serve.submit server (Mg_serve.Serve.request solve))));
    shutdown_keeps_totals "serve" (fun () -> Mg_serve.Serve.shutdown server)
  in
  Kernel.set_timing true;
  Fun.protect
    ~finally:(fun () -> Kernel.set_timing false)
    (fun () ->
      (* One warm-up of each: first uses intern process-wide families. *)
      engine_cycle ();
      serve_cycle ();
      let s0 = series () in
      for _ = 1 to 10 do
        engine_cycle ()
      done;
      Alcotest.(check int) "no series left by 10 engines" s0 (series ());
      serve_cycle ();
      Alcotest.(check int) "no series left by a server" s0 (series ()))

(* A solve on a fresh engine writes every sharded event to the
   engine's own cells: per family, the total moves exactly as much as
   the engine's shard, so the unlabelled cell moved by 0. *)
let test_solve_writes_only_shards () =
  let e = Engine.create () in
  let own = [ ("engine", string_of_int (Engine.label e)) ] in
  let shards () =
    List.filter_map (fun (n, l, v) -> if l = own then Some (n, v) else None) (Metrics.dump_all ())
  in
  let totals () = Metrics.dump () in
  let count = function
    | Metrics.Counter n -> float_of_int n
    | Metrics.Gauge g -> g
    | Metrics.Histogram h -> float_of_int h.Metrics.count
  in
  Kernel.set_timing true;
  Fun.protect
    ~finally:(fun () ->
      Kernel.set_timing false;
      Engine.shutdown e)
    (fun () ->
      let s0 = shards () and t0 = totals () in
      ignore (Driver.run ~engine:e ~impl:Driver.Sac ~cls:Classes.tiny ());
      let s1 = shards () and t1 = totals () in
      let delta name l0 l1 = count (List.assoc name l1) -. count (List.assoc name l0) in
      List.iter
        (fun (name, _) ->
          let shard = delta name s0 s1 and total = delta name t0 t1 in
          Alcotest.(check bool)
            (Printf.sprintf "%s: unlabelled cell delta 0 (total %g, shard %g)" name total shard)
            true
            (Float.abs (total -. shard) <= 1e-9 *. Float.max 1.0 (Float.abs total)))
        s1;
      (* A warm pool may serve every buffer: count draws from either. *)
      Alcotest.(check bool) "the solve was counted" true
        (delta "plan_cache.misses" s0 s1 > 0.0
        && delta "mempool.pool_hits" s0 s1 +. delta "mempool.alloc_bytes" s0 s1 > 0.0))

(* The native flag must show in the flight-recorder config digest, so
   two otherwise identical engines differing only in the AOT tier are
   distinguishable in post-mortem records. *)
let test_native_in_fingerprint () =
  let e = test_engine () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown e)
    (fun () ->
      let on = Engine.derive e (fun c -> { c with Engine.native = true }) in
      let off = Engine.derive e (fun c -> { c with Engine.native = false }) in
      Alcotest.(check bool) "nt bit splits the fingerprint" true
        (Engine.config_fingerprint on <> Engine.config_fingerprint off))

(* A native cache whose files are corrupt under valid names — each
   shared object cut to 100 bytes, or replaced by one that lacks the
   kernel symbol — degrades the solve to the cfun tier: no native
   dispatch, one counted refusal per cached kernel (memoised, so a
   second solve counts none) and an rnm2 bitwise equal to the cfun
   tier's.  Each variant gets its own copy of the cache: a path the
   process already loaded would be served from memory, not read. *)
let test_corrupt_native_cache () =
  let tmp =
    Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "mg-corrupt-%d" (Unix.getpid ()))
  in
  let dir name = Filename.concat tmp name in
  let native_dispatches = Mg_obs.Metrics.counter "kernel.native" in
  let solve ?cache tier =
    let config = Engine.with_tier tier { Engine.default_config with Engine.native_cache = cache } in
    let e = Engine.create ~config () in
    Fun.protect
      ~finally:(fun () -> Engine.shutdown e)
      (fun () ->
        let n0 = Mg_obs.Metrics.value native_dispatches in
        let r = Driver.run ~engine:e ~impl:Driver.Sac ~cls:Classes.class_s () in
        let failures =
          Mg_obs.Metrics.value
            (Mg_obs.Metrics.counter
               ~labels:[ ("engine", string_of_int (Engine.label e)) ]
               "native.compile_failures")
        in
        (Int64.bits_of_float r.Driver.rnm2, failures, Mg_obs.Metrics.value native_dispatches - n0))
  in
  let sos d =
    List.filter (fun f -> Filename.check_suffix f ".so") (Array.to_list (Sys.readdir d))
  in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let write path data =
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)
  in
  let cfun, _, _ = solve Engine.Cfun in
  Native.reset_for_tests ();
  let _, _, dispatched = solve ~cache:(dir "good") Engine.Native in
  let good = if Sys.file_exists (dir "good") then sos (dir "good") else [] in
  let stub = dir "stub.c" in
  let wrong = dir "wrong.so" in
  if dispatched = 0 || good = [] then print_endline "native toolchain refused: corrupt-cache test not run"
  else begin
    write stub "int mg_unrelated_symbol(void) { return 0; }\n";
    (* The compiler the native tier used ([MG_CC], else [cc]). *)
    let cc =
      match Sys.getenv_opt "MG_CC" with Some c when String.trim c <> "" -> String.trim c | _ -> "cc"
    in
    let build = Printf.sprintf "%s -shared -fPIC -o %s %s" cc (Filename.quote wrong) (Filename.quote stub) in
    if Sys.command build <> 0 then Alcotest.fail "the C compiler could not build the stub shared object";
    List.iter
      (fun (variant, corrupt) ->
        Sys.mkdir (dir variant) 0o755;
        List.iter
          (fun f ->
            write (Filename.concat (dir variant) f) (corrupt (Filename.concat (dir "good") f)))
          good;
        Native.reset_for_tests ();
        List.iter
          (fun (run, refusals) ->
            let rnm2, failures, dispatched = solve ~cache:(dir variant) Engine.Native in
            let what = Printf.sprintf "%s, %s solve" variant run in
            Alcotest.(check int) (what ^ ": native dispatches") 0 dispatched;
            Alcotest.(check int) (what ^ ": native.compile_failures") refusals failures;
            Alcotest.(check int64) (what ^ ": rnm2 = cfun tier's") cfun rnm2)
          [ ("first", List.length good); ("second", 0) ])
      [ ("truncated", fun f -> String.sub (read f) 0 100); ("no-symbol", fun _ -> read wrong) ];
    Native.reset_for_tests ()
  end;
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote tmp)))

(* The flight record names the configuration that ran: below O2 the
   executor runs neither staged kernels nor buffer reuse, whatever the
   config's flags say, so the digest names neither. *)
let test_fingerprint_names_what_ran () =
  let at level =
    let e = Engine.create ~config:{ Engine.default_config with Engine.opt_level = level } () in
    Fun.protect ~finally:(fun () -> Engine.shutdown e) (fun () -> Engine.config_fingerprint e)
  in
  Alcotest.(check string) "O3 default" "O3 t1 lb cfun -nt reuse pool" (at Engine.O3);
  Alcotest.(check string) "O2" "O2 t1 lb cfun -nt reuse pool" (at Engine.O2);
  Alcotest.(check string) "O1" "O1 t1 lb pool" (at Engine.O1);
  Alcotest.(check string) "O0" "O0 t1 lb pool" (at Engine.O0)

(* ------------------------------------------------------------------ *)
(* Env parsing (hermetic via ~getenv)                                  *)

let test_config_of_env () =
  let fake = function
    | "MG_PROCS" -> Some "4"
    | "MG_REUSE" -> Some "0"
    | "MG_POOLING" -> Some "off"
    | "MG_NATIVE" -> Some "on"
    | "MG_NATIVE_CACHE" -> Some " /tmp/mg-so-cache "
    | _ -> None
  in
  let c = Engine.config_of_env ~getenv:(fun k -> fake k) () in
  Alcotest.(check int) "MG_PROCS" 4 c.Engine.threads;
  Alcotest.(check bool) "MG_REUSE=0" false c.Engine.reuse;
  Alcotest.(check bool) "MG_POOLING=off" false c.Engine.pooling;
  Alcotest.(check bool) "MG_NATIVE=on" true c.Engine.native;
  Alcotest.(check (option string)) "MG_NATIVE_CACHE trimmed" (Some "/tmp/mg-so-cache")
    c.Engine.native_cache;
  let d = Engine.config_of_env ~getenv:(fun _ -> None) () in
  Alcotest.(check bool) "empty env = defaults" true (d = Engine.default_config);
  Alcotest.(check bool) "native off by default" false d.Engine.native;
  (* Garbage values fall back to the defaults rather than raising;
     a blank MG_NATIVE_CACHE is ignored. *)
  let g = Engine.config_of_env ~getenv:(fun _ -> Some "wat") () in
  Alcotest.(check int) "bad MG_PROCS ignored" d.Engine.threads g.Engine.threads;
  Alcotest.(check bool) "bad MG_REUSE ignored" d.Engine.reuse g.Engine.reuse;
  Alcotest.(check bool) "bad MG_NATIVE ignored" d.Engine.native g.Engine.native;
  let blank = Engine.config_of_env ~getenv:(function "MG_NATIVE_CACHE" -> Some "  " | _ -> None) () in
  Alcotest.(check (option string)) "blank MG_NATIVE_CACHE ignored" None blank.Engine.native_cache

(* Derived engines share the parent's cache; created ones do not. *)
let test_derive_shares_cache () =
  let e = test_engine () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown e)
    (fun () ->
      let d = Engine.derive e (fun c -> { c with Engine.opt_level = Engine.O1 }) in
      Alcotest.(check bool) "same cache" true (Engine.cache d == Engine.cache e);
      Alcotest.(check int) "inherited label" (Engine.label e) (Engine.label d);
      let src = src_of_seed [| 10; 10 |] 3 in
      ignore (Engine.with_current d (fun () -> Wl.force (stencil_graph src 1.5)));
      Alcotest.(check bool) "derived force lands in parent stats" true
        ((Engine.cache_stats e).Plan_cache.misses >= 1))

let suite =
  ( "engine",
    [ QCheck_alcotest.to_alcotest qcheck_caches_independent;
      Alcotest.test_case "concurrent two-engine class-S solves bitwise" `Quick
        test_concurrent_solves_bitwise;
      Alcotest.test_case "concurrent two-engine telemetry attribution" `Quick
        test_concurrent_telemetry_attribution;
      Alcotest.test_case "pooling follows the engine config" `Quick test_pooling_follows_config;
      Alcotest.test_case "kernel timing shards equal aggregates per tier" `Quick
        test_kernel_timing_shards_sum;
      Alcotest.test_case "native flag splits the config fingerprint" `Quick
        test_native_in_fingerprint;
      Alcotest.test_case "config fingerprint names what ran" `Quick test_fingerprint_names_what_ran;
      Alcotest.test_case "a corrupt native cache degrades to cfun" `Quick test_corrupt_native_cache;
      Alcotest.test_case "config_of_env parses the matrix vars" `Quick test_config_of_env;
      Alcotest.test_case "derive shares cache, create does not" `Quick test_derive_shares_cache;
      Alcotest.test_case "shutdown retires the engine's series" `Quick test_shutdown_retires;
      Alcotest.test_case "a solve writes only its engine's shards" `Quick
        test_solve_writes_only_shards;
    ] )
