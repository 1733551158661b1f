module Smp_sim = Mg_smp.Smp_sim
module Models = Mg_smp.Models
module Span = Mg_obs.Span
module Scope = Mg_obs.Scope

let ev ?(tag = "wl:genarray") ?(elements = 1 lsl 20) ?(seconds = 0.01) ?(alloc = 0) () =
  { Smp_sim.tag; elements; seconds; bytes = alloc; extent = 64 }

let ideal =
  { Smp_sim.name = "ideal";
    can_parallelize = (fun _ -> true);
    min_par_elements = 0;
    spawn_seconds = 0.0;
    chunk_seconds = 0.0;
    imbalance = 0.0;
    mem_per_alloc_seconds = 0.0;
  }

let check_float = Alcotest.(check (float 1e-12))

let test_single_processor_identity () =
  let evs = [ ev (); ev ~seconds:0.02 () ] in
  check_float "p=1 is the trace" 0.03 (Smp_sim.predict ideal ~procs:1 evs)

let test_ideal_linear_speedup () =
  let evs = [ ev ~seconds:0.1 () ] in
  check_float "p=10 ideal" 0.01 (Smp_sim.predict ideal ~procs:10 evs)

let test_amdahl_bound () =
  (* Half the time in a non-parallelizable operation caps speedup at 2. *)
  let m = { ideal with Smp_sim.can_parallelize = (fun e -> e.Smp_sim.tag = "par") } in
  let evs = [ ev ~tag:"par" ~seconds:0.5 (); ev ~tag:"seq" ~seconds:0.5 () ] in
  let t1 = Smp_sim.predict m ~procs:1 evs in
  let tinf = Smp_sim.predict m ~procs:1000 evs in
  Alcotest.(check bool) "speedup below 2" true (t1 /. tinf < 2.0);
  Alcotest.(check bool) "speedup near 2" true (t1 /. tinf > 1.99)

let test_threshold_keeps_small_grids_serial () =
  let m = { ideal with Smp_sim.min_par_elements = 4096 } in
  let small = ev ~elements:512 ~seconds:0.01 () in
  check_float "small op unchanged" 0.01 (Smp_sim.predict_op m ~procs:8 small)

let test_overheads_add () =
  let m = { ideal with Smp_sim.spawn_seconds = 1e-3; chunk_seconds = 1e-4 } in
  check_float "spawn + chunk" ((0.01 /. 4.0) +. 1e-3 +. 4e-4)
    (Smp_sim.predict_op m ~procs:4 (ev ~seconds:0.01 ()))

let test_memory_overhead_not_divided () =
  let m = { ideal with Smp_sim.mem_per_alloc_seconds = 2e-3 } in
  let e = ev ~seconds:0.01 ~alloc:8192 () in
  (* (work - mem)/p + mem *)
  check_float "mem stays serial" ((0.008 /. 8.0) +. 2e-3) (Smp_sim.predict_op m ~procs:8 e)

let test_memory_capped_by_measurement () =
  let m = { ideal with Smp_sim.mem_per_alloc_seconds = 1.0 } in
  let e = ev ~seconds:0.01 ~alloc:8192 () in
  let t = Smp_sim.predict_op m ~procs:1000 e in
  Alcotest.(check bool) "bounded" true (t <= 0.01 +. 1e-9)

let test_imbalance_degrades_efficiency () =
  let m = { ideal with Smp_sim.imbalance = 0.1 } in
  let t10 = Smp_sim.predict m ~procs:10 [ ev ~seconds:1.0 () ] in
  check_float "efficiency model" (1.0 /. 10.0 *. 1.9) t10

let test_speedup_series_shape () =
  let series = Smp_sim.speedup_series ideal ~max_procs:5 [ ev ~seconds:1.0 () ] in
  Alcotest.(check int) "length" 5 (Array.length series);
  Array.iteri
    (fun i (p, s) ->
      Alcotest.(check int) "procs" (i + 1) p;
      check_float "linear" (float_of_int (i + 1)) s)
    series

let test_parallel_fraction () =
  let m = { ideal with Smp_sim.can_parallelize = (fun e -> e.Smp_sim.tag = "par") } in
  let evs = [ ev ~tag:"par" ~seconds:0.75 (); ev ~tag:"seq" ~seconds:0.25 () ] in
  check_float "fraction" 0.75 (Smp_sim.parallel_fraction m evs)

let test_models_structural_rules () =
  let wl = ev ~tag:"wl:genarray" () in
  let f77_resid = ev ~tag:"f77:resid" () in
  let f77_interp = ev ~tag:"f77:interp" () in
  let c_interp = ev ~tag:"c:interp" () in
  let comm3 = ev ~tag:"f77:comm3" () in
  Alcotest.(check bool) "sac takes with-loops" true (Models.sac.Smp_sim.can_parallelize wl);
  Alcotest.(check bool) "sac ignores fortran loops" false
    (Models.sac.Smp_sim.can_parallelize f77_resid);
  Alcotest.(check bool) "autopar takes resid" true
    (Models.f77_autopar.Smp_sim.can_parallelize f77_resid);
  Alcotest.(check bool) "autopar rejects interp" false
    (Models.f77_autopar.Smp_sim.can_parallelize f77_interp);
  Alcotest.(check bool) "openmp takes interp" true (Models.openmp.Smp_sim.can_parallelize c_interp);
  Alcotest.(check bool) "nobody takes comm3" false
    (Models.f77_autopar.Smp_sim.can_parallelize comm3);
  Alcotest.(check bool) "only sac pays memory" true
    (Models.sac.Smp_sim.mem_per_alloc_seconds > 0.0
    && Models.f77_autopar.Smp_sim.mem_per_alloc_seconds = 0.0
    && Models.openmp.Smp_sim.mem_per_alloc_seconds = 0.0)

let test_monotone_in_procs () =
  (* With overheads, predicted time is not guaranteed monotone, but
     speedup at p=2 must beat p=1 for a large parallel op. *)
  List.iter
    (fun m ->
      let e = [ ev ~tag:"wl:genarray" ~seconds:0.5 (); ev ~tag:"c:resid" ~seconds:0.5 ();
                ev ~tag:"f77:resid" ~seconds:0.5 () ] in
      let t1 = Smp_sim.predict m ~procs:1 e and t2 = Smp_sim.predict m ~procs:2 e in
      Alcotest.(check bool) (m.Smp_sim.name ^ " improves") true (t2 < t1))
    Models.all

(* Ops are read off spans: an extent makes a span an op, named by its
   [tag] attribute or else by the span; nested ops are subtracted from
   an op's time (other nested spans are not), and another solve's spans
   are not counted. *)
let test_ops_from_spans () =
  let scope = Scope.make ~engine_id:0 () and other = Scope.make ~engine_id:0 () in
  let op attrs name f =
    let sp = Span.start () in
    f ();
    Span.stop ~attrs ~name sp
  in
  let ops, () =
    Smp_sim.traced scope (fun () ->
        op [ ("tag", "wl:genarray"); ("elements", "8"); ("extent", "4"); ("bytes", "64") ] "wl:force"
          (fun () ->
            Span.with_ ~name:"wl:fusion" (fun () -> ignore (Sys.opaque_identity (Array.make 1000 0.0)));
            op [ ("elements", "27"); ("extent", "3") ] "f77:resid" ignore);
        Span.with_ ~name:"driver:run" ignore;
        Scope.with_scope other (fun () -> op [ ("extent", "2") ] "f77:comm3" ignore))
  in
  Alcotest.(check bool) "spans off again" false (Span.enabled ());
  Alcotest.(check (list (pair string (pair int (pair int int)))))
    "the solve's ops, in end order"
    [ ("f77:resid", (27, (3, 0))); ("wl:genarray", (8, (4, 64))) ]
    (List.map (fun (o : Smp_sim.op) -> (o.Smp_sim.tag, (o.elements, (o.extent, o.bytes)))) ops);
  let force =
    List.find
      (fun (e : Span.event) ->
        e.Span.name = "wl:force" && match e.Span.scope with Some s -> s == scope | None -> false)
      (Span.events ())
  in
  Alcotest.(check (float 1e-9)) "ops partition the outer op's time"
    (Int64.to_float (Span.duration_ns force) *. 1e-9)
    (Smp_sim.total_seconds ops)

(* A run whose spans a ring overwrote is refused, not simulated. *)
let test_truncated_trace_fails () =
  let scope = Scope.make ~engine_id:0 () in
  Alcotest.(check bool) "raises" true
    (match
       Smp_sim.traced scope (fun () ->
           for _ = 0 to Span.capacity do
             Span.with_ ~attrs:[ ("extent", "1") ] ~name:"op" ignore
           done)
     with
    | _ -> false
    | exception Failure _ -> true);
  (* What a ring lost before a run does not truncate the run. *)
  let ops, () =
    Smp_sim.traced (Scope.make ~engine_id:0 ()) (fun () -> Span.with_ ~attrs:[ ("extent", "1") ] ~name:"op" ignore)
  in
  Alcotest.(check int) "a later run is whole" 1 (List.length ops);
  Span.clear ()

let suite =
  ( "smp_sim",
    [ Alcotest.test_case "p=1 identity" `Quick test_single_processor_identity;
      Alcotest.test_case "ideal linear speedup" `Quick test_ideal_linear_speedup;
      Alcotest.test_case "Amdahl bound" `Quick test_amdahl_bound;
      Alcotest.test_case "small grids stay serial" `Quick test_threshold_keeps_small_grids_serial;
      Alcotest.test_case "overheads add" `Quick test_overheads_add;
      Alcotest.test_case "memory overhead not divided" `Quick test_memory_overhead_not_divided;
      Alcotest.test_case "memory capped" `Quick test_memory_capped_by_measurement;
      Alcotest.test_case "imbalance" `Quick test_imbalance_degrades_efficiency;
      Alcotest.test_case "speedup series" `Quick test_speedup_series_shape;
      Alcotest.test_case "parallel fraction" `Quick test_parallel_fraction;
      Alcotest.test_case "model structural rules" `Quick test_models_structural_rules;
      Alcotest.test_case "models improve at p=2" `Quick test_monotone_in_procs;
      Alcotest.test_case "ops from spans" `Quick test_ops_from_spans;
      Alcotest.test_case "truncated trace fails" `Quick test_truncated_trace_fails;
    ] )
