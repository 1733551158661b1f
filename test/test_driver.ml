open Mg_core

let test_impl_round_trip () =
  List.iter
    (fun impl ->
      let s = Driver.impl_to_string impl in
      Alcotest.(check bool) s true (Driver.impl_of_string s = Some impl))
    [ Driver.Sac; Driver.F77; Driver.C; Driver.Periodic ];
  Alcotest.(check bool) "aliases" true
    (Driver.impl_of_string "Fortran-77" = Some Driver.F77
    && Driver.impl_of_string "OpenMP" = Some Driver.C
    && Driver.impl_of_string "nope" = None)

let test_all_impls_agree_on_tiny () =
  let norms =
    List.map
      (fun impl -> (Driver.run ~impl ~cls:Classes.tiny ()).Driver.rnm2)
      [ Driver.Sac; Driver.F77; Driver.C; Driver.Periodic ]
  in
  match norms with
  | base :: rest ->
      List.iter
        (fun x ->
          Alcotest.(check bool)
            (Printf.sprintf "%.6e vs %.6e" x base)
            true
            (Float.abs ((x -. base) /. base) < 1e-9))
        rest
  | [] -> assert false

(* A solve's ops, summarised: count, per-tag counts, elements, bytes. *)
let summary (ops : Mg_smp.Smp_sim.op list) =
  let tags = List.sort_uniq compare (List.map (fun (op : Mg_smp.Smp_sim.op) -> op.Mg_smp.Smp_sim.tag) ops) in
  ( List.length ops,
    List.map (fun t -> (t, List.length (List.filter (fun (op : Mg_smp.Smp_sim.op) -> op.Mg_smp.Smp_sim.tag = t) ops))) tags,
    List.fold_left (fun acc (op : Mg_smp.Smp_sim.op) -> acc + op.Mg_smp.Smp_sim.elements) 0 ops,
    List.fold_left (fun acc (op : Mg_smp.Smp_sim.op) -> acc + op.Mg_smp.Smp_sim.bytes) 0 ops )

let summary_t = Alcotest.(pair int (pair (list (pair string int)) (pair int int)))
let flat (n, tags, elts, bytes) = (n, (tags, (elts, bytes)))

let low_level prefix =
  ( 130,
    List.map (fun (r, k) -> (prefix ^ r, k))
      [ ("comm3", 57); ("interp", 16); ("psinv", 20); ("resid", 21); ("rprj3", 16) ],
    736128,
    0 )

(* The simulator's input at class S: what the per-operation trace of
   the implementations recorded before spans became its only record.
   SAC's bytes depend on the buffer-reuse pass (an in-place result
   allocates nothing). *)
let test_trace_collection () =
  let reuse = (Mg_withloop.Engine.config (Mg_withloop.Engine.current ())).Mg_withloop.Engine.reuse in
  List.iter
    (fun (impl, expected) ->
      let r = Driver.traced_run ~impl ~cls:Classes.class_s in
      Alcotest.check summary_t (Driver.impl_to_string impl ^ " ops") (flat expected)
        (flat (summary r.Driver.ops));
      (* Self times are positive and stay within the run's wall time. *)
      let total = Mg_smp.Smp_sim.total_seconds r.Driver.ops in
      Alcotest.(check bool) "total positive" true (total > 0.0);
      Alcotest.(check bool) "no op time is negative" true
        (List.for_all (fun (op : Mg_smp.Smp_sim.op) -> op.Mg_smp.Smp_sim.seconds >= 0.0) r.Driver.ops))
    [ ( Driver.Sac,
        ( 187,
          [ ("wl:genarray", 66); ("wl:modarray", 121) ],
          1030460,
          if reuse then 5949056 else 8728960 ) );
      (Driver.F77, low_level "f77:");
      (Driver.C, low_level "c:");
    ]

(* Spans are switched on globally while a solve is traced, and another
   domain's solve records its own: the traced solve's ops must be its
   own, the same as when it runs alone — whether the other domain
   solves F77 untraced or traces SAC solves of its own (whose ops must
   equal the solo run's too: one session ending must not switch the
   other's spans off). *)
let test_concurrent_traced_run () =
  let sac () = summary (Driver.traced_run ~impl:Driver.Sac ~cls:Classes.class_s).Driver.ops in
  let solo = sac () in
  List.iter
    (fun (what, other_solve) ->
      let e = Mg_withloop.Engine.create () in
      Fun.protect
        ~finally:(fun () -> Mg_withloop.Engine.shutdown e)
        (fun () ->
          let stop = Atomic.make false in
          let other =
            Domain.spawn (fun () ->
                let solves = ref [] in
                while not (Atomic.get stop) || !solves = [] do
                  solves := other_solve e :: !solves
                done;
                !solves)
          in
          let traced =
            Fun.protect ~finally:(fun () -> Atomic.set stop true) (fun () -> List.init 3 (fun _ -> sac ()))
          in
          List.iter (fun t -> Alcotest.check summary_t (what ^ ": concurrent = solo") (flat solo) (flat t)) traced;
          List.iter
            (function
              | Some t -> Alcotest.check summary_t (what ^ ": the other domain's own ops") (flat solo) (flat t)
              | None -> ())
            (Domain.join other)))
    [ ("untraced F77", fun e -> ignore (Driver.run ~engine:e ~impl:Driver.F77 ~cls:Classes.class_s ()); None);
      ( "traced SAC",
        fun e ->
          Some (summary (Driver.run ~engine:e ~threads:1 ~trace:true ~impl:Driver.Sac ~cls:Classes.class_s ()).Driver.ops)
      );
    ]

let test_untraced_has_no_events () =
  let r = Driver.run ~impl:Driver.F77 ~cls:Classes.tiny () in
  Alcotest.(check int) "no events" 0 (List.length r.Driver.ops)

(* Driver.run derives a one-shot engine per call: its overrides must
   be invisible to the caller's configuration afterwards. *)
let test_config_isolated () =
  let open Mg_withloop in
  let cfg () = Engine.config (Engine.current ()) in
  let before = cfg () in
  ignore (Driver.run ~opt:Engine.O1 ~threads:2 ~impl:Driver.Sac ~cls:Classes.tiny ());
  Alcotest.(check string) "opt untouched"
    (Engine.opt_level_to_string before.Engine.opt_level)
    (Engine.opt_level_to_string (cfg ()).Engine.opt_level);
  Alcotest.(check int) "threads untouched" before.Engine.threads (cfg ()).Engine.threads

let test_schedule_determinism () =
  let r1 = Driver.run ~impl:Driver.F77 ~cls:Classes.mini () in
  let r2 = Driver.run ~impl:Driver.F77 ~cls:Classes.mini () in
  Alcotest.(check (float 0.0)) "bitwise deterministic" r1.Driver.rnm2 r2.Driver.rnm2

let suite =
  ( "driver",
    [ Alcotest.test_case "impl round trip" `Quick test_impl_round_trip;
      Alcotest.test_case "all four impls agree (tiny)" `Quick test_all_impls_agree_on_tiny;
      Alcotest.test_case "trace collection" `Quick test_trace_collection;
      Alcotest.test_case "untraced has no events" `Quick test_untraced_has_no_events;
      Alcotest.test_case "concurrent traced run" `Quick test_concurrent_traced_run;
      Alcotest.test_case "caller config isolated" `Quick test_config_isolated;
      Alcotest.test_case "deterministic" `Quick test_schedule_determinism;
    ] )
