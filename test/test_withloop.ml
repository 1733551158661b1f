open Mg_ndarray
open Mg_withloop
module E = Wl.Expr

let check_float = Alcotest.(check (float 1e-12))

let nd_testable = Alcotest.testable Ndarray.pp (Ndarray.equal ~eps:1e-12)

let all_levels f =
  List.iter
    (fun l -> Wl.with_config (fun c -> { c with Engine.opt_level = l }) (fun () -> f (Engine.opt_level_to_string l)))
    [ Engine.O0; Engine.O1; Engine.O2; Engine.O3 ]

let test_genarray_const () =
  all_levels (fun lvl ->
      let a = Wl.force (Wl.genarray [| 2; 3 |] [ (Generator.full [| 2; 3 |], E.const 7.0) ]) in
      Alcotest.check nd_testable lvl (Ndarray.fill_value [| 2; 3 |] 7.0) a)

let test_genarray_default () =
  all_levels (fun lvl ->
      let shp = [| 5 |] in
      let part = (Generator.make ~lb:[| 1 |] ~ub:[| 4 |] (), E.const 1.0) in
      let a = Wl.force (Wl.genarray ~default:9.0 shp [ part ]) in
      Alcotest.check nd_testable lvl (Ndarray.of_array1 [| 9.0; 1.0; 1.0; 1.0; 9.0 |]) a)

let test_genarray_indexed () =
  all_levels (fun lvl ->
      let shp = [| 3; 3 |] in
      let src = Ndarray.init shp (fun iv -> float_of_int ((10 * iv.(0)) + iv.(1))) in
      let a =
        Wl.force
          (Wl.genarray shp
             [ (Generator.full shp, E.read (Wl.of_ndarray src)) ])
      in
      Alcotest.check nd_testable lvl src a)

let test_modarray () =
  all_levels (fun lvl ->
      let base = Ndarray.fill_value [| 4; 4 |] 1.0 in
      let gen = Generator.interior [| 4; 4 |] 1 in
      let a = Wl.force (Wl.modarray (Wl.of_ndarray base) [ (gen, E.const 5.0) ]) in
      let expected =
        Ndarray.init [| 4; 4 |] (fun iv -> if Generator.mem gen iv then 5.0 else 1.0)
      in
      Alcotest.check nd_testable lvl expected a)

let test_strided_part () =
  all_levels (fun lvl ->
      let shp = [| 6 |] in
      let gen = Generator.make ~step:[| 2 |] ~lb:[| 0 |] ~ub:shp () in
      let a = Wl.force (Wl.genarray ~default:0.0 shp [ (gen, E.const 1.0) ]) in
      Alcotest.check nd_testable lvl (Ndarray.of_array1 [| 1.0; 0.0; 1.0; 0.0; 1.0; 0.0 |]) a)

let test_multi_part () =
  all_levels (fun lvl ->
      let shp = [| 6 |] in
      let p1 = (Generator.make ~lb:[| 0 |] ~ub:[| 2 |] (), E.const 1.0) in
      let p2 = (Generator.make ~lb:[| 4 |] ~ub:[| 6 |] (), E.const 2.0) in
      let a = Wl.force (Wl.genarray ~default:(-1.0) shp [ p1; p2 ]) in
      Alcotest.check nd_testable lvl
        (Ndarray.of_array1 [| 1.0; 1.0; -1.0; -1.0; 2.0; 2.0 |])
        a)

let test_stencil_body () =
  all_levels (fun lvl ->
      let shp = [| 8 |] in
      let src = Ndarray.init shp (fun iv -> float_of_int iv.(0)) in
      let s = Wl.of_ndarray src in
      let gen = Generator.interior shp 1 in
      let body = E.(const 0.5 * read_offset s [| -1 |] + const 0.5 * read_offset s [| 1 |]) in
      let a = Wl.force (Wl.modarray s [ (gen, body) ]) in
      (* Average of neighbours of a linear ramp is the ramp itself. *)
      Alcotest.check nd_testable lvl src a)

let test_opaque_body () =
  all_levels (fun lvl ->
      let shp = [| 4; 4 |] in
      let body = E.of_fun (fun iv -> float_of_int (iv.(0) * iv.(1))) in
      let a = Wl.force (Wl.genarray shp [ (Generator.full shp, body) ]) in
      let expected = Ndarray.init shp (fun iv -> float_of_int (iv.(0) * iv.(1))) in
      Alcotest.check nd_testable lvl expected a)

let test_arith_expr () =
  all_levels (fun lvl ->
      let shp = [| 5 |] in
      let x = Wl.of_ndarray (Ndarray.init shp (fun iv -> float_of_int iv.(0))) in
      let body = E.(sqrt (read x * read x) + const 1.0 - neg (const 1.0)) in
      let a = Wl.force (Wl.genarray shp [ (Generator.full shp, body) ]) in
      let expected = Ndarray.init shp (fun iv -> float_of_int iv.(0) +. 2.0) in
      Alcotest.check nd_testable lvl expected a)

let test_fold_sum () =
  all_levels (fun lvl ->
      let shp = [| 10 |] in
      let x = Wl.of_ndarray (Ndarray.init shp (fun iv -> float_of_int iv.(0))) in
      let s = Wl.fold ~op:Exec.Fadd ~neutral:0.0 (Generator.full shp) (E.read x) in
      check_float lvl 45.0 s)

let test_fold_over_subrange () =
  let shp = [| 10 |] in
  let x = Wl.of_ndarray (Ndarray.init shp (fun iv -> float_of_int iv.(0))) in
  let gen = Generator.make ~step:[| 2 |] ~lb:[| 1 |] ~ub:[| 10 |] () in
  let s = Wl.fold ~op:Exec.Fadd ~neutral:0.0 gen (E.read x) in
  check_float "odd sum" 25.0 s

let test_fold_max_min () =
  let shp = [| 3; 3 |] in
  let x = Wl.of_ndarray (Ndarray.init shp (fun iv -> float_of_int ((iv.(0) * 3) + iv.(1)))) in
  check_float "max" 8.0 (Wl.fold ~op:Exec.Fmax ~neutral:Float.neg_infinity (Generator.full shp) (E.read x));
  check_float "min" 0.0 (Wl.fold ~op:Exec.Fmin ~neutral:Float.infinity (Generator.full shp) (E.read x))

let test_fold_nonlinear_body () =
  let shp = [| 4 |] in
  let x = Wl.of_ndarray (Ndarray.of_array1 [| 1.0; 2.0; 3.0; 4.0 |]) in
  let s = Wl.fold ~op:Exec.Fadd ~neutral:0.0 (Generator.full shp) E.(read x * read x) in
  check_float "sum of squares" 30.0 s

let test_force_idempotent () =
  let shp = [| 3 |] in
  let node = Wl.genarray shp [ (Generator.full shp, E.const 1.0) ] in
  let a = Wl.force node and b = Wl.force node in
  Alcotest.(check bool) "same physical array" true (a == b)

let test_rank_generic () =
  (* The same code runs on rank 1, 2, 3 and 4 arrays. *)
  List.iter
    (fun shp ->
      let x = Wl.of_ndarray (Ndarray.fill_value shp 2.0) in
      let a = Wl.force (Wl.genarray shp [ (Generator.full shp, E.(read x * read x)) ]) in
      Alcotest.check nd_testable (Shape.to_string shp) (Ndarray.fill_value shp 4.0) a)
    [ [| 5 |]; [| 3; 4 |]; [| 2; 3; 4 |]; [| 2; 2; 2; 2 |] ]

let test_parallel_matches_sequential () =
  let shp = [| 32; 32 |] in
  let src = Ndarray.init shp (fun iv -> float_of_int ((iv.(0) * 31) + (7 * iv.(1)))) in
  let make () =
    let s = Wl.of_ndarray src in
    let gen = Generator.interior shp 1 in
    Wl.force
      (Wl.modarray s
         [ (gen, E.(read_offset s [| -1; 0 |] + read_offset s [| 1; 0 |] + read_offset s [| 0; -1 |]
                    + read_offset s [| 0; 1 |] - const 4.0 * read s)) ])
  in
  let seq = make () in
  let par = Wl.with_config (fun c -> { c with Engine.threads = 2; par_threshold = 16 }) make in
  Alcotest.check nd_testable "parallel = sequential" seq par

let test_out_of_bounds_read_rejected () =
  let shp = [| 4 |] in
  let x = Wl.of_ndarray (Ndarray.create shp) in
  (* Reading iv+1 over the full index space escapes the source. *)
  let node = Wl.genarray shp [ (Generator.full shp, E.read_offset x [| 1 |]) ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Wl.force node);
       false
     with _ -> true)

let suite =
  ( "withloop",
    [ Alcotest.test_case "genarray const" `Quick test_genarray_const;
      Alcotest.test_case "genarray default" `Quick test_genarray_default;
      Alcotest.test_case "genarray indexed" `Quick test_genarray_indexed;
      Alcotest.test_case "modarray" `Quick test_modarray;
      Alcotest.test_case "strided part" `Quick test_strided_part;
      Alcotest.test_case "multiple parts" `Quick test_multi_part;
      Alcotest.test_case "stencil body" `Quick test_stencil_body;
      Alcotest.test_case "opaque body" `Quick test_opaque_body;
      Alcotest.test_case "arithmetic expressions" `Quick test_arith_expr;
      Alcotest.test_case "fold sum" `Quick test_fold_sum;
      Alcotest.test_case "fold over subrange" `Quick test_fold_over_subrange;
      Alcotest.test_case "fold max/min" `Quick test_fold_max_min;
      Alcotest.test_case "fold nonlinear body" `Quick test_fold_nonlinear_body;
      Alcotest.test_case "force idempotent" `Quick test_force_idempotent;
      Alcotest.test_case "rank generic" `Quick test_rank_generic;
      Alcotest.test_case "parallel matches sequential" `Quick test_parallel_matches_sequential;
      Alcotest.test_case "out-of-bounds read rejected" `Quick test_out_of_bounds_read_rejected;
    ] )
