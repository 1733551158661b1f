(* With-loop folding: O2/O3 results must equal the unoptimised O0
   pipeline, and fusion must actually eliminate materialisations
   (checked through the operation trace). *)

open Mg_ndarray
open Mg_withloop
open Mg_arraylib
module E = Wl.Expr
module Trace = Mg_smp.Trace


let nd_exact = Alcotest.testable Ndarray.pp (Ndarray.equal ~eps:0.0)

(* Folding and factoring legitimately reassociate floating-point sums
   and products, so optimised results are compared with an absolute
   tolerance scaled to the O(10) test data. *)
let nd = Alcotest.testable Ndarray.pp (fun a b -> Ndarray.max_abs_diff a b < 1e-10)

let ramp shp = Ndarray.init shp (fun iv -> float_of_int (Shape.ravel ~shape:shp iv + 1) /. 7.0)

(* A 9-point 2-D relaxation, paper-style: border setup + fixed-boundary
   stencil as a modarray. *)
let relax coeffs a =
  let shp = Wl.shape a in
  let gen = Generator.interior shp 1 in
  let body =
    List.fold_left
      (fun acc (dy, dx, c) -> E.(acc + (const c * read_offset a [| dy; dx |])))
      (E.const 0.0) coeffs
  in
  Wl.modarray a [ (gen, body) ]

let star = [ (0, 0, 0.5); (-1, 0, 0.125); (1, 0, 0.125); (0, -1, 0.125); (0, 1, 0.125) ]

(* The suite's grids are tiny; disable the size heuristic so the
   splitting machinery itself is exercised.  Scoped per run rather than
   set at module load: a toplevel assignment would leak into every
   other suite linked into the same binary and perturb their
   clustering, breaking the bitwise golden-vector tests. *)
let at_level l f = Wl.with_config (fun c -> { c with Engine.split_threshold = 0; opt_level = l }) f

let run_pipeline () =
  (* condense . relax — the Fine2Coarse shape. *)
  let a = ramp [| 10; 10 |] in
  Wl.force (Select.condense 2 (relax star (Wl.of_ndarray a)))

let test_condense_relax_equivalence () =
  let r0 = at_level Engine.O0 run_pipeline in
  let r2 = at_level Engine.O2 run_pipeline in
  let r3 = at_level Engine.O3 run_pipeline in
  Alcotest.check nd "O2 = O0" r0 r2;
  Alcotest.check nd "O3 = O0" r0 r3

let count_wl_events f =
  Trace.with_collector f |> fst
  |> List.filter (fun ev -> String.length ev.Trace.tag >= 3 && String.sub ev.Trace.tag 0 3 = "wl:")
  |> List.length

let test_condense_relax_fuses () =
  let n0 = count_wl_events (fun () -> ignore (at_level Engine.O0 run_pipeline)) in
  let n2 = count_wl_events (fun () -> ignore (at_level Engine.O2 run_pipeline)) in
  Alcotest.(check bool)
    (Printf.sprintf "fewer materialisations (O0=%d, O2=%d)" n0 n2)
    true (n2 < n0)

let scatter_pipeline () =
  (* relax . take . scatter — the Coarse2Fine shape, needs residue
     splitting at O3. *)
  let a = ramp [| 5; 5 |] in
  let s = Select.scatter 2 (Wl.of_ndarray a) in
  let t = Select.take [| 9; 9 |] s in
  Wl.force (relax star t)

let test_scatter_relax_equivalence () =
  let r0 = at_level Engine.O0 scatter_pipeline in
  let r2 = at_level Engine.O2 scatter_pipeline in
  let r3 = at_level Engine.O3 scatter_pipeline in
  Alcotest.check nd "O2 = O0" r0 r2;
  Alcotest.check nd "O3 = O0" r0 r3

let test_elementwise_chain_fuses () =
  let make () =
    let a = Wl.of_ndarray (ramp [| 16; 16 |]) in
    let b = Wl.of_ndarray (ramp [| 16; 16 |]) in
    Wl.force (Ops.add (Ops.mul_scalar a 2.0) (Ops.neg b))
  in
  let r0 = at_level Engine.O0 make in
  let r3 = at_level Engine.O3 make in
  Alcotest.check nd "values" r0 r3;
  let n3 = count_wl_events (fun () -> ignore (at_level Engine.O3 make)) in
  Alcotest.(check int) "single loop at O3" 1 n3

let test_sub_relax_fusion () =
  (* v - relax(u): the paper's residual shape. *)
  let make () =
    let v = Wl.of_ndarray (ramp [| 8; 8 |]) in
    let u = Wl.of_ndarray (ramp [| 8; 8 |]) in
    Wl.force (Ops.sub v (relax star u))
  in
  let r0 = at_level Engine.O0 make in
  let r3 = at_level Engine.O3 make in
  Alcotest.check nd "values" r0 r3

let test_embed_default_region () =
  (* Reading an embed's outside region must yield the default, fused or
     not. *)
  let make () =
    let a = Wl.of_ndarray (ramp [| 3 |]) in
    let e = Select.embed [| 8 |] [| 2 |] a in
    (* Shifted reads straddle inside/outside of the embedded block. *)
    let shp = [| 6 |] in
    Wl.force (Wl.genarray shp [ (Generator.full shp, E.(read_offset e [| 1 |] + read_offset e [| 0 |])) ])
  in
  let r0 = at_level Engine.O0 make in
  let r3 = at_level Engine.O3 make in
  Alcotest.check nd_exact "values" r0 r3

let test_modarray_base_fallthrough () =
  (* Consumer reads both a modarray's part region and its base region. *)
  let make () =
    let base = Wl.of_ndarray (ramp [| 9 |]) in
    let m =
      Wl.modarray base [ (Generator.make ~lb:[| 3 |] ~ub:[| 6 |] (), E.(const 2.0 * read base)) ]
    in
    Wl.force (Wl.genarray [| 7 |] [ (Generator.full [| 7 |], E.(read_offset m [| 1 |])) ])
  in
  let r0 = at_level Engine.O0 make in
  let r3 = at_level Engine.O3 make in
  Alcotest.check nd_exact "values" r0 r3

let test_barrier_not_fused () =
  let make () =
    let a = Wl.of_ndarray (ramp [| 8; 8 |]) in
    let b = Border.setup_periodic_border a in
    Wl.force (Select.take [| 4; 4 |] b)
  in
  (* The barrier node must appear as its own materialisation even at O3. *)
  let n3 = count_wl_events (fun () -> ignore (at_level Engine.O3 make)) in
  Alcotest.(check bool) "barrier materialised" true (n3 >= 2)

let test_shared_node_materialised_once () =
  (* An expensive node read by two consumers must not be recomputed. *)
  let a = Wl.of_ndarray (ramp [| 12; 12 |]) in
  let r = at_level Engine.O3 (fun () -> relax star a) in
  let c1 = Ops.sub (Wl.of_ndarray (ramp [| 12; 12 |])) r in
  let c2 = Ops.add (Wl.of_ndarray (ramp [| 12; 12 |])) r in
  let events, _ =
    Trace.with_collector (fun () ->
        at_level Engine.O3 (fun () ->
            ignore (Wl.force c1);
            ignore (Wl.force c2)))
  in
  (* relax forced once (cached), plus one loop per consumer. *)
  Alcotest.(check int) "three loops" 3 (List.length events)

let qcheck_random_selection_chains =
  (* Random chains of foldable selections applied to a ramp must agree
     between O0 and O3 exactly. *)
  let op_gen =
    QCheck.Gen.(
      oneof
        [ return `Condense2;
          return `Scatter2;
          return `EmbedPlus2;
          return `TakeMinus1;
          return `ShiftPlus1;
          map (fun c -> `Scale c) (float_range 0.5 2.0);
        ])
  in
  let print_op = function
    | `Condense2 -> "condense2"
    | `Scatter2 -> "scatter2"
    | `EmbedPlus2 -> "embed+2"
    | `TakeMinus1 -> "take-1"
    | `ShiftPlus1 -> "shift+1"
    | `Scale c -> Printf.sprintf "scale%.2f" c
  in
  let apply_op a op =
    let shp = Wl.shape a in
    match op with
    | `Condense2 -> if Array.for_all (fun e -> e >= 2) shp then Select.condense 2 a else a
    | `Scatter2 -> if Shape.num_elements shp <= 256 then Select.scatter 2 a else a
    | `EmbedPlus2 -> Select.embed (Shape.add_scalar shp 2) (Shape.replicate (Shape.rank shp) 1) a
    | `TakeMinus1 ->
        let shp' = Shape.add_scalar shp (-1) in
        if Shape.is_valid shp' && Shape.num_elements shp' > 0 then Select.take shp' a else a
    | `ShiftPlus1 -> Select.shift (Shape.replicate (Shape.rank shp) 1) a
    | `Scale c -> Ops.mul_scalar a c
  in
  QCheck.Test.make ~name:"random selection chains: O3 = O0" ~count:60
    (QCheck.make
       ~print:(fun (ops, _) -> String.concat ";" (List.map print_op ops))
       QCheck.Gen.(pair (list_size (1 -- 5) op_gen) (2 -- 5)))
    (fun (ops, extent) ->
      let shp = [| extent; extent + 1 |] in
      let run () =
        let a = Wl.of_ndarray (ramp shp) in
        Wl.force (List.fold_left apply_op a ops)
      in
      let r0 = at_level Engine.O0 run in
      let r3 = at_level Engine.O3 run in
      (* Chains containing scalar scaling reassociate products. *)
      Ndarray.max_abs_diff r0 r3 < 1e-10)

let qcheck_random_stencils =
  QCheck.Test.make ~name:"random stencils after scatter: O3 = O0" ~count:40
    (QCheck.make
       ~print:(fun coeffs -> String.concat "," (List.map (fun (a, b, c) -> Printf.sprintf "(%d,%d,%.2f)" a b c) coeffs))
       QCheck.Gen.(list_size (1 -- 6) (triple (-1 -- 1) (-1 -- 1) (float_range (-1.0) 1.0))))
    (fun coeffs ->
      let run () =
        let a = Wl.of_ndarray (ramp [| 4; 4 |]) in
        let s = Select.scatter 2 a in
        Wl.force (relax coeffs s)
      in
      let r0 = at_level Engine.O0 run in
      let r3 = at_level Engine.O3 run in
      Ndarray.max_abs_diff r0 r3 < 1e-12)

let suite =
  ( "fusion",
    [ Alcotest.test_case "condense.relax: levels agree" `Quick test_condense_relax_equivalence;
      Alcotest.test_case "condense.relax: fuses" `Quick test_condense_relax_fuses;
      Alcotest.test_case "relax.take.scatter: levels agree" `Quick test_scatter_relax_equivalence;
      Alcotest.test_case "elementwise chain fuses to one loop" `Quick test_elementwise_chain_fuses;
      Alcotest.test_case "v - relax(u) fusion" `Quick test_sub_relax_fusion;
      Alcotest.test_case "embed default region" `Quick test_embed_default_region;
      Alcotest.test_case "modarray base fallthrough" `Quick test_modarray_base_fallthrough;
      Alcotest.test_case "barrier not fused" `Quick test_barrier_not_fused;
      Alcotest.test_case "shared node materialised once" `Quick test_shared_node_materialised_once;
      QCheck_alcotest.to_alcotest qcheck_random_selection_chains;
      QCheck_alcotest.to_alcotest qcheck_random_stencils;
    ] )
