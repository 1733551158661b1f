(* Solving the discrete Poisson equation with the paper's multigrid —
   the core library used the way a downstream application would use it.

     dune exec examples/poisson_convergence.exe [-- n iters]

   Sets up the NAS-MG charge distribution on an n^3 periodic grid and
   runs V-cycles one at a time, printing the residual L2 norm after
   each: classical multigrid convergence, about one order of magnitude
   per cycle, independent of the grid size. *)

open Mg_withloop
open Mg_arraylib
open Mg_core

let solve ~n ~iters =
  let v = Wl.of_ndarray (Zran3.generate ~n) in
  let u = ref (Ops.genarray_const (Wl.shape v) 0.0) in
  let residual_norm u =
    let r = Wl.force (Ops.sub v (Mg_sac.resid Stencil.a u)) in
    fst (Verify.norm2u3 r ~n)
  in
  Format.printf "   cycle    ||r||_2        reduction@.";
  let r0 = residual_norm !u in
  Format.printf "   %5d    %.6e      -@." 0 r0;
  let prev = ref r0 in
  for it = 1 to iters do
    let r = Ops.sub v (Mg_sac.resid Stencil.a !u) in
    u := Wl.of_ndarray (Wl.force (Ops.add !u (Mg_sac.v_cycle ~smoother:Stencil.s_a r)));
    let rn = residual_norm !u in
    Format.printf "   %5d    %.6e      %.3f@." it rn (rn /. !prev);
    prev := rn
  done;
  !prev

let () =
  let n = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 32 in
  let iters = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 8 in
  Format.printf "Poisson solve on a %d^3 periodic grid, %d V-cycles@.@." n iters;
  let final = solve ~n ~iters in
  Format.printf "@.final residual: %.6e@." final;
  (* Grid-independence of the convergence rate: repeat at half size. *)
  Format.printf "@.Same solve at %d^3 (multigrid converges at a grid-independent rate):@.@."
    (n / 2);
  ignore (solve ~n:(n / 2) ~iters)
