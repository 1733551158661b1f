open Mg_ndarray
open Mg_withloop
open Mg_arraylib
module Clock = Mg_smp.Clock

let relax_kernel coeffs a =
  let shp = Wl.shape a in
  Wl.modarray a [ (Generator.interior shp 1, Stencil.body coeffs a) ]

let resid coeffs u =
  let u = Border.setup_periodic_border u in
  relax_kernel coeffs u

let smooth coeffs r =
  let r = Border.setup_periodic_border r in
  relax_kernel coeffs r

let fine2coarse r =
  let rs = Border.setup_periodic_border r in
  let rr = relax_kernel Stencil.p rs in
  let rc = Select.condense 2 rr in
  Select.embed (Shape.add_scalar (Wl.shape rc) 1) (Shape.replicate (Wl.rank rc) 0) rc

let coarse2fine rn =
  let rp = Border.setup_periodic_border rn in
  let rs = Select.scatter 2 rp in
  let rt = Select.take (Shape.add_scalar (Wl.shape rs) (-2)) rs in
  relax_kernel Stencil.q rt

let rec v_cycle ~smoother r =
  if (Wl.shape r).(0) > 2 + 2 then begin
    let rn = fine2coarse r in
    let zn = v_cycle ~smoother rn in
    let z = coarse2fine zn in
    let r = Ops.sub r (resid Stencil.a z) in
    Ops.add z (smooth smoother r)
  end
  else smooth smoother r

let m_grid ~smoother ~v ~iter =
  let u = ref (Ops.genarray_const (Wl.shape v) 0.0) in
  for _ = 1 to iter do
    let r = Ops.sub v (resid Stencil.a !u) in
    let u' = Ops.add !u (v_cycle ~smoother r) in
    (* Materialise once per iteration: u is the loop-carried state.
       [materialize] (not [force]) keeps the old iterate eligible for
       the executor's buffer-reuse analysis, so the level buffers
       ping-pong — [u + VCycle r] writes through the dead previous
       iterate's buffer instead of allocating per sweep — and every
       level buffer returns to the pool at its last use. *)
    u := Wl.materialize u'
  done;
  !u

let run (cls : Classes.t) =
  let stage = Mg_obs.Scope.time_stage in
  let n = cls.Classes.nx in
  let v = stage "init" (fun () -> Wl.of_ndarray (Zran3.generate ~n)) in
  let smoother = Classes.smoother_coeffs cls in
  let t0 = Clock.now () in
  let u = stage "iterate" (fun () -> m_grid ~smoother ~v ~iter:cls.Classes.nit) in
  let r = stage "residual" (fun () -> Wl.force (Ops.sub v (resid Stencil.a u))) in
  let dt = Clock.now () -. t0 in
  let rnm2, _ = stage "verify" (fun () -> Verify.norm2u3 r ~n) in
  (rnm2, dt)

(* Per-iteration residual norms (golden-vector tests).  Forcing the
   residual each iteration adds consumer edges on [u] but perturbs no
   value: forces are deterministic and in-place aliasing never changes
   results. *)
let residual_norms (cls : Classes.t) =
  let n = cls.Classes.nx in
  let v = Wl.of_ndarray (Zran3.generate ~n) in
  let smoother = Classes.smoother_coeffs cls in
  let u = ref (Ops.genarray_const (Wl.shape v) 0.0) in
  let norms = Array.make cls.Classes.nit 0.0 in
  for i = 0 to cls.Classes.nit - 1 do
    let r = Ops.sub v (resid Stencil.a !u) in
    let u' = Ops.add !u (v_cycle ~smoother r) in
    u := Wl.materialize u';
    let rr = Wl.force (Ops.sub v (resid Stencil.a !u)) in
    norms.(i) <- fst (Verify.norm2u3 rr ~n)
  done;
  norms
