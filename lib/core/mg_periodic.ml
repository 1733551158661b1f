open Mg_ndarray
open Mg_withloop
open Mg_arraylib
module Clock = Mg_smp.Clock

(* Periodic stencil application as a linear combination of rotations:
   rotate d a holds u((x - d) mod n) at x, so the neighbour at offset d
   is rotate (-d) a.  Offsets are visited in Stencil.offsets order,
   keeping the summation order of the border-based implementation. *)
let relax coeffs a =
  let rank = Wl.rank a in
  List.fold_left
    (fun acc (d, cls) ->
      let c = Stencil.coeff coeffs cls in
      let term = Ops.mul_scalar (Select.rotate (Shape.scale (-1) d) a) c in
      match acc with None -> Some term | Some s -> Some (Ops.add s term))
    None (Stencil.offsets rank)
  |> Option.get

let resid u = relax Stencil.a u
let smooth coeffs r = relax coeffs r

(* NPB anchors coarse point j at fine point 2j+1 (0-based interior
   coordinates); a unit rotation before condensing / after scattering
   reproduces that alignment on bare grids, and both rotations are
   selections the optimiser folds away. *)
let fine2coarse r =
  let rank = Wl.rank r in
  Select.condense 2 (Select.rotate (Shape.replicate rank (-1)) (relax Stencil.p r))

let coarse2fine zn =
  let rank = Wl.rank zn in
  relax Stencil.q (Select.rotate (Shape.replicate rank 1) (Select.scatter 2 zn))

let rec v_cycle ~smoother r =
  if (Wl.shape r).(0) > 2 then begin
    let rn = fine2coarse r in
    let zn = v_cycle ~smoother rn in
    let z = coarse2fine zn in
    let r = Ops.sub r (resid z) in
    Ops.add z (smooth smoother r)
  end
  else smooth smoother r

(* The same stepper as [Mg_sac.m_grid]'s, one per smoother for the
   life of the program; the rotation and level temporaries return to
   the pool at their last use. *)
let stepper =
  Stencil.memo (fun smoother ->
      Wl.staged (fun params u ->
          let r = Ops.sub params.(0) (resid u) in
          Ops.add u (v_cycle ~smoother r)))

let m_grid ~smoother ~v ~iter =
  let step = stepper smoother in
  let u = ref (Wl.materialize (Ops.genarray_const (Wl.shape v) 0.0)) in
  for _ = 1 to iter do
    u := step [| v |] !u
  done;
  !u

let run (cls : Classes.t) =
  let stage = Mg_obs.Scope.time_stage in
  let n = cls.Classes.nx in
  let v = stage "init" (fun () -> Wl.of_ndarray (Zran3.generate_compact ~n)) in
  let smoother = Classes.smoother_coeffs cls in
  let t0 = Clock.now () in
  let u = stage "iterate" (fun () -> m_grid ~smoother ~v ~iter:cls.Classes.nit) in
  stage "residual" (fun () ->
      Wl.read (Ops.sub v (resid u)) (fun r ->
          let dt = Clock.now () -. t0 in
          (* norm2u3 over the whole (border-free) grid. *)
          let s = Ndarray.fold (fun acc x -> acc +. (x *. x)) 0.0 r in
          let dn = float_of_int n ** 3.0 in
          (Float.sqrt (s /. dn), dt)))
