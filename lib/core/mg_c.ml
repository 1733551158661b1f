open Mg_ndarray
module Span = Mg_obs.Span

let idx m i3 i2 i1 = ((i3 * m) + i2) * m + i1

let cube_extent (g : Ndarray.t) =
  let shp = Ndarray.shape g in
  assert (Shape.rank shp = 3 && shp.(0) = shp.(1) && shp.(1) = shp.(2));
  shp.(0)

let comm3_body (g : Ndarray.t) =
  let m = cube_extent g in
  let n = m - 2 in
  let b = g.Ndarray.data in
  for i3 = 1 to n do
    for i2 = 1 to n do
      let row = idx m i3 i2 0 in
      Bigarray.Array1.unsafe_set b row (Bigarray.Array1.unsafe_get b (row + n));
      Bigarray.Array1.unsafe_set b (row + n + 1) (Bigarray.Array1.unsafe_get b (row + 1))
    done
  done;
  for i3 = 1 to n do
    for i1 = 0 to m - 1 do
      Bigarray.Array1.unsafe_set b (idx m i3 0 i1) (Bigarray.Array1.unsafe_get b (idx m i3 n i1));
      Bigarray.Array1.unsafe_set b (idx m i3 (n + 1) i1)
        (Bigarray.Array1.unsafe_get b (idx m i3 1 i1))
    done
  done;
  for i2 = 0 to m - 1 do
    for i1 = 0 to m - 1 do
      Bigarray.Array1.unsafe_set b (idx m 0 i2 i1) (Bigarray.Array1.unsafe_get b (idx m n i2 i1));
      Bigarray.Array1.unsafe_set b (idx m (n + 1) i2 i1)
        (Bigarray.Array1.unsafe_get b (idx m 1 i2 i1))
    done
  done

let comm3 g =
  let sp = Span.start () in
  comm3_body g;
  Schedule.loop_span sp "c:comm3" ~surface:true g

(* Neighbour sums recomputed per element (no line-buffer sharing).
   Each takes the flat index of the element and the plane stride
   [sp = m*m] / row stride [sr = m].  [@inline always] is essential:
   an outlined call per element with a boxed float return would
   dominate the kernels. *)

let[@inline always] face_sum (b : Ndarray.buffer) p sr sp =
  Bigarray.Array1.unsafe_get b (p - 1)
  +. Bigarray.Array1.unsafe_get b (p + 1)
  +. Bigarray.Array1.unsafe_get b (p - sr)
  +. Bigarray.Array1.unsafe_get b (p + sr)
  +. Bigarray.Array1.unsafe_get b (p - sp)
  +. Bigarray.Array1.unsafe_get b (p + sp)

let[@inline always] edge_sum (b : Ndarray.buffer) p sr sp =
  Bigarray.Array1.unsafe_get b (p - sr - 1)
  +. Bigarray.Array1.unsafe_get b (p - sr + 1)
  +. Bigarray.Array1.unsafe_get b (p + sr - 1)
  +. Bigarray.Array1.unsafe_get b (p + sr + 1)
  +. Bigarray.Array1.unsafe_get b (p - sp - 1)
  +. Bigarray.Array1.unsafe_get b (p - sp + 1)
  +. Bigarray.Array1.unsafe_get b (p + sp - 1)
  +. Bigarray.Array1.unsafe_get b (p + sp + 1)
  +. Bigarray.Array1.unsafe_get b (p - sp - sr)
  +. Bigarray.Array1.unsafe_get b (p - sp + sr)
  +. Bigarray.Array1.unsafe_get b (p + sp - sr)
  +. Bigarray.Array1.unsafe_get b (p + sp + sr)

let[@inline always] corner_sum (b : Ndarray.buffer) p sr sp =
  Bigarray.Array1.unsafe_get b (p - sp - sr - 1)
  +. Bigarray.Array1.unsafe_get b (p - sp - sr + 1)
  +. Bigarray.Array1.unsafe_get b (p - sp + sr - 1)
  +. Bigarray.Array1.unsafe_get b (p - sp + sr + 1)
  +. Bigarray.Array1.unsafe_get b (p + sp - sr - 1)
  +. Bigarray.Array1.unsafe_get b (p + sp - sr + 1)
  +. Bigarray.Array1.unsafe_get b (p + sp + sr - 1)
  +. Bigarray.Array1.unsafe_get b (p + sp + sr + 1)

let resid_body ~(u : Ndarray.t) ~(v : Ndarray.t) ~(r : Ndarray.t) ~(a : float array) =
  let m = cube_extent u in
  let n = m - 2 in
  let ub = u.Ndarray.data and vb = v.Ndarray.data and rb = r.Ndarray.data in
  let sr = m and sp = m * m in
  let a0 = a.(0) and a2 = a.(2) and a3 = a.(3) in
  for i3 = 1 to n do
    for i2 = 1 to n do
      let row = idx m i3 i2 0 in
      for i1 = 1 to n do
        let p = row + i1 in
        Bigarray.Array1.unsafe_set rb p
          (Bigarray.Array1.unsafe_get vb p
          -. (a0 *. Bigarray.Array1.unsafe_get ub p)
          -. (a2 *. edge_sum ub p sr sp)
          -. (a3 *. corner_sum ub p sr sp))
      done
    done
  done

let resid ~u ~v ~r ~a =
  let sp = Span.start () in
  resid_body ~u ~v ~r ~a;
  Schedule.loop_span sp "c:resid" ~surface:false u;
  comm3 r

let psinv_body ~(r : Ndarray.t) ~(u : Ndarray.t) ~(c : float array) =
  let m = cube_extent r in
  let n = m - 2 in
  let rb = r.Ndarray.data and ub = u.Ndarray.data in
  let sr = m and sp = m * m in
  let c0 = c.(0) and c1 = c.(1) and c2 = c.(2) in
  for i3 = 1 to n do
    for i2 = 1 to n do
      let row = idx m i3 i2 0 in
      for i1 = 1 to n do
        let p = row + i1 in
        Bigarray.Array1.unsafe_set ub p
          (Bigarray.Array1.unsafe_get ub p
          +. (c0 *. Bigarray.Array1.unsafe_get rb p)
          +. (c1 *. face_sum rb p sr sp)
          +. (c2 *. edge_sum rb p sr sp))
      done
    done
  done

let psinv ~r ~u ~c =
  let sp = Span.start () in
  psinv_body ~r ~u ~c;
  Schedule.loop_span sp "c:psinv" ~surface:false r;
  comm3 u

let rprj3_body ~(fine : Ndarray.t) ~(coarse : Ndarray.t) =
  let mk = cube_extent fine and mj = cube_extent coarse in
  assert (mk = (2 * mj) - 2);
  let rb = fine.Ndarray.data and sb = coarse.Ndarray.data in
  let sr = mk and sp = mk * mk in
  for j3 = 1 to mj - 2 do
    for j2 = 1 to mj - 2 do
      for j1 = 1 to mj - 2 do
        let p = idx mk (2 * j3) (2 * j2) (2 * j1) in
        Bigarray.Array1.unsafe_set sb (idx mj j3 j2 j1)
          ((0.5 *. Bigarray.Array1.unsafe_get rb p)
          +. (0.25 *. face_sum rb p sr sp)
          +. (0.125 *. edge_sum rb p sr sp)
          +. (0.0625 *. corner_sum rb p sr sp))
      done
    done
  done

let rprj3 ~fine ~coarse =
  let sp = Span.start () in
  rprj3_body ~fine ~coarse;
  Schedule.loop_span sp "c:rprj3" ~surface:false coarse;
  comm3 coarse

let interp_body ~(coarse : Ndarray.t) ~(fine : Ndarray.t) =
  let mm = cube_extent coarse and n = cube_extent fine in
  assert (n = (2 * mm) - 2);
  let zb = coarse.Ndarray.data and ub = fine.Ndarray.data in
  let zr = mm and zp = mm * mm in
  let add p v = Bigarray.Array1.unsafe_set ub p (Bigarray.Array1.unsafe_get ub p +. v) in
  let g p = Bigarray.Array1.unsafe_get zb p in
  for o3 = 0 to mm - 2 do
    for o2 = 0 to mm - 2 do
      for o1 = 0 to mm - 2 do
        let z = idx mm o3 o2 o1 in
        let f3 = 2 * o3 and f2 = 2 * o2 and f1 = 2 * o1 in
        add (idx n f3 f2 f1) (g z);
        add (idx n f3 f2 (f1 + 1)) (0.5 *. (g z +. g (z + 1)));
        add (idx n f3 (f2 + 1) f1) (0.5 *. (g z +. g (z + zr)));
        add (idx n f3 (f2 + 1) (f1 + 1))
          (0.25 *. (g z +. g (z + 1) +. g (z + zr) +. g (z + zr + 1)));
        add (idx n (f3 + 1) f2 f1) (0.5 *. (g z +. g (z + zp)));
        add (idx n (f3 + 1) f2 (f1 + 1))
          (0.25 *. (g z +. g (z + 1) +. g (z + zp) +. g (z + zp + 1)));
        add (idx n (f3 + 1) (f2 + 1) f1)
          (0.25 *. (g z +. g (z + zr) +. g (z + zp) +. g (z + zp + zr)));
        add (idx n (f3 + 1) (f2 + 1) (f1 + 1))
          (0.125
          *. (g z +. g (z + 1) +. g (z + zr) +. g (z + zr + 1) +. g (z + zp)
             +. g (z + zp + 1)
             +. g (z + zp + zr)
             +. g (z + zp + zr + 1)))
      done
    done
  done

let interp ~coarse ~fine =
  let sp = Span.start () in
  interp_body ~coarse ~fine;
  Schedule.loop_span sp "c:interp" ~surface:false fine

let routines = { Schedule.impl_name = "c"; resid; psinv; rprj3; interp }

let run cls = Schedule.run routines cls

let residual_norms cls = Schedule.residual_norms routines cls
