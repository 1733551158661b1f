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
  Schedule.loop_span sp "f77:comm3" ~surface:true g

let zero3 g = Ndarray.fill g 0.0

(* Line buffers, grown on demand and reused across calls: the static
   memory layout of the Fortran code. *)
let buf1 = ref (Array.make 0 0.0)
let buf2 = ref (Array.make 0 0.0)
let buf3 = ref (Array.make 0 0.0)

let line_buffers m =
  if Array.length !buf1 < m then begin
    buf1 := Array.make m 0.0;
    buf2 := Array.make m 0.0;
    buf3 := Array.make m 0.0
  end;
  (!buf1, !buf2, !buf3)

let resid_body ~(u : Ndarray.t) ~(v : Ndarray.t) ~(r : Ndarray.t) ~(a : float array) =
  let m = cube_extent u in
  let n = m - 2 in
  let ub = u.Ndarray.data and vb = v.Ndarray.data and rb = r.Ndarray.data in
  let u1, u2, _ = line_buffers m in
  let a0 = a.(0) and a2 = a.(2) and a3 = a.(3) in
  (* a.(1) = 0 in the benchmark; like mg.f, the a(1) term is omitted. *)
  for i3 = 1 to n do
    for i2 = 1 to n do
      let p00 = idx m i3 i2 0
      and pm0 = idx m i3 (i2 - 1) 0
      and pp0 = idx m i3 (i2 + 1) 0
      and p0m = idx m (i3 - 1) i2 0
      and p0p = idx m (i3 + 1) i2 0
      and pmm = idx m (i3 - 1) (i2 - 1) 0
      and ppm = idx m (i3 - 1) (i2 + 1) 0
      and pmp = idx m (i3 + 1) (i2 - 1) 0
      and ppp = idx m (i3 + 1) (i2 + 1) 0 in
      for i1 = 0 to m - 1 do
        Array.unsafe_set u1 i1
          (Bigarray.Array1.unsafe_get ub (pm0 + i1)
          +. Bigarray.Array1.unsafe_get ub (pp0 + i1)
          +. Bigarray.Array1.unsafe_get ub (p0m + i1)
          +. Bigarray.Array1.unsafe_get ub (p0p + i1));
        Array.unsafe_set u2 i1
          (Bigarray.Array1.unsafe_get ub (pmm + i1)
          +. Bigarray.Array1.unsafe_get ub (ppm + i1)
          +. Bigarray.Array1.unsafe_get ub (pmp + i1)
          +. Bigarray.Array1.unsafe_get ub (ppp + i1))
      done;
      for i1 = 1 to n do
        Bigarray.Array1.unsafe_set rb (p00 + i1)
          (Bigarray.Array1.unsafe_get vb (p00 + i1)
          -. (a0 *. Bigarray.Array1.unsafe_get ub (p00 + i1))
          -. (a2
             *. (Array.unsafe_get u2 i1 +. Array.unsafe_get u1 (i1 - 1)
                +. Array.unsafe_get u1 (i1 + 1)))
          -. (a3 *. (Array.unsafe_get u2 (i1 - 1) +. Array.unsafe_get u2 (i1 + 1))))
      done
    done
  done

let resid ~u ~v ~r ~a =
  let sp = Span.start () in
  resid_body ~u ~v ~r ~a;
  Schedule.loop_span sp "f77:resid" ~surface:false u;
  comm3 r

let psinv_body ~(r : Ndarray.t) ~(u : Ndarray.t) ~(c : float array) =
  let m = cube_extent r in
  let n = m - 2 in
  let rb = r.Ndarray.data and ub = u.Ndarray.data in
  let r1, r2, _ = line_buffers m in
  let c0 = c.(0) and c1 = c.(1) and c2 = c.(2) in
  (* c.(3) = 0 for all benchmark smoothers; mg.f omits the term. *)
  for i3 = 1 to n do
    for i2 = 1 to n do
      let p00 = idx m i3 i2 0
      and pm0 = idx m i3 (i2 - 1) 0
      and pp0 = idx m i3 (i2 + 1) 0
      and p0m = idx m (i3 - 1) i2 0
      and p0p = idx m (i3 + 1) i2 0
      and pmm = idx m (i3 - 1) (i2 - 1) 0
      and ppm = idx m (i3 - 1) (i2 + 1) 0
      and pmp = idx m (i3 + 1) (i2 - 1) 0
      and ppp = idx m (i3 + 1) (i2 + 1) 0 in
      for i1 = 0 to m - 1 do
        Array.unsafe_set r1 i1
          (Bigarray.Array1.unsafe_get rb (pm0 + i1)
          +. Bigarray.Array1.unsafe_get rb (pp0 + i1)
          +. Bigarray.Array1.unsafe_get rb (p0m + i1)
          +. Bigarray.Array1.unsafe_get rb (p0p + i1));
        Array.unsafe_set r2 i1
          (Bigarray.Array1.unsafe_get rb (pmm + i1)
          +. Bigarray.Array1.unsafe_get rb (ppm + i1)
          +. Bigarray.Array1.unsafe_get rb (pmp + i1)
          +. Bigarray.Array1.unsafe_get rb (ppp + i1))
      done;
      for i1 = 1 to n do
        Bigarray.Array1.unsafe_set ub (p00 + i1)
          (Bigarray.Array1.unsafe_get ub (p00 + i1)
          +. (c0 *. Bigarray.Array1.unsafe_get rb (p00 + i1))
          +. (c1
             *. (Bigarray.Array1.unsafe_get rb (p00 + i1 - 1)
                +. Bigarray.Array1.unsafe_get rb (p00 + i1 + 1)
                +. Array.unsafe_get r1 i1))
          +. (c2
             *. (Array.unsafe_get r2 i1 +. Array.unsafe_get r1 (i1 - 1)
                +. Array.unsafe_get r1 (i1 + 1))))
      done
    done
  done

let psinv ~r ~u ~c =
  let sp = Span.start () in
  psinv_body ~r ~u ~c;
  Schedule.loop_span sp "f77:psinv" ~surface:false r;
  comm3 u

let rprj3_body ~(fine : Ndarray.t) ~(coarse : Ndarray.t) =
  let mk = cube_extent fine and mj = cube_extent coarse in
  assert (mk = (2 * mj) - 2);
  let rb = fine.Ndarray.data and sb = coarse.Ndarray.data in
  let x1, y1, _ = line_buffers mk in
  for j3 = 1 to mj - 2 do
    let i3 = 2 * j3 in
    for j2 = 1 to mj - 2 do
      let i2 = 2 * j2 in
      (* First pass: plane-pair partial sums along the line. *)
      for j1 = 1 to mj - 1 do
        let i1 = 2 * j1 in
        Array.unsafe_set x1 (i1 - 1)
          (Bigarray.Array1.unsafe_get rb (idx mk i3 (i2 - 1) (i1 - 1))
          +. Bigarray.Array1.unsafe_get rb (idx mk i3 (i2 + 1) (i1 - 1))
          +. Bigarray.Array1.unsafe_get rb (idx mk (i3 - 1) i2 (i1 - 1))
          +. Bigarray.Array1.unsafe_get rb (idx mk (i3 + 1) i2 (i1 - 1)));
        Array.unsafe_set y1 (i1 - 1)
          (Bigarray.Array1.unsafe_get rb (idx mk (i3 - 1) (i2 - 1) (i1 - 1))
          +. Bigarray.Array1.unsafe_get rb (idx mk (i3 + 1) (i2 - 1) (i1 - 1))
          +. Bigarray.Array1.unsafe_get rb (idx mk (i3 - 1) (i2 + 1) (i1 - 1))
          +. Bigarray.Array1.unsafe_get rb (idx mk (i3 + 1) (i2 + 1) (i1 - 1)))
      done;
      for j1 = 1 to mj - 2 do
        let i1 = 2 * j1 in
        let y2 =
          Bigarray.Array1.unsafe_get rb (idx mk (i3 - 1) (i2 - 1) i1)
          +. Bigarray.Array1.unsafe_get rb (idx mk (i3 + 1) (i2 - 1) i1)
          +. Bigarray.Array1.unsafe_get rb (idx mk (i3 - 1) (i2 + 1) i1)
          +. Bigarray.Array1.unsafe_get rb (idx mk (i3 + 1) (i2 + 1) i1)
        in
        let x2 =
          Bigarray.Array1.unsafe_get rb (idx mk i3 (i2 - 1) i1)
          +. Bigarray.Array1.unsafe_get rb (idx mk i3 (i2 + 1) i1)
          +. Bigarray.Array1.unsafe_get rb (idx mk (i3 - 1) i2 i1)
          +. Bigarray.Array1.unsafe_get rb (idx mk (i3 + 1) i2 i1)
        in
        Bigarray.Array1.unsafe_set sb (idx mj j3 j2 j1)
          ((0.5 *. Bigarray.Array1.unsafe_get rb (idx mk i3 i2 i1))
          +. (0.25
             *. (Bigarray.Array1.unsafe_get rb (idx mk i3 i2 (i1 - 1))
                +. Bigarray.Array1.unsafe_get rb (idx mk i3 i2 (i1 + 1))
                +. x2))
          +. (0.125 *. (Array.unsafe_get x1 (i1 - 1) +. Array.unsafe_get x1 (i1 + 1) +. y2))
          +. (0.0625 *. (Array.unsafe_get y1 (i1 - 1) +. Array.unsafe_get y1 (i1 + 1))))
      done
    done
  done

let rprj3 ~fine ~coarse =
  let sp = Span.start () in
  rprj3_body ~fine ~coarse;
  Schedule.loop_span sp "f77:rprj3" ~surface:false coarse;
  comm3 coarse

let interp_body ~(coarse : Ndarray.t) ~(fine : Ndarray.t) =
  let mm = cube_extent coarse and n = cube_extent fine in
  assert (n = (2 * mm) - 2);
  let zb = coarse.Ndarray.data and ub = fine.Ndarray.data in
  let z1, z2, z3 = line_buffers mm in
  for o3 = 0 to mm - 2 do
    for o2 = 0 to mm - 2 do
      for o1 = 0 to mm - 1 do
        let z00 = Bigarray.Array1.unsafe_get zb (idx mm o3 o2 o1) in
        let zp0 = Bigarray.Array1.unsafe_get zb (idx mm o3 (o2 + 1) o1) in
        let z0p = Bigarray.Array1.unsafe_get zb (idx mm (o3 + 1) o2 o1) in
        let zpp = Bigarray.Array1.unsafe_get zb (idx mm (o3 + 1) (o2 + 1) o1) in
        Array.unsafe_set z1 o1 (zp0 +. z00);
        Array.unsafe_set z2 o1 (z0p +. z00);
        Array.unsafe_set z3 o1 (zpp +. z0p +. (zp0 +. z00))
      done;
      let add p v =
        Bigarray.Array1.unsafe_set ub p (Bigarray.Array1.unsafe_get ub p +. v)
      in
      for o1 = 0 to mm - 2 do
        let z00 = Bigarray.Array1.unsafe_get zb (idx mm o3 o2 o1) in
        add (idx n (2 * o3) (2 * o2) (2 * o1)) z00;
        add
          (idx n (2 * o3) (2 * o2) ((2 * o1) + 1))
          (0.5 *. (Bigarray.Array1.unsafe_get zb (idx mm o3 o2 (o1 + 1)) +. z00))
      done;
      for o1 = 0 to mm - 2 do
        add (idx n (2 * o3) ((2 * o2) + 1) (2 * o1)) (0.5 *. Array.unsafe_get z1 o1);
        add
          (idx n (2 * o3) ((2 * o2) + 1) ((2 * o1) + 1))
          (0.25 *. (Array.unsafe_get z1 o1 +. Array.unsafe_get z1 (o1 + 1)))
      done;
      for o1 = 0 to mm - 2 do
        add (idx n ((2 * o3) + 1) (2 * o2) (2 * o1)) (0.5 *. Array.unsafe_get z2 o1);
        add
          (idx n ((2 * o3) + 1) (2 * o2) ((2 * o1) + 1))
          (0.25 *. (Array.unsafe_get z2 o1 +. Array.unsafe_get z2 (o1 + 1)))
      done;
      for o1 = 0 to mm - 2 do
        add (idx n ((2 * o3) + 1) ((2 * o2) + 1) (2 * o1)) (0.25 *. Array.unsafe_get z3 o1);
        add
          (idx n ((2 * o3) + 1) ((2 * o2) + 1) ((2 * o1) + 1))
          (0.125 *. (Array.unsafe_get z3 o1 +. Array.unsafe_get z3 (o1 + 1)))
      done
    done
  done

let interp ~coarse ~fine =
  let sp = Span.start () in
  interp_body ~coarse ~fine;
  Schedule.loop_span sp "f77:interp" ~surface:false fine

(* ------------------------------------------------------------------ *)

let routines =
  { Schedule.impl_name = "f77"; resid; psinv; rprj3; interp }

let run cls = Schedule.run routines cls

let residual_norms cls = Schedule.residual_norms routines cls
