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

(* Fig. 4's iteration [u + VCycle (v - Resid u)] as a stepper whose
   parameter is [v].  One stepper per smoother for the life of the
   program: its tapes live in each engine's plan cache, so a warm
   engine replays every iteration of a solve, its first included. *)
let stepper =
  Stencil.memo (fun smoother ->
      Wl.staged (fun params u ->
          let r = Ops.sub params.(0) (resid Stencil.a u) in
          Ops.add u (v_cycle ~smoother r)))

let m_grid ~smoother ~v ~iter =
  (* The iterate is materialised, not forced: the old iterate stays
     eligible for the executor's buffer-reuse analysis, so
     [u + VCycle r] writes through its dead buffer and every level
     buffer returns to the pool at its last use. *)
  let step = stepper smoother in
  let u = ref (Wl.materialize (Ops.genarray_const (Wl.shape v) 0.0)) in
  for _ = 1 to iter do
    u := step [| v |] !u
  done;
  !u

let run (cls : Classes.t) =
  let stage = Mg_obs.Scope.time_stage in
  let n = cls.Classes.nx in
  (* The right-hand side comes from the pool and goes back to it after
     the residual read, like every with-loop buffer. *)
  let pooling = (Wl.settings ()).Exec.pooling in
  let va =
    stage "init" (fun () ->
        let z = Mempool.alloc ~pooling (Shape.replicate 3 (n + 2)) in
        Zran3.generate_into z ~n;
        z)
  in
  let v = Wl.of_ndarray va in
  let smoother = Classes.smoother_coeffs cls in
  let t0 = Clock.now () in
  let u = stage "iterate" (fun () -> m_grid ~smoother ~v ~iter:cls.Classes.nit) in
  (* The residual is read once, for its norm, and its buffer goes back
     to the pool. *)
  let result =
    stage "residual" (fun () ->
        Wl.read (Ops.sub v (resid Stencil.a u)) (fun r ->
            let dt = Clock.now () -. t0 in
            let rnm2, _ = stage "verify" (fun () -> Verify.norm2u3 r ~n) in
            (rnm2, dt)))
  in
  Mempool.recycle ~pooling va;
  result

(* Per-iteration residual norms (golden-vector tests).  Forcing the
   residual each iteration consumes the iterate's last consumer edges,
   so its buffer is released and the next iteration recomputes it from
   its graph, folded into that iteration's consumers.  The golden
   histories from the second iteration on hold that arithmetic, which
   differs in the last bits from [m_grid]'s (the class-S history ends
   in ...191a, [run]'s rnm2 is ...190a); a stepper cannot replay it,
   since its input must be a buffer.  The staged [m_grid] is held to
   the unstaged loop by its own tests. *)
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
