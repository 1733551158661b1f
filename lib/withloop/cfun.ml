open Mg_ndarray
open Cluster

(* Staged compilation of clustered part bodies.

   The generic nest ([Kernel.run_lin_generic]) executes a part by
   walking the cluster/group/delta structure per element: three nested
   data-driven loops whose trip counts and operands are fetched from
   arrays at every step.  This module performs that walk ONCE, when
   the part is compiled, and emits a specialised closure per (cluster,
   group): the group's delta offsets become let-bound integers unrolled
   into a single expression (for the arities the MG operators produce —
   the 1/6/8/12-read groups of factored 27-point bodies — plus the
   small arities residue splitting leaves behind), and the per-element
   work is a straight-line loop over [unsafe_get]/[unsafe_set].  The
   walk step stays an argument so [run] can traverse along whichever
   axis is longest.  What remains at run time is one closure call per
   output row per group — the same staging move as the plan cache,
   one level further down.

   Buffer-slot parameterisation: a compiled pass holds NO buffer and
   NO base offset.  It receives the source buffer and the row base as
   arguments; the driver reads them from the *live* cluster array each
   run.  Plan replay rebinds cluster buffers ([Plan.rebind_cpart]) and
   parallel pieces shift cluster bases ([Cluster.shift_base]), so one
   compiled kernel — cached inside its plan in [Plan_cache] — serves
   every replay and piece unchanged.

   One write per output element: the passes accumulate into a row
   accumulator off to the side, which starts at [const], and [run]
   stores the finished row into the output.  Every operand of an
   element is therefore read before the element is written, as in
   every other kernel, so the output may alias a buffer the body reads
   at identity ([Plan.safe_to_alias], steals and loans) with no rule of
   its own.

   Bitwise identity with the generic nest is load-bearing (the oracle
   tests and the class-W verification norms assert it): per element,
   it computes
       ((const + c0*s0) + c1*s1) + ...   in (cluster, group) order,
   each group sum as ((0.0 + d0) + d1) + ... in delta order.  The
   passes replay exactly that sequence — a float64 round-trip through
   the accumulator is exact, and every unrolled sum keeps the leading
   [0.0 +.] so even signed zeros agree. *)

(* One compiled (cluster, group) pass.  [p_run src acc b n st] applies
   the group to one row of [n] elements: element [k] reads [src]
   around [b + k*st] and adds into [acc.(k)].  The row axis is NOT
   baked in — [run] picks it per piece (the axis with the most
   elements), so degenerate shapes like the border updates' [m × m × 1]
   parts still get long rows instead of one closure call per element. *)
type pass = {
  p_ci : int;  (* index of the source cluster in the live array *)
  p_run : Ndarray.buffer -> float array -> int -> int -> int -> unit;
}

type t = { f_const : float; f_passes : pass array }

(* ------------------------------------------------------------------ *)
(* Pass compilation: the instruction-selection table.

   Each arm captures the group's delta offsets as individual integers
   and returns a closed loop — no per-element calls, no array walks —
   that keeps the generic nest's operation order.  Arities beyond the
   table fall to a loop over the captured delta array, which still
   skips the cluster/group dispatch of the interpreted nest. *)

(* The annotation is load-bearing: without it [src] generalises to a
   polymorphic bigarray and every [unsafe_get] becomes a generic
   [caml_ba_get_1] C call that boxes its float result. *)
let mk ~coeff (ds : int array) : Ndarray.buffer -> float array -> int -> int -> int -> unit =
  match ds with
  | [| d0 |] ->
      fun src acc b n st ->
        let b = ref b in
        for k = 0 to n - 1 do
          Array.unsafe_set acc k
            (Array.unsafe_get acc k +. (coeff *. (0.0 +. Bigarray.Array1.unsafe_get src (!b + d0))));
          b := !b + st
        done
  | [| d0; d1 |] ->
      fun src acc b n st ->
        let b = ref b in
        for k = 0 to n - 1 do
          let p = !b in
          Array.unsafe_set acc k
            (Array.unsafe_get acc k
            +. (coeff
               *. (0.0 +. Bigarray.Array1.unsafe_get src (p + d0) +. Bigarray.Array1.unsafe_get src (p + d1))));
          b := !b + st
        done
  | [| d0; d1; d2 |] ->
      fun src acc b n st ->
        let b = ref b in
        for k = 0 to n - 1 do
          let p = !b in
          Array.unsafe_set acc k
            (Array.unsafe_get acc k
            +. (coeff
               *. (0.0 +. Bigarray.Array1.unsafe_get src (p + d0) +. Bigarray.Array1.unsafe_get src (p + d1) +. Bigarray.Array1.unsafe_get src (p + d2))));
          b := !b + st
        done
  | [| d0; d1; d2; d3 |] ->
      fun src acc b n st ->
        let b = ref b in
        for k = 0 to n - 1 do
          let p = !b in
          Array.unsafe_set acc k
            (Array.unsafe_get acc k
            +. (coeff
               *. (0.0 +. Bigarray.Array1.unsafe_get src (p + d0) +. Bigarray.Array1.unsafe_get src (p + d1) +. Bigarray.Array1.unsafe_get src (p + d2) +. Bigarray.Array1.unsafe_get src (p + d3))));
          b := !b + st
        done
  | [| d0; d1; d2; d3; d4; d5 |] ->
      (* face class of a factored 27-point body *)
      fun src acc b n st ->
        let b = ref b in
        for k = 0 to n - 1 do
          let p = !b in
          Array.unsafe_set acc k
            (Array.unsafe_get acc k
            +. (coeff
               *. (0.0 +. Bigarray.Array1.unsafe_get src (p + d0) +. Bigarray.Array1.unsafe_get src (p + d1) +. Bigarray.Array1.unsafe_get src (p + d2) +. Bigarray.Array1.unsafe_get src (p + d3)
                  +. Bigarray.Array1.unsafe_get src (p + d4) +. Bigarray.Array1.unsafe_get src (p + d5))));
          b := !b + st
        done
  | [| d0; d1; d2; d3; d4; d5; d6; d7 |] ->
      (* corner class *)
      fun src acc b n st ->
        let b = ref b in
        for k = 0 to n - 1 do
          let p = !b in
          Array.unsafe_set acc k
            (Array.unsafe_get acc k
            +. (coeff
               *. (0.0 +. Bigarray.Array1.unsafe_get src (p + d0) +. Bigarray.Array1.unsafe_get src (p + d1) +. Bigarray.Array1.unsafe_get src (p + d2) +. Bigarray.Array1.unsafe_get src (p + d3)
                  +. Bigarray.Array1.unsafe_get src (p + d4) +. Bigarray.Array1.unsafe_get src (p + d5) +. Bigarray.Array1.unsafe_get src (p + d6) +. Bigarray.Array1.unsafe_get src (p + d7))));
          b := !b + st
        done
  | [| d0; d1; d2; d3; d4; d5; d6; d7; d8; d9; d10; d11 |] ->
      (* edge class *)
      fun src acc b n st ->
        let b = ref b in
        for k = 0 to n - 1 do
          let p = !b in
          Array.unsafe_set acc k
            (Array.unsafe_get acc k
            +. (coeff
               *. (0.0 +. Bigarray.Array1.unsafe_get src (p + d0) +. Bigarray.Array1.unsafe_get src (p + d1) +. Bigarray.Array1.unsafe_get src (p + d2) +. Bigarray.Array1.unsafe_get src (p + d3)
                  +. Bigarray.Array1.unsafe_get src (p + d4) +. Bigarray.Array1.unsafe_get src (p + d5) +. Bigarray.Array1.unsafe_get src (p + d6) +. Bigarray.Array1.unsafe_get src (p + d7)
                  +. Bigarray.Array1.unsafe_get src (p + d8) +. Bigarray.Array1.unsafe_get src (p + d9) +. Bigarray.Array1.unsafe_get src (p + d10) +. Bigarray.Array1.unsafe_get src (p + d11))));
          b := !b + st
        done
  | ds ->
      (* Arity outside the table: loop over the captured offsets.  The
         copy decouples the pass from later mutation of the cluster. *)
      let ds = Array.copy ds in
      let nd = Array.length ds in
      fun src acc b n st ->
        let b = ref b in
        for k = 0 to n - 1 do
          let p = !b in
          let s = ref 0.0 in
          for t = 0 to nd - 1 do
            s := !s +. Bigarray.Array1.unsafe_get src (p + Array.unsafe_get ds t)
          done;
          Array.unsafe_set acc k (Array.unsafe_get acc k +. (coeff *. !s));
          b := !b + st
        done

(* ------------------------------------------------------------------ *)
(* Compilation driver                                                  *)

let compile ~const (clusters : ccluster array) : t =
  let passes ci cl =
    Array.mapi (fun gi ds -> { p_ci = ci; p_run = mk ~coeff:cl.xcoeffs.(gi) ds }) cl.xdeltas
  in
  { f_const = const; f_passes = Array.concat (Array.to_list (Array.mapi passes clusters)) }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

(* Row axis = the axis with the most elements, so per-row work
   amortises even on degenerate pieces (border parts are m*m*1, corner
   residues 1*1*1).  Any axis order computes the same bits: elements
   are independent and each element's pass sequence is unchanged.  Ties
   prefer axis 2 (contiguous output), then axis 1. *)
let row_axis (counts : int array) =
  let n0 = counts.(0) and n1 = counts.(1) and n2 = counts.(2) in
  if n2 >= n0 && n2 >= n1 then 2 else if n1 >= n0 then 1 else 0

(* The row accumulator: one per domain, like the [Mempool] arenas (one
   runner per domain at a time), grown when a longer row arrives, so a
   warm run allocates nothing. *)
let acc_key : float array ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [||])

let row_acc n =
  let r = Domain.DLS.get acc_key in
  if Array.length !r < n then r := Array.make n 0.0;
  !r

let run t (clusters : ccluster array) (out : Ndarray.buffer) ~obase ~(osteps : int array)
    ~(counts : int array) =
  let passes = t.f_passes and c = t.f_const in
  let np = Array.length passes in
  let a = row_axis counts in
  let u = if a = 0 then 1 else 0 in
  let v = if a = 2 then 1 else 2 in
  let nu = counts.(u) and nv = counts.(v) and na = counts.(a) in
  let osu = osteps.(u) and osv = osteps.(v) and osa = osteps.(a) in
  let acc = row_acc na in
  for ku = 0 to nu - 1 do
    for kv = 0 to nv - 1 do
      for k = 0 to na - 1 do
        Array.unsafe_set acc k c
      done;
      for pi = 0 to np - 1 do
        let p = Array.unsafe_get passes pi in
        let cl = Array.unsafe_get clusters p.p_ci in
        let xs = cl.xsteps in
        p.p_run cl.xbuf acc
          (cl.xbase + (ku * Array.unsafe_get xs u) + (kv * Array.unsafe_get xs v))
          na (Array.unsafe_get xs a)
      done;
      let ob = obase + (ku * osu) + (kv * osv) in
      for k = 0 to na - 1 do
        Bigarray.Array1.unsafe_set out (ob + (k * osa)) (Array.unsafe_get acc k)
      done
    done
  done
