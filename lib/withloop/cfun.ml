open Mg_ndarray
open Cluster

(* Staged compilation of clustered part bodies.

   [run_generic3] executes a part by walking the cluster/group/delta
   structure per element: three nested data-driven loops whose trip
   counts and operands are fetched from arrays at every step.  This
   module performs that walk ONCE, when the part is compiled, and
   emits a specialised closure per (cluster, group): the group's delta
   offsets become let-bound integers unrolled into a single expression
   (for the arities the MG operators produce — the 1/6/8/12-read
   groups of factored 27-point bodies — plus the small arities residue
   splitting leaves behind), and the per-element work is a
   straight-line loop over [unsafe_get]/[unsafe_set].  The walk step
   and output stride stay arguments so [run] can traverse along
   whichever axis is longest.  What remains at run time is one closure
   call per output row per group — the same staging move as PR 1's
   plans, one level further down.

   Buffer-slot parameterisation: a compiled pass holds NO buffer and
   NO base offset.  It receives the source buffer, the output buffer
   and the row bases as arguments; the driver reads them from the
   *live* cluster array each run.  Plan replay rebinds cluster buffers
   ([Plan.rebind_cpart]) and parallel pieces shift cluster bases
   ([Cluster.shift_base]), so one compiled kernel — cached inside its
   plan in [Plan_cache] — serves every replay, piece and tile
   unchanged.

   Bitwise identity with [run_generic3] is load-bearing (the oracle
   tests and the class-W verification norms assert it): per element,
   the generic nest computes
       ((const + c0*s0) + c1*s1) + ...   in (cluster, group) order,
   each group sum as ((0.0 + d0) + d1) + ... in delta order.  The
   passes replay exactly that sequence — the first pass writes
   [const + c*s], later passes accumulate into the output element (a
   float64 round-trip through the output buffer is exact), and every
   unrolled sum keeps the leading [0.0 +.] so even signed zeros
   agree. *)

(* One compiled (cluster, group) pass.  [p_run src out b ob n st os]
   applies the group to one output row of [n] elements: element [k]
   reads [src] around [b + k*st] and combines into [out.(ob + k*os)].
   The row axis is NOT baked in — [run] picks it per piece (the axis
   with the most elements), so degenerate shapes like the border
   updates' [m × m × 1] parts still get long rows instead of one
   closure call per element. *)
type pass = {
  p_ci : int;  (* index of the source cluster in the live array *)
  p_run : Ndarray.buffer -> Ndarray.buffer -> int -> int -> int -> int -> int -> unit;
}

type t = {
  f_const : float;
  f_os2 : int;  (* inner output stride, for the const-only body *)
  f_passes : pass array;
  f_reads : int;  (* reads per element, for diagnostics *)
}

let reads_per_element t = t.f_reads

(* ------------------------------------------------------------------ *)
(* Pass compilation: the instruction-selection table.

   Each arm captures the group's delta offsets as individual integers
   and returns a closed loop — no per-element calls, no array walks.
   [first] selects write-vs-accumulate once, outside the loop; both
   bodies keep the generic nest's operation order.  Arities beyond the
   table fall to a loop over the captured delta array, which still
   skips the cluster/group dispatch of the interpreted nest. *)

(* The annotation is load-bearing: without it [src]/[out] generalise to
   polymorphic bigarrays and every [unsafe_get] becomes a generic
   [caml_ba_get_1] C call that boxes its float result. *)
let mk ~first ~const ~coeff (ds : int array) :
    Ndarray.buffer -> Ndarray.buffer -> int -> int -> int -> int -> int -> unit =
  match ds with
  | [| d0 |] ->
      fun src out b ob n st os ->
        let b = ref b in
        if first then
          for k = 0 to n - 1 do
            Bigarray.Array1.unsafe_set out (ob + (k * os))
              (const +. (coeff *. (0.0 +. Bigarray.Array1.unsafe_get src (!b + d0))));
            b := !b + st
          done
        else
          for k = 0 to n - 1 do
            let o = ob + (k * os) in
            Bigarray.Array1.unsafe_set out o
              (Bigarray.Array1.unsafe_get out o +. (coeff *. (0.0 +. Bigarray.Array1.unsafe_get src (!b + d0))));
            b := !b + st
          done
  | [| d0; d1 |] ->
      fun src out b ob n st os ->
        let b = ref b in
        if first then
          for k = 0 to n - 1 do
            let p = !b in
            Bigarray.Array1.unsafe_set out (ob + (k * os))
              (const +. (coeff *. (0.0 +. Bigarray.Array1.unsafe_get src (p + d0) +. Bigarray.Array1.unsafe_get src (p + d1))));
            b := !b + st
          done
        else
          for k = 0 to n - 1 do
            let p = !b in
            let o = ob + (k * os) in
            Bigarray.Array1.unsafe_set out o
              (Bigarray.Array1.unsafe_get out o +. (coeff *. (0.0 +. Bigarray.Array1.unsafe_get src (p + d0) +. Bigarray.Array1.unsafe_get src (p + d1))));
            b := !b + st
          done
  | [| d0; d1; d2 |] ->
      fun src out b ob n st os ->
        let b = ref b in
        if first then
          for k = 0 to n - 1 do
            let p = !b in
            Bigarray.Array1.unsafe_set out (ob + (k * os))
              (const +. (coeff *. (0.0 +. Bigarray.Array1.unsafe_get src (p + d0) +. Bigarray.Array1.unsafe_get src (p + d1) +. Bigarray.Array1.unsafe_get src (p + d2))));
            b := !b + st
          done
        else
          for k = 0 to n - 1 do
            let p = !b in
            let o = ob + (k * os) in
            Bigarray.Array1.unsafe_set out o
              (Bigarray.Array1.unsafe_get out o
              +. (coeff *. (0.0 +. Bigarray.Array1.unsafe_get src (p + d0) +. Bigarray.Array1.unsafe_get src (p + d1) +. Bigarray.Array1.unsafe_get src (p + d2))));
            b := !b + st
          done
  | [| d0; d1; d2; d3 |] ->
      fun src out b ob n st os ->
        let b = ref b in
        if first then
          for k = 0 to n - 1 do
            let p = !b in
            Bigarray.Array1.unsafe_set out (ob + (k * os))
              (const +. (coeff *. (0.0 +. Bigarray.Array1.unsafe_get src (p + d0) +. Bigarray.Array1.unsafe_get src (p + d1) +. Bigarray.Array1.unsafe_get src (p + d2) +. Bigarray.Array1.unsafe_get src (p + d3))));
            b := !b + st
          done
        else
          for k = 0 to n - 1 do
            let p = !b in
            let o = ob + (k * os) in
            Bigarray.Array1.unsafe_set out o
              (Bigarray.Array1.unsafe_get out o
              +. (coeff *. (0.0 +. Bigarray.Array1.unsafe_get src (p + d0) +. Bigarray.Array1.unsafe_get src (p + d1) +. Bigarray.Array1.unsafe_get src (p + d2) +. Bigarray.Array1.unsafe_get src (p + d3))));
            b := !b + st
          done
  | [| d0; d1; d2; d3; d4; d5 |] ->
      (* face class of a factored 27-point body *)
      fun src out b ob n st os ->
        let b = ref b in
        if first then
          for k = 0 to n - 1 do
            let p = !b in
            Bigarray.Array1.unsafe_set out (ob + (k * os))
              (const
              +. (coeff
                 *. (0.0 +. Bigarray.Array1.unsafe_get src (p + d0) +. Bigarray.Array1.unsafe_get src (p + d1) +. Bigarray.Array1.unsafe_get src (p + d2) +. Bigarray.Array1.unsafe_get src (p + d3) +. Bigarray.Array1.unsafe_get src (p + d4)
                    +. Bigarray.Array1.unsafe_get src (p + d5))));
            b := !b + st
          done
        else
          for k = 0 to n - 1 do
            let p = !b in
            let o = ob + (k * os) in
            Bigarray.Array1.unsafe_set out o
              (Bigarray.Array1.unsafe_get out o
              +. (coeff
                 *. (0.0 +. Bigarray.Array1.unsafe_get src (p + d0) +. Bigarray.Array1.unsafe_get src (p + d1) +. Bigarray.Array1.unsafe_get src (p + d2) +. Bigarray.Array1.unsafe_get src (p + d3) +. Bigarray.Array1.unsafe_get src (p + d4)
                    +. Bigarray.Array1.unsafe_get src (p + d5))));
            b := !b + st
          done
  | [| d0; d1; d2; d3; d4; d5; d6; d7 |] ->
      (* corner class *)
      fun src out b ob n st os ->
        let b = ref b in
        if first then
          for k = 0 to n - 1 do
            let p = !b in
            Bigarray.Array1.unsafe_set out (ob + (k * os))
              (const
              +. (coeff
                 *. (0.0 +. Bigarray.Array1.unsafe_get src (p + d0) +. Bigarray.Array1.unsafe_get src (p + d1) +. Bigarray.Array1.unsafe_get src (p + d2) +. Bigarray.Array1.unsafe_get src (p + d3) +. Bigarray.Array1.unsafe_get src (p + d4)
                    +. Bigarray.Array1.unsafe_get src (p + d5) +. Bigarray.Array1.unsafe_get src (p + d6) +. Bigarray.Array1.unsafe_get src (p + d7))));
            b := !b + st
          done
        else
          for k = 0 to n - 1 do
            let p = !b in
            let o = ob + (k * os) in
            Bigarray.Array1.unsafe_set out o
              (Bigarray.Array1.unsafe_get out o
              +. (coeff
                 *. (0.0 +. Bigarray.Array1.unsafe_get src (p + d0) +. Bigarray.Array1.unsafe_get src (p + d1) +. Bigarray.Array1.unsafe_get src (p + d2) +. Bigarray.Array1.unsafe_get src (p + d3) +. Bigarray.Array1.unsafe_get src (p + d4)
                    +. Bigarray.Array1.unsafe_get src (p + d5) +. Bigarray.Array1.unsafe_get src (p + d6) +. Bigarray.Array1.unsafe_get src (p + d7))));
            b := !b + st
          done
  | [| d0; d1; d2; d3; d4; d5; d6; d7; d8; d9; d10; d11 |] ->
      (* edge class *)
      fun src out b ob n st os ->
        let b = ref b in
        if first then
          for k = 0 to n - 1 do
            let p = !b in
            Bigarray.Array1.unsafe_set out (ob + (k * os))
              (const
              +. (coeff
                 *. (0.0 +. Bigarray.Array1.unsafe_get src (p + d0) +. Bigarray.Array1.unsafe_get src (p + d1) +. Bigarray.Array1.unsafe_get src (p + d2) +. Bigarray.Array1.unsafe_get src (p + d3) +. Bigarray.Array1.unsafe_get src (p + d4)
                    +. Bigarray.Array1.unsafe_get src (p + d5) +. Bigarray.Array1.unsafe_get src (p + d6) +. Bigarray.Array1.unsafe_get src (p + d7) +. Bigarray.Array1.unsafe_get src (p + d8) +. Bigarray.Array1.unsafe_get src (p + d9)
                    +. Bigarray.Array1.unsafe_get src (p + d10)
                    +. Bigarray.Array1.unsafe_get src (p + d11))));
            b := !b + st
          done
        else
          for k = 0 to n - 1 do
            let p = !b in
            let o = ob + (k * os) in
            Bigarray.Array1.unsafe_set out o
              (Bigarray.Array1.unsafe_get out o
              +. (coeff
                 *. (0.0 +. Bigarray.Array1.unsafe_get src (p + d0) +. Bigarray.Array1.unsafe_get src (p + d1) +. Bigarray.Array1.unsafe_get src (p + d2) +. Bigarray.Array1.unsafe_get src (p + d3) +. Bigarray.Array1.unsafe_get src (p + d4)
                    +. Bigarray.Array1.unsafe_get src (p + d5) +. Bigarray.Array1.unsafe_get src (p + d6) +. Bigarray.Array1.unsafe_get src (p + d7) +. Bigarray.Array1.unsafe_get src (p + d8) +. Bigarray.Array1.unsafe_get src (p + d9)
                    +. Bigarray.Array1.unsafe_get src (p + d10)
                    +. Bigarray.Array1.unsafe_get src (p + d11))));
            b := !b + st
          done
  | ds ->
      (* Arity outside the table: loop over the captured offsets.  The
         copy decouples the pass from later mutation of the cluster. *)
      let ds = Array.copy ds in
      let nd = Array.length ds in
      fun src out b ob n st os ->
        let b = ref b in
        if first then
          for k = 0 to n - 1 do
            let p = !b in
            let s = ref 0.0 in
            for t = 0 to nd - 1 do
              s := !s +. Bigarray.Array1.unsafe_get src (p + Array.unsafe_get ds t)
            done;
            Bigarray.Array1.unsafe_set out (ob + (k * os)) (const +. (coeff *. !s));
            b := !b + st
          done
        else
          for k = 0 to n - 1 do
            let p = !b in
            let s = ref 0.0 in
            for t = 0 to nd - 1 do
              s := !s +. Bigarray.Array1.unsafe_get src (p + Array.unsafe_get ds t)
            done;
            let o = ob + (k * os) in
            Bigarray.Array1.unsafe_set out o
              (Bigarray.Array1.unsafe_get out o +. (coeff *. !s));
            b := !b + st
          done

(* ------------------------------------------------------------------ *)
(* Compilation driver                                                  *)

let compile ~const (clusters : ccluster array) ~(osteps : int array) : t =
  if Array.length osteps <> 3 then invalid_arg "Cfun.compile: rank-3 parts only";
  let passes = ref [] in
  let reads = ref 0 in
  let first = ref true in
  Array.iteri
    (fun ci cl ->
      Array.iteri
        (fun gi ds ->
          reads := !reads + Array.length ds;
          passes :=
            { p_ci = ci; p_run = mk ~first:!first ~const ~coeff:cl.xcoeffs.(gi) ds }
            :: !passes;
          first := false)
        cl.xdeltas)
    clusters;
  { f_const = const;
    f_os2 = osteps.(2);
    f_passes = Array.of_list (List.rev !passes);
    f_reads = !reads;
  }

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

let run t (clusters : ccluster array) (out : Ndarray.buffer) ~obase ~(osteps : int array)
    ~(counts : int array) =
  let n0 = counts.(0) and n1 = counts.(1) and n2 = counts.(2) in
  let os0 = osteps.(0) and os1 = osteps.(1) in
  let passes = t.f_passes in
  let np = Array.length passes in
  if np = 0 then begin
    (* Clusterless body: the constant everywhere (what the generic
       nest's empty cluster loop produces). *)
    let os2 = t.f_os2 and c = t.f_const in
    for k0 = 0 to n0 - 1 do
      for k1 = 0 to n1 - 1 do
        let ob = obase + (k0 * os0) + (k1 * os1) in
        for k2 = 0 to n2 - 1 do
          Bigarray.Array1.unsafe_set out (ob + (k2 * os2)) c
        done
      done
    done
  end
  else begin
    let a = row_axis counts in
    let u = if a = 0 then 1 else 0 in
    let v = if a = 2 then 1 else 2 in
    let nu = counts.(u) and nv = counts.(v) and na = counts.(a) in
    let osu = osteps.(u) and osv = osteps.(v) and osa = osteps.(a) in
    for ku = 0 to nu - 1 do
      for kv = 0 to nv - 1 do
        let ob = obase + (ku * osu) + (kv * osv) in
        for pi = 0 to np - 1 do
          let p = Array.unsafe_get passes pi in
          let cl = Array.unsafe_get clusters p.p_ci in
          let xs = cl.xsteps in
          p.p_run cl.xbuf out
            (cl.xbase + (ku * Array.unsafe_get xs u) + (kv * Array.unsafe_get xs v))
            ob na (Array.unsafe_get xs a) osa
        done
      done
    done
  end
