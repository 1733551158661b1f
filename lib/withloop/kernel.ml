open Mg_ndarray
open Cluster

module Metrics = Mg_obs.Metrics

(* One row per kernel path: its dispatch counter [kernel.<path>] (an
   atomic metric — [run_k3] runs concurrently on pool domains) and its
   engine-sharded ns/elt log₂ histogram family [kernel.ns_elt.<path>]. *)
type path = {
  name : string;
  hits : Metrics.counter;
  ns_elt : Metrics.histogram Mg_obs.Scope.family;
}

let path name =
  { name;
    hits = Metrics.counter ("kernel." ^ name);
    ns_elt = Mg_obs.Scope.histogram_family ("kernel.ns_elt." ^ name);
  }

let p_stencil = path "stencil"
let p_linebuf = path "linebuf"
let p_copy = path "copy"
let p_generic = path "generic"
let p_interp = path "interp"
let p_cfun = path "cfun"
let p_native = path "native"
let p_border = path "border"
let paths = [ p_stencil; p_linebuf; p_copy; p_generic; p_interp; p_cfun; p_native; p_border ]
let c_cfun = p_cfun.hits
let counters () = List.map (fun p -> (p.name, Metrics.value p.hits)) paths

(* Timing is off by default — two clock reads per piece would tax
   production runs — and switched on by the profiler and the bench
   harness. *)
let timing = Atomic.make false
let set_timing b = Atomic.set timing b

(* ------------------------------------------------------------------ *)
(* Execution of a compiled linear part                                 *)

let sum_deltas (buf : Ndarray.buffer) b (deltas : int array) =
  let s = ref 0.0 in
  for t = 0 to Array.length deltas - 1 do
    s := !s +. Bigarray.Array1.unsafe_get buf (b + Array.unsafe_get deltas t)
  done;
  !s

(* The innermost loops below are written as closed loop nests with no
   function calls: ocamlopt's Closure middle-end does not inline
   functions containing loops, and an outlined call per element would
   box its float result — one heap allocation per grid point. *)

(* Row kernel: evaluate all clusters/groups for k = 0..n-1 along the
   innermost axis and store into out.  cb1 holds per-cluster bases for
   this row. *)
let[@inline never] run_row ~const (clusters : ccluster array) (cb1 : int array) ~axis ~n
    (out : Ndarray.buffer) ~ob ~os =
  let nc = Array.length clusters in
  if nc = 1 then begin
    (* The dominant shape: one source array (stencils, copies). *)
    let cl = Array.unsafe_get clusters 0 in
    let buf = cl.xbuf in
    let st = Array.unsafe_get cl.xsteps axis in
    let coeffs = cl.xcoeffs and deltas = cl.xdeltas in
    let ng = Array.length coeffs in
    let b = ref (Array.unsafe_get cb1 0) in
    for k = 0 to n - 1 do
      let acc = ref const in
      for gi = 0 to ng - 1 do
        let ds = Array.unsafe_get deltas gi in
        let s = ref 0.0 in
        for t = 0 to Array.length ds - 1 do
          s := !s +. Bigarray.Array1.unsafe_get buf (!b + Array.unsafe_get ds t)
        done;
        acc := !acc +. (Array.unsafe_get coeffs gi *. !s)
      done;
      Bigarray.Array1.unsafe_set out (ob + (k * os)) !acc;
      b := !b + st
    done
  end
  else
    for k = 0 to n - 1 do
      let acc = ref const in
      for ci = 0 to nc - 1 do
        let cl = Array.unsafe_get clusters ci in
        let b = Array.unsafe_get cb1 ci + (k * Array.unsafe_get cl.xsteps axis) in
        let buf = cl.xbuf in
        let coeffs = cl.xcoeffs and deltas = cl.xdeltas in
        for gi = 0 to Array.length coeffs - 1 do
          let ds = Array.unsafe_get deltas gi in
          let s = ref 0.0 in
          for t = 0 to Array.length ds - 1 do
            s := !s +. Bigarray.Array1.unsafe_get buf (b + Array.unsafe_get ds t)
          done;
          acc := !acc +. (Array.unsafe_get coeffs gi *. !s)
        done
      done;
      Bigarray.Array1.unsafe_set out (ob + (k * os)) !acc
    done

(* ------------------------------------------------------------------ *)
(* Kernel recognition: the code-generation step.  A compiled part whose
   reads form a 3-D box stencil (deltas drawn from {-1,0,1}^3 scaled by
   the source strides, grouped by distance class — every NAS-MG
   operator after coefficient factoring) is dispatched to a dedicated
   loop nest whose neighbour offsets are let-bound integers, matching
   what a compiler emits for hand-written stencil code.  Additional
   single-read clusters (the [v] of [v - A·u], the [z] of
   [z + S·r], …) ride along as linear extras. *)

type stencil3 = {
  sbuf : Ndarray.buffer;
  sbase : int;
  s_sp : int;  (* neighbour plane stride *)
  s_sr : int;  (* neighbour row stride *)
  s_st0 : int;  (* walk step per k0 *)
  s_st1 : int;
  s_st2 : int;
  c0 : float;
  c1 : float;
  c2 : float;
  c3 : float;
  extras : ccluster array;  (* single-read clusters *)
}

(* The distance class of a group of [len] deltas: class 0 is the
   centre, 1 the 6 faces, 2 the 12 edges, 3 the 8 corners — the sizes
   differ, so a group's size names the only class it can be. *)
let class_of_size = function 1 -> 0 | 6 -> 1 | 12 -> 2 | 8 -> 3 | _ -> -1

(* Whether [d] is a box offset [a·sp + b·sr + c] ([a, b, c] in
   {-1, 0, 1}) of distance class [cls] ([|a| + |b| + |c| = cls]).  With
   [sr >= 3] and [sp >= 3·sr] an offset has one such spelling, so the
   class's offsets are distinct, and [|b·sr + c| < sp / 2] and
   [|c| < sr / 2]: [a] and [b] are the nearest quotients. *)
let nearest x q = if x >= 0 then (x + (q / 2)) / q else -((-x + (q / 2)) / q)

let in_class ~sp ~sr cls d =
  let a = nearest d sp in
  let b = nearest (d - (a * sp)) sr in
  let c = d - (a * sp) - (b * sr) in
  abs a <= 1 && abs b <= 1 && abs c <= 1 && abs a + abs b + abs c = cls

(* Whether the deltas, less [centre], are the offsets of class [cls]:
   as many, each one of them, no two equal. *)
let is_class ~sp ~sr ~centre cls (deltas : int array) =
  let n = Array.length deltas in
  let ok = ref (class_of_size n = cls) in
  for i = 0 to n - 1 do
    if !ok then begin
      ok := in_class ~sp ~sr cls (deltas.(i) - centre);
      for k = 0 to i - 1 do
        if deltas.(k) = deltas.(i) then ok := false
      done
    end
  done;
  !ok

let is_single_read (cl : ccluster) =
  Array.length cl.xcoeffs = 1 && Array.length cl.xdeltas.(0) = 1

(* The per-cluster class test: a cluster is a box stencil when each of
   its groups is one distance class of a 3-D box around a common
   centre, each class at most once.  Returns the centre's offset from
   the cluster's first read and the coefficient per class (0.0 for an
   absent class).  Neighbour deltas are expressed in the source's own
   strides, independent of how fast the loop walks the source. *)
let box_classes (cl : ccluster) =
  let sp = cl.xstrides.(0) and sr = cl.xstrides.(1) in
  if cl.xstrides.(2) <> 1 || cl.xsteps.(2) < 1 || sr < 3 || sp < sr * 3 then None
  else begin
    (* Cluster deltas are relative to the first read; a box stencil is
       symmetric, so its centre is the midpoint of the delta range. *)
    let dmin = ref max_int and dmax = ref min_int in
    for g = 0 to Array.length cl.xdeltas - 1 do
      for i = 0 to Array.length cl.xdeltas.(g) - 1 do
        let d = cl.xdeltas.(g).(i) in
        if d < !dmin then dmin := d;
        if d > !dmax then dmax := d
      done
    done;
    let centre = (!dmin + !dmax) asr 1 in
    let coeffs = [| 0.0; 0.0; 0.0; 0.0 |] in
    let all_match = ref true in
    for g = 0 to Array.length cl.xdeltas - 1 do
      let ds = cl.xdeltas.(g) in
      let cls = class_of_size (Array.length ds) in
      if !all_match && cls >= 0 && coeffs.(cls) = 0.0 && is_class ~sp ~sr ~centre cls ds then
        coeffs.(cls) <- cl.xcoeffs.(g)
      else all_match := false
    done;
    if !all_match then Some (centre, coeffs) else None
  end

let stencil_payload (cl : ccluster) (centre, coeffs) extras =
  { sbuf = cl.xbuf;
    sbase = cl.xbase + centre;
    s_sp = cl.xstrides.(0);
    s_sr = cl.xstrides.(1);
    s_st0 = cl.xsteps.(0);
    s_st1 = cl.xsteps.(1);
    s_st2 = cl.xsteps.(2);
    c0 = coeffs.(0);
    c1 = coeffs.(1);
    c2 = coeffs.(2);
    c3 = coeffs.(3);
    extras;
  }

(* Recognise a box stencil on rank-3 dense axes.  The stencil cluster's
   steps must be the source strides themselves (unit-scale reads). *)
let recognize_stencil3 (clusters : ccluster array) ~(osteps : int array) =
  if Array.length osteps <> 3 then None
  else begin
    let stencil_cl = ref None and extras = ref [] and ok = ref true in
    Array.iter
      (fun cl ->
        if is_single_read cl then extras := cl :: !extras
        else if !stencil_cl = None then stencil_cl := Some cl
        else ok := false)
      clusters;
    match (!ok, !stencil_cl) with
    | false, _ | _, None -> None
    | true, Some cl ->
        Option.map
          (fun classes -> stencil_payload cl classes (Array.of_list (List.rev !extras)))
          (box_classes cl)
  end

(* Whether the deltas, less [centre], are class [cls]'s offsets in the
   order a box enumerates them, outer axis first — the order
   [Stencil.body] writes them. *)
let in_lex_order ~sp ~sr ~centre cls (deltas : int array) =
  let k = ref 0 and ok = ref true in
  for a = -1 to 1 do
    for b = -1 to 1 do
      for c = -1 to 1 do
        if abs a + abs b + abs c = cls then begin
          if !k >= Array.length deltas || deltas.(!k) - centre <> (a * sp) + (b * sr) + c then
            ok := false;
          incr k
        end
      done
    done
  done;
  !ok && !k = Array.length deltas

(* The box stencil of a cluster whose groups are its distance classes
   in decreasing order, each with its deltas in box order and a
   non-zero coefficient: the shape in which [Stencil.body] writes
   every NAS-MG operator.  Its payload has no extras. *)
let lex_stencil (cl : ccluster) =
  match box_classes cl with
  | None -> None
  | Some ((centre, _) as box) ->
      let sp = cl.xstrides.(0) and sr = cl.xstrides.(1) in
      let cls_of ds = class_of_size (Array.length ds) in
      let ordered = ref true in
      for g = 0 to Array.length cl.xdeltas - 1 do
        let cls = cls_of cl.xdeltas.(g) in
        if
          (g > 0 && cls >= cls_of cl.xdeltas.(g - 1))
          || cl.xcoeffs.(g) = 0.0
          || not (in_lex_order ~sp ~sr ~centre cls cl.xdeltas.(g))
        then ordered := false
      done;
      if !ordered then Some (stencil_payload cl box [||]) else None

(* Recognise a body of exactly two box-stencil clusters, each in the
   shape [lex_stencil] accepts on its own strides and walk steps: the
   fused restriction + residual of a coarse level, whose restriction
   walks the fine grid at step 2 and whose residual operator walks the
   coarse grid at step 1.  Any other two-stencil body (another group
   order, extras) stays on the tier ladder. *)
let recognize_stencil2 (clusters : ccluster array) ~(osteps : int array) =
  if Array.length osteps <> 3 || Array.exists is_single_read clusters then None
  else match Array.map lex_stencil clusters with [| Some x; Some y |] -> Some (x, y) | _ -> None

(* ------------------------------------------------------------------ *)
(* Code generation for the fixed nests.  Their element loops must
   compile like the Fortran port's (mg_f77.ml), and three rules get
   them there under ocamlopt's Closure middle-end (DESIGN.md §3.3):

   - Coefficients and [const] are unboxed locals.  A float stays in a
     register only when it is let-bound to float arithmetic or to a
     float-array load; a field of a mixed record ([stencil3.c0]) or a
     float argument is a pointer to a boxed float, reloaded at every
     use.  {!unboxed} turns such a binding into arithmetic.
   - Row loops neither allocate nor call.  Element helpers are closed
     top-level [@inline] functions (an inlined local closure still
     reads what it captures through its environment block), and each
     row kernel is its own [@inline never] function taking no unboxed
     float, with no call in it: ocamlopt saves no register across a
     call, so every value live across one — a call per row in an
     enclosing loop nest, say — is read from the stack in the element
     loop.  Extra operands
     are reached through their [ccluster] records: an array of
     bigarrays is a generic array, whose every read tests for a float
     array and boxes on that path.
   - Every element keeps the operation order of the nest it
     specialises, and a specialised branch takes a body only when every
     term it spells out is present in it, so the branch is
     bitwise-identical to the general fallback by construction. *)

(* [x *. 1.0] is [x] for every double (a signalling NaN comes out
   quiet, as the arithmetic consuming it would make it anyway). *)
let[@inline] unboxed (x : float) = x *. 1.0

let[@inline] get (b : Ndarray.buffer) p = Bigarray.Array1.unsafe_get b p
let[@inline] set (b : Ndarray.buffer) p (v : float) = Bigarray.Array1.unsafe_set b p v

(* One counter per row loop of the fixed nests,
   [kernel.branch.<nest>.<body>], bumped when a part is compiled to
   that loop ([choose_k3]; replays run the same loop).  The reference
   oracle reads them to prove that every branch and its fallback ran.
   Counting at compile time keeps the calls free of a second atomic. *)
let branches = ref []

let branch name =
  let c = Metrics.counter ("kernel.branch." ^ name) in
  branches := (name, c) :: !branches;
  c

let branch_counts () = List.rev_map (fun (name, c) -> (name, Metrics.value c)) !branches

(* ------------------------------------------------------------------ *)
(* Box stencil rows.  A row kernel computes output row ([k0], [k1]) of
   a piece: from the source row's centre [b0], the output row [ob] and
   the extras' rows, its element loop adds [const + c0·centre], then
   each present distance class, then each extra, in that order. *)

let[@inline] src_row (st : stencil3) k0 k1 = st.sbase + (k0 * st.s_st0) + (k1 * st.s_st1)
let[@inline] out_row ~obase (osteps : int array) k0 k1 = obase + (k0 * osteps.(0)) + (k1 * osteps.(1))

let[@inline] extra_row (x : ccluster) k0 k1 =
  x.xbase + x.xdeltas.(0).(0) + (k0 * x.xsteps.(0)) + (k1 * x.xsteps.(1))

let[@inline] faces b ~sp ~sr p =
  get b (p - 1) +. get b (p + 1) +. get b (p - sr) +. get b (p + sr) +. get b (p - sp)
  +. get b (p + sp)

let[@inline] edges b ~sp ~sr p =
  get b (p - sr - 1) +. get b (p - sr + 1) +. get b (p + sr - 1) +. get b (p + sr + 1)
  +. get b (p - sp - 1) +. get b (p - sp + 1) +. get b (p + sp - 1) +. get b (p + sp + 1)
  +. get b (p - sp - sr) +. get b (p - sp + sr) +. get b (p + sp - sr) +. get b (p + sp + sr)

let[@inline] corners b ~sp ~sr p =
  get b (p - sp - sr - 1) +. get b (p - sp - sr + 1) +. get b (p - sp + sr - 1)
  +. get b (p - sp + sr + 1) +. get b (p + sp - sr - 1) +. get b (p + sp - sr + 1)
  +. get b (p + sp + sr - 1) +. get b (p + sp + sr + 1)

(* full 27-point operator (projection P, interpolation Q) *)
let[@inline never] st_full_row (st : stencil3) const out ~obase ~osteps n k0 k1 =
  let buf = st.sbuf and sp = st.s_sp and sr = st.s_sr and s = st.s_st2 in
  let const = unboxed const and c0 = unboxed st.c0 and c1 = unboxed st.c1 in
  let c2 = unboxed st.c2 and c3 = unboxed st.c3 in
  let b0 = src_row st k0 k1 and ob = out_row ~obase osteps k0 k1 and os = osteps.(2) in
  for k = 0 to n - 1 do
    let p = b0 + (k * s) in
    set out (ob + (k * os))
      (const +. (c0 *. get buf p) +. (c1 *. faces buf ~sp ~sr p) +. (c2 *. edges buf ~sp ~sr p)
      +. (c3 *. corners buf ~sp ~sr p))
  done

let[@inline never] st_c023_row (st : stencil3) const out ~obase ~osteps n k0 k1 =
  let buf = st.sbuf and sp = st.s_sp and sr = st.s_sr and s = st.s_st2 in
  let const = unboxed const and c0 = unboxed st.c0 in
  let c2 = unboxed st.c2 and c3 = unboxed st.c3 in
  let b0 = src_row st k0 k1 and ob = out_row ~obase osteps k0 k1 and os = osteps.(2) in
  for k = 0 to n - 1 do
    let p = b0 + (k * s) in
    set out (ob + (k * os))
      (const +. (c0 *. get buf p) +. (c2 *. edges buf ~sp ~sr p) +. (c3 *. corners buf ~sp ~sr p))
  done

let[@inline never] st_c012_row (st : stencil3) const out ~obase ~osteps n k0 k1 =
  let buf = st.sbuf and sp = st.s_sp and sr = st.s_sr and s = st.s_st2 in
  let const = unboxed const and c0 = unboxed st.c0 in
  let c1 = unboxed st.c1 and c2 = unboxed st.c2 in
  let b0 = src_row st k0 k1 and ob = out_row ~obase osteps k0 k1 and os = osteps.(2) in
  for k = 0 to n - 1 do
    let p = b0 + (k * s) in
    set out (ob + (k * os))
      (const +. (c0 *. get buf p) +. (c1 *. faces buf ~sp ~sr p) +. (c2 *. edges buf ~sp ~sr p))
  done

(* residual: v - A·u *)
let[@inline never] st_resid_row (st : stencil3) const out ~obase ~osteps n k0 k1 =
  let buf = st.sbuf and sp = st.s_sp and sr = st.s_sr and s = st.s_st2 in
  let const = unboxed const and c0 = unboxed st.c0 in
  let c2 = unboxed st.c2 and c3 = unboxed st.c3 in
  let b0 = src_row st k0 k1 and ob = out_row ~obase osteps k0 k1 and os = osteps.(2) in
  let x = st.extras.(0) in
  let xb = x.xbuf and xc = x.xcoeffs.(0) and xp = extra_row x k0 k1 and xs = x.xsteps.(2) in
  for k = 0 to n - 1 do
    let p = b0 + (k * s) in
    set out (ob + (k * os))
      (const +. (c0 *. get buf p) +. (c2 *. edges buf ~sp ~sr p) +. (c3 *. corners buf ~sp ~sr p)
      +. (xc *. get xb (xp + (k * xs))))
  done

(* smoother applied into a sum: z + S·r *)
let[@inline never] st_psinv_row (st : stencil3) const out ~obase ~osteps n k0 k1 =
  let buf = st.sbuf and sp = st.s_sp and sr = st.s_sr and s = st.s_st2 in
  let const = unboxed const and c0 = unboxed st.c0 in
  let c1 = unboxed st.c1 and c2 = unboxed st.c2 in
  let b0 = src_row st k0 k1 and ob = out_row ~obase osteps k0 k1 and os = osteps.(2) in
  let x = st.extras.(0) in
  let xb = x.xbuf and xc = x.xcoeffs.(0) and xp = extra_row x k0 k1 and xs = x.xsteps.(2) in
  for k = 0 to n - 1 do
    let p = b0 + (k * s) in
    set out (ob + (k * os))
      (const +. (c0 *. get buf p) +. (c1 *. faces buf ~sp ~sr p) +. (c2 *. edges buf ~sp ~sr p)
      +. (xc *. get xb (xp + (k * xs))))
  done

(* general fallback: any coefficient pattern, any extras *)
let[@inline never] st_any_row (st : stencil3) const out ~obase ~osteps n k0 k1 =
  let buf = st.sbuf and sp = st.s_sp and sr = st.s_sr and s = st.s_st2 in
  let const = unboxed const and c0 = unboxed st.c0 and c1 = unboxed st.c1 in
  let c2 = unboxed st.c2 and c3 = unboxed st.c3 in
  let has_c1 = c1 <> 0.0 and has_c2 = c2 <> 0.0 and has_c3 = c3 <> 0.0 in
  let b0 = src_row st k0 k1 and ob = out_row ~obase osteps k0 k1 and os = osteps.(2) in
  let xs = st.extras in
  for k = 0 to n - 1 do
    let p = b0 + (k * s) in
    let acc = ref (const +. (c0 *. get buf p)) in
    if has_c1 then acc := !acc +. (c1 *. faces buf ~sp ~sr p);
    if has_c2 then acc := !acc +. (c2 *. edges buf ~sp ~sr p);
    if has_c3 then acc := !acc +. (c3 *. corners buf ~sp ~sr p);
    for e = 0 to Array.length xs - 1 do
      let x = Array.unsafe_get xs e in
      acc :=
        !acc
        +. Array.unsafe_get x.xcoeffs 0
           *. get x.xbuf (extra_row x k0 k1 + (k * Array.unsafe_get x.xsteps 2))
    done;
    set out (ob + (k * os)) !acc
  done

let b_st_full = branch "stencil.full"
let b_st_c023 = branch "stencil.c023"
let b_st_c012 = branch "stencil.c012"
let b_st_resid = branch "stencil.resid"
let b_st_psinv = branch "stencil.psinv"
let b_st_any = branch "stencil.any"

(* The row kernel for a stencil payload, and its counter: a branchless
   loop per common coefficient pattern and extra count (c0/c2 are
   present in every NAS-MG operator), the general fallback otherwise.
   Each specialised row spells out the fallback's order for its
   pattern, and takes a body only when every class it spells out is
   present: the fallback skips an absent class, and adding [0 · sum]
   instead is not exact (a -0.0 accumulator turns +0.0, an infinite
   sum NaN). *)
let stencil_row (st : stencil3) =
  let ne = Array.length st.extras in
  let has_c1 = st.c1 <> 0.0 and has_c2 = st.c2 <> 0.0 and has_c3 = st.c3 <> 0.0 in
  if not has_c2 then (b_st_any, st_any_row)
  else if ne = 0 && has_c1 && has_c3 then (b_st_full, st_full_row)
  else if ne = 0 && (not has_c1) && has_c3 then (b_st_c023, st_c023_row)
  else if ne = 0 && has_c1 && not has_c3 then (b_st_c012, st_c012_row)
  else if ne = 1 && (not has_c1) && has_c3 then (b_st_resid, st_resid_row)
  else if ne = 1 && has_c1 && not has_c3 then (b_st_psinv, st_psinv_row)
  else (b_st_any, st_any_row)

(* Specialised nest for a recognised stencil (+ extras). *)
let run_stencil3 ~const (st : stencil3) (out : Ndarray.buffer) ~obase ~osteps
    ~(counts : int array) =
  let _, row = stencil_row st in
  for k0 = 0 to counts.(0) - 1 do
    for k1 = 0 to counts.(1) - 1 do
      row st const out ~obase ~osteps counts.(2) k0 k1
    done
  done

(* ------------------------------------------------------------------ *)
(* Two box stencils in box order ([recognize_stencil2]).  The element
   loop replays the generic nest's sequence exactly — [const], then each
   cluster in array order, each of its groups in group order as
   [acc +. c *. (0.0 +. d0 +. d1 …)] with the deltas in their stored
   order — so the body's results are the ones the cfun, native and
   generic tiers compute for it.  What it drops is their per-group
   machinery: each class sum spells out the box order with the
   neighbour offsets let-bound, like the one-stencil rows, and the row
   runs once instead of once per (cluster, group) pass.  A class is
   present exactly when its coefficient is non-zero. *)

let[@inline] lex_faces b ~sp ~sr p =
  0.0 +. get b (p - sp) +. get b (p - sr) +. get b (p - 1) +. get b (p + 1) +. get b (p + sr)
  +. get b (p + sp)

let[@inline] lex_edges b ~sp ~sr p =
  0.0 +. get b (p - sp - sr) +. get b (p - sp - 1) +. get b (p - sp + 1) +. get b (p - sp + sr)
  +. get b (p - sr - 1) +. get b (p - sr + 1) +. get b (p + sr - 1) +. get b (p + sr + 1)
  +. get b (p + sp - sr) +. get b (p + sp - 1) +. get b (p + sp + 1) +. get b (p + sp + sr)

let[@inline] lex_corners b ~sp ~sr p =
  0.0 +. get b (p - sp - sr - 1) +. get b (p - sp - sr + 1) +. get b (p - sp + sr - 1)
  +. get b (p - sp + sr + 1) +. get b (p + sp - sr - 1) +. get b (p + sp - sr + 1)
  +. get b (p + sp + sr - 1) +. get b (p + sp + sr + 1)

let[@inline never] st2_lex_row (x : stencil3) (y : stencil3) const out ~obase ~osteps n k0 k1 =
  let const = unboxed const in
  let bx = x.sbuf and spx = x.s_sp and srx = x.s_sr and sx = x.s_st2 in
  let by = y.sbuf and spy = y.s_sp and sry = y.s_sr and sy = y.s_st2 in
  let x0 = unboxed x.c0 and x1 = unboxed x.c1 and x2 = unboxed x.c2 and x3 = unboxed x.c3 in
  let y0 = unboxed y.c0 and y1 = unboxed y.c1 and y2 = unboxed y.c2 and y3 = unboxed y.c3 in
  let hx0 = x0 <> 0.0 and hx1 = x1 <> 0.0 and hx2 = x2 <> 0.0 and hx3 = x3 <> 0.0 in
  let hy0 = y0 <> 0.0 and hy1 = y1 <> 0.0 and hy2 = y2 <> 0.0 and hy3 = y3 <> 0.0 in
  let px = src_row x k0 k1 and py = src_row y k0 k1 and ob = out_row ~obase osteps k0 k1 in
  let os = osteps.(2) in
  for k = 0 to n - 1 do
    let p = px + (k * sx) and q = py + (k * sy) in
    let acc = ref const in
    if hx3 then acc := !acc +. (x3 *. lex_corners bx ~sp:spx ~sr:srx p);
    if hx2 then acc := !acc +. (x2 *. lex_edges bx ~sp:spx ~sr:srx p);
    if hx1 then acc := !acc +. (x1 *. lex_faces bx ~sp:spx ~sr:srx p);
    if hx0 then acc := !acc +. (x0 *. (0.0 +. get bx p));
    if hy3 then acc := !acc +. (y3 *. lex_corners by ~sp:spy ~sr:sry q);
    if hy2 then acc := !acc +. (y2 *. lex_edges by ~sp:spy ~sr:sry q);
    if hy1 then acc := !acc +. (y1 *. lex_faces by ~sp:spy ~sr:sry q);
    if hy0 then acc := !acc +. (y0 *. (0.0 +. get by q));
    set out (ob + (k * os)) !acc
  done

let run_stencil2_lex ~const x y (out : Ndarray.buffer) ~obase ~osteps ~(counts : int array) =
  for k0 = 0 to counts.(0) - 1 do
    for k1 = 0 to counts.(1) - 1 do
      st2_lex_row x y const out ~obase ~osteps counts.(2) k0 k1
    done
  done

let b_st2_lex = branch "stencil2.lex"

(* ------------------------------------------------------------------ *)
(* Line-buffered variant of the box-stencil kernel — the Fortran
   port's resid/psinv technique (mg_f77.ml).  Per output row, the four
   off-row face neighbours and the four edge diagonals of every inner
   position are summed once into [u1]/[u2]; the element loop then
   combines three adjacent entries of each, replacing 20 of the 26
   neighbour loads by 4 buffered adds plus 6 buffer reads.  Requires a
   unit inner walk step ([s_st2 = 1]) so buffer index and inner offset
   coincide; every read it performs is one the plain kernel performs
   too, so in-bounds-ness is inherited.  The groupings
   [u2 + u1(i-1) + u1(i+1)] and [u2(i-1) + u2(i+1)] are exactly the
   Fortran port's, which keeps the two implementations' floating-point
   results within ulps of each other.  In the rows below, element [k]
   reads the source at [b0 + k] and the buffers at [i = k + 1]. *)

let[@inline] lb_faces b (u1 : float array) p i = get b (p - 1) +. get b (p + 1) +. Array.unsafe_get u1 i

let[@inline] lb_edges (u1 : float array) (u2 : float array) i =
  Array.unsafe_get u2 i +. Array.unsafe_get u1 (i - 1) +. Array.unsafe_get u1 (i + 1)

let[@inline] lb_corners (u2 : float array) i = Array.unsafe_get u2 (i - 1) +. Array.unsafe_get u2 (i + 1)

(* full 27-point operator *)
let[@inline never] lb_full_row (st : stencil3) const u1 u2 out ~obase ~osteps n k0 k1 =
  let buf = st.sbuf in
  let const = unboxed const and c0 = unboxed st.c0 and c1 = unboxed st.c1 in
  let c2 = unboxed st.c2 and c3 = unboxed st.c3 in
  let b0 = src_row st k0 k1 and ob = out_row ~obase osteps k0 k1 and os = osteps.(2) in
  let o = ref ob in
  for k = 0 to n - 1 do
    let p = b0 + k and i = k + 1 in
    set out !o
      (const +. (c0 *. get buf p) +. (c1 *. lb_faces buf u1 p i) +. (c2 *. lb_edges u1 u2 i)
      +. (c3 *. lb_corners u2 i));
    o := !o + os
  done

let[@inline never] lb_c023_row (st : stencil3) const u1 u2 out ~obase ~osteps n k0 k1 =
  let buf = st.sbuf in
  let const = unboxed const and c0 = unboxed st.c0 in
  let c2 = unboxed st.c2 and c3 = unboxed st.c3 in
  let b0 = src_row st k0 k1 and ob = out_row ~obase osteps k0 k1 and os = osteps.(2) in
  let o = ref ob in
  for k = 0 to n - 1 do
    let p = b0 + k and i = k + 1 in
    set out !o
      (const +. (c0 *. get buf p) +. (c2 *. lb_edges u1 u2 i) +. (c3 *. lb_corners u2 i));
    o := !o + os
  done

let[@inline never] lb_c012_row (st : stencil3) const u1 u2 out ~obase ~osteps n k0 k1 =
  let buf = st.sbuf in
  let const = unboxed const and c0 = unboxed st.c0 in
  let c1 = unboxed st.c1 and c2 = unboxed st.c2 in
  let b0 = src_row st k0 k1 and ob = out_row ~obase osteps k0 k1 and os = osteps.(2) in
  let o = ref ob in
  for k = 0 to n - 1 do
    let p = b0 + k and i = k + 1 in
    set out !o
      (const +. (c0 *. get buf p) +. (c1 *. lb_faces buf u1 p i) +. (c2 *. lb_edges u1 u2 i));
    o := !o + os
  done

(* residual: v - A·u *)
let[@inline never] lb_resid_row (st : stencil3) const u1 u2 out ~obase ~osteps n k0 k1 =
  let buf = st.sbuf in
  let const = unboxed const and c0 = unboxed st.c0 in
  let c2 = unboxed st.c2 and c3 = unboxed st.c3 in
  let b0 = src_row st k0 k1 and ob = out_row ~obase osteps k0 k1 and os = osteps.(2) in
  let x = st.extras.(0) in
  let xb = x.xbuf and xc = x.xcoeffs.(0) and xp = extra_row x k0 k1 and xs = x.xsteps.(2) in
  let o = ref ob and q = ref xp in
  for k = 0 to n - 1 do
    let p = b0 + k and i = k + 1 in
    set out !o
      (const +. (c0 *. get buf p) +. (c2 *. lb_edges u1 u2 i) +. (c3 *. lb_corners u2 i)
      +. (xc *. get xb !q));
    o := !o + os;
    q := !q + xs
  done

(* smoother applied into a sum: z + S·r *)
let[@inline never] lb_psinv_row (st : stencil3) const u1 u2 out ~obase ~osteps n k0 k1 =
  let buf = st.sbuf in
  let const = unboxed const and c0 = unboxed st.c0 in
  let c1 = unboxed st.c1 and c2 = unboxed st.c2 in
  let b0 = src_row st k0 k1 and ob = out_row ~obase osteps k0 k1 and os = osteps.(2) in
  let x = st.extras.(0) in
  let xb = x.xbuf and xc = x.xcoeffs.(0) and xp = extra_row x k0 k1 and xs = x.xsteps.(2) in
  let o = ref ob and q = ref xp in
  for k = 0 to n - 1 do
    let p = b0 + k and i = k + 1 in
    set out !o
      (const +. (c0 *. get buf p) +. (c1 *. lb_faces buf u1 p i) +. (c2 *. lb_edges u1 u2 i)
      +. (xc *. get xb !q));
    o := !o + os;
    q := !q + xs
  done

(* smoother applied into a sum of two: u + z + S·r *)
let[@inline never] lb_psinv2_row (st : stencil3) const u1 u2 out ~obase ~osteps n k0 k1 =
  let buf = st.sbuf in
  let const = unboxed const and c0 = unboxed st.c0 in
  let c1 = unboxed st.c1 and c2 = unboxed st.c2 in
  let b0 = src_row st k0 k1 and ob = out_row ~obase osteps k0 k1 and os = osteps.(2) in
  let x = st.extras.(0) and y = st.extras.(1) in
  let xb = x.xbuf and xc = x.xcoeffs.(0) and xp = extra_row x k0 k1 and xs = x.xsteps.(2) in
  let yb = y.xbuf and yc = y.xcoeffs.(0) and yp = extra_row y k0 k1 and ys = y.xsteps.(2) in
  let o = ref ob and q = ref xp and r = ref yp in
  for k = 0 to n - 1 do
    let p = b0 + k and i = k + 1 in
    set out !o
      (const +. (c0 *. get buf p) +. (c1 *. lb_faces buf u1 p i) +. (c2 *. lb_edges u1 u2 i)
      +. (xc *. get xb !q)
      +. (yc *. get yb !r));
    o := !o + os;
    q := !q + xs;
    r := !r + ys
  done

(* general fallback: any coefficient pattern, any extras *)
let[@inline never] lb_any_row (st : stencil3) const u1 u2 out ~obase ~osteps n k0 k1 =
  let buf = st.sbuf in
  let const = unboxed const and c0 = unboxed st.c0 and c1 = unboxed st.c1 in
  let c2 = unboxed st.c2 and c3 = unboxed st.c3 in
  let has_c1 = c1 <> 0.0 and has_c2 = c2 <> 0.0 and has_c3 = c3 <> 0.0 in
  let b0 = src_row st k0 k1 and ob = out_row ~obase osteps k0 k1 and os = osteps.(2) in
  let xs = st.extras in
  for k = 0 to n - 1 do
    let p = b0 + k and i = k + 1 in
    let acc = ref (const +. (c0 *. get buf p)) in
    if has_c1 then acc := !acc +. (c1 *. lb_faces buf u1 p i);
    if has_c2 then acc := !acc +. (c2 *. lb_edges u1 u2 i);
    if has_c3 then acc := !acc +. (c3 *. lb_corners u2 i);
    for e = 0 to Array.length xs - 1 do
      let x = Array.unsafe_get xs e in
      acc :=
        !acc
        +. Array.unsafe_get x.xcoeffs 0
           *. get x.xbuf (extra_row x k0 k1 + (k * Array.unsafe_get x.xsteps 2))
    done;
    set out (ob + (k * os)) !acc
  done

let b_lb_full = branch "linebuf.full"
let b_lb_c023 = branch "linebuf.c023"
let b_lb_c012 = branch "linebuf.c012"
let b_lb_resid = branch "linebuf.resid"
let b_lb_psinv = branch "linebuf.psinv"
let b_lb_psinv2 = branch "linebuf.psinv2"
let b_lb_any = branch "linebuf.any"

(* As [stencil_row], for the line-buffered rows. *)
let linebuf_row (st : stencil3) =
  let ne = Array.length st.extras in
  let has_c1 = st.c1 <> 0.0 and has_c2 = st.c2 <> 0.0 and has_c3 = st.c3 <> 0.0 in
  if not has_c2 then (b_lb_any, lb_any_row)
  else if ne = 0 && has_c1 && has_c3 then (b_lb_full, lb_full_row)
  else if ne = 0 && (not has_c1) && has_c3 then (b_lb_c023, lb_c023_row)
  else if ne = 0 && has_c1 && not has_c3 then (b_lb_c012, lb_c012_row)
  else if ne = 1 && (not has_c1) && has_c3 then (b_lb_resid, lb_resid_row)
  else if ne = 1 && has_c1 && not has_c3 then (b_lb_psinv, lb_psinv_row)
  else if ne = 2 && has_c1 && not has_c3 then (b_lb_psinv2, lb_psinv2_row)
  else (b_lb_any, lb_any_row)

(* The row's plane sums, one element beyond each end. *)
let[@inline never] fill_line_buffers (st : stencil3) (u1 : float array) (u2 : float array) k0 k1 =
  let buf = st.sbuf and sp = st.s_sp and sr = st.s_sr and b0 = src_row st k0 k1 in
  for i = 0 to Array.length u1 - 1 do
    let q = b0 + i - 1 in
    Array.unsafe_set u1 i (get buf (q - sr) +. get buf (q + sr) +. get buf (q - sp) +. get buf (q + sp));
    Array.unsafe_set u2 i
      (get buf (q - sp - sr) +. get buf (q - sp + sr) +. get buf (q + sp - sr)
      +. get buf (q + sp + sr))
  done

let run_stencil3_linebuf ~const (st : stencil3) (out : Ndarray.buffer) ~obase ~osteps
    ~(counts : int array) =
  let _, row = linebuf_row st in
  let n = counts.(2) in
  let u1 = Array.make (n + 2) 0.0 and u2 = Array.make (n + 2) 0.0 in
  for k0 = 0 to counts.(0) - 1 do
    for k1 = 0 to counts.(1) - 1 do
      fill_line_buffers st u1 u2 k0 k1;
      row st const u1 u2 out ~obase ~osteps n k0 k1
    done
  done

(* ------------------------------------------------------------------ *)
(* Flat-weighted kernel: one cluster with few reads (the specialised
   interpolation bodies that residue splitting produces).  Coefficients
   are pre-multiplied into per-read weights [w] at read offsets [d],
   trading the factored grouping for a single tight loop — profitable
   only when the read count is small, hence the cap at recognition
   time.  A row adds [w·x] terms to [const] in read order: unrolled for
   the prolongation's 2-, 4- and 8-read parity classes (its 1-read
   class is a zip), looped otherwise.  [s] is the source's row step.
   Flat and zip pieces walk their longest axis innermost
   ({!Cfun.row_axis}), so a 64×64×1 border face runs 64 rows of 64,
   not 4096 rows of one. *)

let[@inline never] flat_row2 (buf : Ndarray.buffer) const (w : float array) (d : int array) b s
    out ob os n =
  let const = unboxed const and w0 = w.(0) and w1 = w.(1) and d0 = d.(0) and d1 = d.(1) in
  for k = 0 to n - 1 do
    let p = b + (k * s) in
    set out (ob + (k * os)) (const +. (w0 *. get buf (p + d0)) +. (w1 *. get buf (p + d1)))
  done

let[@inline never] flat_row4 (buf : Ndarray.buffer) const (w : float array) (d : int array) b s
    out ob os n =
  let const = unboxed const and w0 = w.(0) and w1 = w.(1) and w2 = w.(2) and w3 = w.(3) in
  let d0 = d.(0) and d1 = d.(1) and d2 = d.(2) and d3 = d.(3) in
  for k = 0 to n - 1 do
    let p = b + (k * s) in
    set out (ob + (k * os))
      (const +. (w0 *. get buf (p + d0)) +. (w1 *. get buf (p + d1)) +. (w2 *. get buf (p + d2))
      +. (w3 *. get buf (p + d3)))
  done

let[@inline never] flat_row8 (buf : Ndarray.buffer) const (w : float array) (d : int array) b s
    out ob os n =
  let const = unboxed const and w0 = w.(0) and w1 = w.(1) and w2 = w.(2) and w3 = w.(3) in
  let w4 = w.(4) and w5 = w.(5) and w6 = w.(6) and w7 = w.(7) in
  let d0 = d.(0) and d1 = d.(1) and d2 = d.(2) and d3 = d.(3) in
  let d4 = d.(4) and d5 = d.(5) and d6 = d.(6) and d7 = d.(7) in
  for k = 0 to n - 1 do
    let p = b + (k * s) in
    set out (ob + (k * os))
      (const +. (w0 *. get buf (p + d0)) +. (w1 *. get buf (p + d1)) +. (w2 *. get buf (p + d2))
      +. (w3 *. get buf (p + d3))
      +. (w4 *. get buf (p + d4))
      +. (w5 *. get buf (p + d5))
      +. (w6 *. get buf (p + d6))
      +. (w7 *. get buf (p + d7)))
  done

let[@inline never] flat_rown (buf : Ndarray.buffer) const (w : float array) (d : int array) b s
    out ob os n =
  let const = unboxed const in
  for k = 0 to n - 1 do
    let p = b + (k * s) in
    let acc = ref const in
    for t = 0 to Array.length w - 1 do
      acc := !acc +. (Array.unsafe_get w t *. get buf (p + Array.unsafe_get d t))
    done;
    set out (ob + (k * os)) !acc
  done

let b_flat2 = branch "flat.2"
let b_flat4 = branch "flat.4"
let b_flat8 = branch "flat.8"
let b_flatn = branch "flat.n"

let flat_row reads =
  match reads with
  | 2 -> (b_flat2, flat_row2)
  | 4 -> (b_flat4, flat_row4)
  | 8 -> (b_flat8, flat_row8)
  | _ -> (b_flatn, flat_rown)

let run_flat3 ~const (cl : ccluster) (out : Ndarray.buffer) ~obase ~osteps
    ~(counts : int array) =
  let d = Array.concat (Array.to_list cl.xdeltas) in
  let w =
    Array.concat
      (Array.to_list (Array.mapi (fun gi ds -> Array.map (fun _ -> cl.xcoeffs.(gi)) ds) cl.xdeltas))
  in
  let _, row = flat_row (Array.length w) in
  let a = Cfun.row_axis counts in
  let u = if a = 0 then 1 else 0 and v = if a = 2 then 1 else 2 in
  let xsu = cl.xsteps.(u) and xsv = cl.xsteps.(v) and s = cl.xsteps.(a) in
  let osu = osteps.(u) and osv = osteps.(v) and os = osteps.(a) and n = counts.(a) in
  for ku = 0 to counts.(u) - 1 do
    for kv = 0 to counts.(v) - 1 do
      row cl.xbuf const w d
        (cl.xbase + (ku * xsu) + (kv * xsv))
        s out
        (obase + (ku * osu) + (kv * osv))
        os n
    done
  done

(* ------------------------------------------------------------------ *)
(* Element-wise nests: zips (every cluster a single read: maps, zips
   and the affine combinations fusion builds from them), constants (a
   zip of no read) and identity copies.  A nest walks a box along its
   row axis (the longest, chosen once) inside the two other axes u and
   v; each element adds [c·x] terms to [const] in read order, and a
   copy moves the source's bits through a register, which keeps them.
   A zip or copy part runs one nest; a ghost-shell group (below) runs
   one per member, so both share these loops.  Reads name their buffer
   by cluster index: a part's own clusters, or a group's carriers. *)

type zip_read = {
  r_cl : int;  (* the cluster holding the buffer *)
  r_base : int;  (* flat position read for the nest's first element *)
  r_su : int;  (* walk steps along u, v *)
  r_sv : int;
  r_sa : int;  (* … and along the row axis *)
}

type zip_nest = {
  h_copy : bool;  (* an identity copy: bits moved, no arithmetic *)
  h_const : float;
  h_coeffs : float array;  (* one per read *)
  h_reads : zip_read array;
  h_obase : int;
  h_ou : int;  (* output steps along u, v and the row axis *)
  h_ov : int;
  h_oa : int;
  h_nu : int;  (* counts along u, v and the row axis *)
  h_nv : int;
  h_na : int;
}

(* The nest of a zip, copy or constant box whose cluster [i] is read
   through cluster [slot.(i)]. *)
let zip_nest ~copy ~const (clusters : ccluster array) (slot : int array) ~obase
    ~(osteps : int array) ~(counts : int array) =
  let a = Cfun.row_axis counts in
  let u = if a = 0 then 1 else 0 and v = if a = 2 then 1 else 2 in
  let read i (x : ccluster) =
    { r_cl = slot.(i);
      r_base = x.xbase + x.xdeltas.(0).(0);
      r_su = x.xsteps.(u);
      r_sv = x.xsteps.(v);
      r_sa = x.xsteps.(a);
    }
  in
  { h_copy = copy;
    h_const = const;
    h_coeffs = Array.map (fun (x : ccluster) -> x.xcoeffs.(0)) clusters;
    h_reads = Array.mapi read clusters;
    h_obase = obase;
    h_ou = osteps.(u);
    h_ov = osteps.(v);
    h_oa = osteps.(a);
    h_nu = counts.(u);
    h_nv = counts.(v);
    h_na = counts.(a);
  }

let[@inline never] nest_const (m : zip_nest) out =
  let const = unboxed m.h_const in
  let ou = m.h_ou and ov = m.h_ov and oa = m.h_oa and na = m.h_na and obase = m.h_obase in
  for ku = 0 to m.h_nu - 1 do
    for kv = 0 to m.h_nv - 1 do
      let ob = obase + (ku * ou) + (kv * ov) in
      for k = 0 to na - 1 do
        set out (ob + (k * oa)) const
      done
    done
  done

let[@inline never] nest_copy (m : zip_nest) (cls : ccluster array) out =
  let x = m.h_reads.(0) in
  let xb = cls.(x.r_cl).xbuf and xu = x.r_su and xv = x.r_sv and xa = x.r_sa and xbase = x.r_base in
  let ou = m.h_ou and ov = m.h_ov and oa = m.h_oa and na = m.h_na and obase = m.h_obase in
  for ku = 0 to m.h_nu - 1 do
    for kv = 0 to m.h_nv - 1 do
      let ob = obase + (ku * ou) + (kv * ov) and xp = xbase + (ku * xu) + (kv * xv) in
      for k = 0 to na - 1 do
        set out (ob + (k * oa)) (get xb (xp + (k * xa)))
      done
    done
  done

let[@inline never] nest_zip1 (m : zip_nest) (cls : ccluster array) out =
  let const = unboxed m.h_const and xc = m.h_coeffs.(0) in
  let x = m.h_reads.(0) in
  let xb = cls.(x.r_cl).xbuf and xu = x.r_su and xv = x.r_sv and xa = x.r_sa and xbase = x.r_base in
  let ou = m.h_ou and ov = m.h_ov and oa = m.h_oa and na = m.h_na and obase = m.h_obase in
  for ku = 0 to m.h_nu - 1 do
    for kv = 0 to m.h_nv - 1 do
      let ob = obase + (ku * ou) + (kv * ov) and xp = xbase + (ku * xu) + (kv * xv) in
      for k = 0 to na - 1 do
        set out (ob + (k * oa)) (const +. (xc *. get xb (xp + (k * xa))))
      done
    done
  done

let[@inline never] nest_zip2 (m : zip_nest) (cls : ccluster array) out =
  let const = unboxed m.h_const and xc = m.h_coeffs.(0) and yc = m.h_coeffs.(1) in
  let x = m.h_reads.(0) and y = m.h_reads.(1) in
  let xb = cls.(x.r_cl).xbuf and xu = x.r_su and xv = x.r_sv and xa = x.r_sa and xbase = x.r_base in
  let yb = cls.(y.r_cl).xbuf and yu = y.r_su and yv = y.r_sv and ya = y.r_sa and ybase = y.r_base in
  let ou = m.h_ou and ov = m.h_ov and oa = m.h_oa and na = m.h_na and obase = m.h_obase in
  for ku = 0 to m.h_nu - 1 do
    for kv = 0 to m.h_nv - 1 do
      let ob = obase + (ku * ou) + (kv * ov) in
      let xp = xbase + (ku * xu) + (kv * xv) and yp = ybase + (ku * yu) + (kv * yv) in
      for k = 0 to na - 1 do
        set out (ob + (k * oa))
          (const +. (xc *. get xb (xp + (k * xa))) +. (yc *. get yb (yp + (k * ya))))
      done
    done
  done

let[@inline never] nest_zip3 (m : zip_nest) (cls : ccluster array) out =
  let const = unboxed m.h_const in
  let xc = m.h_coeffs.(0) and yc = m.h_coeffs.(1) and zc = m.h_coeffs.(2) in
  let x = m.h_reads.(0) and y = m.h_reads.(1) and z = m.h_reads.(2) in
  let xb = cls.(x.r_cl).xbuf and xu = x.r_su and xv = x.r_sv and xa = x.r_sa and xbase = x.r_base in
  let yb = cls.(y.r_cl).xbuf and yu = y.r_su and yv = y.r_sv and ya = y.r_sa and ybase = y.r_base in
  let zb = cls.(z.r_cl).xbuf and zu = z.r_su and zv = z.r_sv and za = z.r_sa and zbase = z.r_base in
  let ou = m.h_ou and ov = m.h_ov and oa = m.h_oa and na = m.h_na and obase = m.h_obase in
  for ku = 0 to m.h_nu - 1 do
    for kv = 0 to m.h_nv - 1 do
      let ob = obase + (ku * ou) + (kv * ov) in
      let xp = xbase + (ku * xu) + (kv * xv) and yp = ybase + (ku * yu) + (kv * yv) in
      let zp = zbase + (ku * zu) + (kv * zv) in
      for k = 0 to na - 1 do
        set out (ob + (k * oa))
          (const +. (xc *. get xb (xp + (k * xa))) +. (yc *. get yb (yp + (k * ya)))
          +. (zc *. get zb (zp + (k * za))))
      done
    done
  done

let[@inline never] nest_zipn (m : zip_nest) (cls : ccluster array) out =
  let const = unboxed m.h_const in
  let reads = m.h_reads and coeffs = m.h_coeffs in
  let ou = m.h_ou and ov = m.h_ov and oa = m.h_oa and na = m.h_na and obase = m.h_obase in
  for ku = 0 to m.h_nu - 1 do
    for kv = 0 to m.h_nv - 1 do
      let ob = obase + (ku * ou) + (kv * ov) in
      for k = 0 to na - 1 do
        let acc = ref const in
        for e = 0 to Array.length reads - 1 do
          let x = Array.unsafe_get reads e in
          acc :=
            !acc
            +. Array.unsafe_get coeffs e
               *. get (Array.unsafe_get cls x.r_cl).xbuf
                    (x.r_base + (ku * x.r_su) + (kv * x.r_sv) + (k * x.r_sa))
        done;
        set out (ob + (k * oa)) !acc
      done
    done
  done

let b_zip0 = branch "zip.0"
let b_zip1 = branch "zip.1"
let b_zip2 = branch "zip.2"
let b_zip3 = branch "zip.3"
let b_zipn = branch "zip.n"

let zip_branch (clusters : ccluster array) =
  match Array.length clusters with
  | 0 -> b_zip0
  | 1 -> b_zip1
  | 2 -> b_zip2
  | 3 -> b_zip3
  | _ -> b_zipn

let run_nest (m : zip_nest) (cls : ccluster array) (out : Ndarray.buffer) =
  if m.h_copy then nest_copy m cls out
  else
    match Array.length m.h_reads with
    | 0 -> nest_const m out
    | 1 -> nest_zip1 m cls out
    | 2 -> nest_zip2 m cls out
    | 3 -> nest_zip3 m cls out
    | _ -> nest_zipn m cls out

(* A zip or copy part (or one piece of it), over its own clusters. *)
let run_zip3 ~copy ~const (clusters : ccluster array) (out : Ndarray.buffer) ~obase ~osteps
    ~counts =
  let slot = Array.init (Array.length clusters) Fun.id in
  run_nest (zip_nest ~copy ~const clusters slot ~obase ~osteps ~counts) clusters out

(* ------------------------------------------------------------------ *)
(* Ghost-shell groups.  The one-thick boundary slabs of a force — the
   26 parts of a periodic border, the shell parts of a consumer that
   reads one — are element-wise zips, copies or constants, and each
   used to be a kernel piece of its own.  A group runs them as one
   kernel: each member keeps its own nest (output layout and row axis,
   chosen once, at compile time) and reads through the group's
   clusters, one per distinct buffer, so a replay rebinds one cluster
   per buffer instead of one per member read.  Members run in order,
   each through {!run_nest}, so every element computes exactly what the
   member's own part computes. *)

(* A bare buffer carrier: a group's clusters, and a border walk's, only
   name buffers. *)
let carrier buf = { xbuf = buf; xbase = 0; xsteps = [||]; xstrides = [||]; xcoeffs = [||]; xdeltas = [||] }

let run_shell (members : zip_nest array) (cls : ccluster array) (out : Ndarray.buffer) =
  for i = 0 to Array.length members - 1 do
    run_nest (Array.unsafe_get members i) cls out
  done

(* ------------------------------------------------------------------ *)
(* The periodic border walk.  A rank-3 periodic border ([Plan.border],
   the 26 regions of [Border.setup_periodic_border], each reading its
   base at the wrap offset) fills its output's ghost shell from the
   output's own interior, in Fortran MG's comm3 order (mg_f77.ml): both
   x-faces of every interior row, then the two y rows of every interior
   plane, then the two z planes, the rows and planes as contiguous runs
   that include the ghost elements set before them.  Every shell
   element ends as the interior element at its wrap point, which is
   what the 26 parts compute, and only bits move.  [counts] are the
   output's extents and [osteps] its (contiguous) strides. *)

let[@inline never] copy_run (b : Ndarray.buffer) ~src ~dst n =
  for k = 0 to n - 1 do
    set b (dst + k) (get b (src + k))
  done

let run_border (b : Ndarray.buffer) ~(osteps : int array) ~(counts : int array) =
  let e0 = counts.(0) and e1 = counts.(1) and e2 = counts.(2) in
  let s0 = osteps.(0) and s1 = osteps.(1) in
  for i0 = 1 to e0 - 2 do
    for i1 = 1 to e1 - 2 do
      let row = (i0 * s0) + (i1 * s1) in
      set b row (get b (row + e2 - 2));
      set b (row + e2 - 1) (get b (row + 1))
    done
  done;
  for i0 = 1 to e0 - 2 do
    let p = i0 * s0 in
    copy_run b ~src:(p + ((e1 - 2) * s1)) ~dst:p e2;
    copy_run b ~src:(p + s1) ~dst:(p + ((e1 - 1) * s1)) e2
  done;
  copy_run b ~src:((e0 - 2) * s0) ~dst:0 s0;
  copy_run b ~src:s0 ~dst:((e0 - 1) * s0) s0

let shell_elements (counts : int array) =
  (counts.(0) * counts.(1) * counts.(2))
  - ((counts.(0) - 2) * (counts.(1) - 2) * (counts.(2) - 2))

(* Identity-copy detection: a part that just moves a contiguous row of
   one source runs as a copy nest ({!run_zip3}). *)
let is_plain_copy ~const (clusters : ccluster array) ~(osteps : int array) =
  const = 0.0
  && Array.length clusters = 1
  &&
  let cl = clusters.(0) in
  Array.length cl.xcoeffs = 1
  && cl.xcoeffs.(0) = 1.0
  && Array.length cl.xdeltas.(0) = 1
  && cl.xdeltas.(0) = [| 0 |]
  && Shape.equal cl.xsteps osteps
  && osteps.(Array.length osteps - 1) = 1

(* The rank-3 kernel choice, decided once when a part is compiled and
   reused on every (possibly cached) execution.  Stencil payloads carry
   the index of their cluster and of each extra within the part's
   cluster array so the payload can be rebound to fresh buffers. *)
type k3 =
  | K3copy
  | K3stencil of stencil3 * int * int array
  | K3stencil_lb of stencil3 * int * int array
  | K3stencil2 of stencil3 * stencil3
  | K3zip
  | K3flat
  | K3shell of zip_nest array
  | K3border
  | K3cfun of Cfun.t
  | K3native of Native.fn
  | K3generic

let k3_name = function
  | K3copy -> "copy"
  | K3stencil _ -> "stencil"
  | K3stencil_lb _ -> "linebuf"
  | K3stencil2 _ -> "stencil2"
  | K3zip -> "zip"
  | K3flat -> "flat"
  | K3shell _ -> "shell"
  | K3border -> "border"
  | K3cfun _ -> "cfun"
  | K3native _ -> "native"
  | K3generic -> "generic"

(* Rebuild a stencil payload against (freshly bound and/or base-shifted)
   clusters; [koff0] is the payload's displacement in whole axis-0
   steps (a parallel slab's offset in its part).  Compiled
   cfun kernels and shell groups read buffers from the live cluster
   array at run time, so they need no rebinding at all — and native
   kernels gather buffers and bases from the live clusters at each
   call ([Native.call]), likewise. *)
let rebind_stencil (clusters : ccluster array) ~koff0 s si eidx =
  { s with
    sbuf = clusters.(si).xbuf;
    sbase = s.sbase + (koff0 * s.s_st0);
    extras = Array.map (fun i -> clusters.(i)) eidx;
  }

let rebind_k3 (clusters : ccluster array) ~koff0 = function
  | (K3copy | K3zip | K3flat | K3shell _ | K3border | K3cfun _ | K3native _ | K3generic) as k -> k
  | K3stencil (s, si, eidx) -> K3stencil (rebind_stencil clusters ~koff0 s si eidx, si, eidx)
  | K3stencil_lb (s, si, eidx) ->
      K3stencil_lb (rebind_stencil clusters ~koff0 s si eidx, si, eidx)
  | K3stencil2 (x, y) ->
      K3stencil2
        ( rebind_stencil clusters ~koff0 x 0 [||],
          rebind_stencil clusters ~koff0 y 1 [||] )

let flat_reads (cl : ccluster) = Array.fold_left (fun acc ds -> acc + Array.length ds) 0 cl.xdeltas

(* [native] carries the AOT cache directory when the native tier is
   on.  The tier ladder for unrecognised bodies is native → cfun →
   generic: a native compile that cannot be had (unsupported shape,
   missing compiler, rejected object) degrades to whatever the next
   tier offers.  Native deliberately takes over only this rung — the
   fixed kernels above it are shared by every tier, so the bitwise
   identity gate across tiers reduces to the one path native
   replicates (the generic nest's accumulation order). *)
let choose_k3 ~line_buffers ~cfun ~native ~const (clusters : ccluster array) ~osteps =
  if is_plain_copy ~const clusters ~osteps then K3copy
  else
    match recognize_stencil3 clusters ~osteps with
    | Some s ->
        let si = ref 0 and eidx = ref [] in
        Array.iteri
          (fun i cl -> if is_single_read cl then eidx := i :: !eidx else si := i)
          clusters;
        let eidx = Array.of_list (List.rev !eidx) in
        (* Line buffering pays when the plane sums are reused across the
           inner loop — i.e. when edge or corner classes are present —
           and needs a unit inner walk step. *)
        if line_buffers && s.s_st2 = 1 && (s.c2 <> 0.0 || s.c3 <> 0.0) then begin
          Metrics.incr (fst (linebuf_row s));
          K3stencil_lb (s, !si, eidx)
        end
        else begin
          Metrics.incr (fst (stencil_row s));
          K3stencil (s, !si, eidx)
        end
    | None -> (
        match recognize_stencil2 clusters ~osteps with
        | Some (x, y) ->
            Metrics.incr b_st2_lex;
            K3stencil2 (x, y)
        | None when Array.for_all is_single_read clusters ->
            (* With no clusters at all, the constant ([nest_const]). *)
            Metrics.incr (zip_branch clusters);
            K3zip
        | None when Array.length clusters = 1 && flat_reads clusters.(0) <= 8 ->
            Metrics.incr (fst (flat_row (flat_reads clusters.(0))));
            K3flat
        | None when cfun || native <> None -> (
            let natively =
              match native with
              | Some cache_dir -> Native.compile ~cache_dir ~const clusters ~osteps
              | None -> None
            in
            match natively with
            | Some nf -> K3native nf
            | None ->
                if cfun then K3cfun (Cfun.compile ~const clusters) else K3generic)
        | None -> K3generic)

let groupable = function K3zip | K3copy -> true | _ -> false
let is_shell = function K3shell _ -> true | _ -> false
let is_border = function K3border -> true | _ -> false

let b_shell = branch "shell"
let b_border = branch "border"

let border () =
  Metrics.incr b_border;
  K3border

(* One group from its members' [(const, kernel, clusters, obase,
   osteps, counts)], in run order, each [groupable]: the kernel and the
   group's clusters, one carrier per distinct buffer in first-read
   order. *)
let shell_group parts =
  let bufs = ref [] and nbufs = ref 0 in
  let index b =
    match List.find_opt (fun (b', _) -> b' == b) !bufs with
    | Some (_, i) -> i
    | None ->
        bufs := (b, !nbufs) :: !bufs;
        incr nbufs;
        !nbufs - 1
  in
  let members =
    List.map
      (fun (const, k, (clusters : ccluster array), obase, osteps, counts) ->
        let slot = Array.map (fun (cl : ccluster) -> index cl.xbuf) clusters in
        let copy = match k with K3copy -> true | _ -> false in
        zip_nest ~copy ~const clusters slot ~obase ~osteps ~counts)
      parts
  in
  Metrics.incr b_shell;
  ( K3shell (Array.of_list members),
    Array.of_list (List.rev_map (fun (b, _) -> carrier b) !bufs) )

(* Whether every read of [buf] in the group is an identity read: a
   member reads an element only while computing that element. *)
let shell_alias_safe k (cls : ccluster array) buf =
  match k with
  | K3shell members ->
      Array.for_all
        (fun m ->
          Array.for_all
            (fun r ->
              cls.(r.r_cl).xbuf != buf
              || Cluster.walks_output
                   ~counts:[| m.h_nu; m.h_nv; m.h_na |]
                   ~obase:m.h_obase
                   ~osteps:[| m.h_ou; m.h_ov; m.h_oa |]
                   ~base:r.r_base
                   ~steps:[| r.r_su; r.r_sv; r.r_sa |])
            m.h_reads)
        members
  | _ -> invalid_arg "Kernel.shell_alias_safe"

(* The generic cluster nest, any rank: parts that are not rank 3, and
   rank-3 parts no fixed kernel or compiled tier takes ([K3generic]). *)
let run_lin_generic ~const (clusters : ccluster array) (out : Ndarray.buffer) ~obase ~osteps
    ~(counts : int array) =
  let rank = Array.length counts in
  let nc = Array.length clusters in
  if rank = 0 then begin
    let cb = Array.init nc (fun ci -> clusters.(ci).xbase) in
    (* Rank 0: a single element; reuse the inner evaluator with k=0. *)
    let v =
      const
      +.
      if nc = 0 then 0.0
      else begin
        let acc = ref 0.0 in
        for ci = 0 to nc - 1 do
          let cl = clusters.(ci) in
          for gi = 0 to Array.length cl.xcoeffs - 1 do
            acc := !acc +. (cl.xcoeffs.(gi) *. sum_deltas cl.xbuf cb.(ci) cl.xdeltas.(gi))
          done
        done;
        !acc
      end
    in
    Bigarray.Array1.unsafe_set out obase v
  end
  else begin
    let cb = Array.make_matrix rank nc 0 in
    let rec go axis (prev : int array) ob =
      if axis = rank - 1 then
        run_row ~const clusters prev ~axis ~n:counts.(axis) out ~ob ~os:osteps.(axis)
      else begin
        let row = cb.(axis) in
        for k = 0 to counts.(axis) - 1 do
          for ci = 0 to nc - 1 do
            row.(ci) <- prev.(ci) + (k * clusters.(ci).xsteps.(axis))
          done;
          (* Inner levels copy [row] before mutating their own level, so
             reusing one row per axis is safe. *)
          go (axis + 1) row (ob + (k * osteps.(axis)))
        done
      end
    in
    let top = Array.init nc (fun ci -> clusters.(ci).xbase) in
    go 0 top obase
  end

let run_k3_untimed ~const k (clusters : ccluster array) (out : Ndarray.buffer) ~obase ~osteps
    ~(counts : int array) =
  match k with
  | K3copy ->
      run_zip3 ~copy:true ~const clusters out ~obase ~osteps ~counts
  | K3stencil (st, _, _) ->
      run_stencil3 ~const st out ~obase ~osteps ~counts
  | K3stencil_lb (st, _, _) ->
      run_stencil3_linebuf ~const st out ~obase ~osteps ~counts
  | K3stencil2 (x, y) ->
      run_stencil2_lex ~const x y out ~obase ~osteps ~counts
  | K3zip ->
      run_zip3 ~copy:false ~const clusters out ~obase ~osteps ~counts
  | K3flat ->
      run_flat3 ~const clusters.(0) out ~obase ~osteps ~counts
  | K3shell s ->
      run_shell s clusters out
  | K3border ->
      if clusters.(0).xbuf != out then invalid_arg "Kernel: a border walk bound to another buffer";
      run_border out ~osteps ~counts
  | K3cfun f ->
      Cfun.run f clusters out ~obase ~osteps ~counts
  | K3native nf ->
      Native.call nf clusters out ~obase ~counts
  | K3generic ->
      run_lin_generic ~const clusters out ~obase ~osteps ~counts

let path_of = function
  | K3stencil _ | K3stencil2 _ -> p_stencil
  | K3stencil_lb _ -> p_linebuf
  | K3copy -> p_copy
  | K3generic -> p_generic
  | K3zip | K3flat | K3shell _ -> p_interp
  | K3border -> p_border
  | K3cfun _ -> p_cfun
  | K3native _ -> p_native

let run_k3 ~const k (clusters : ccluster array) (out : Ndarray.buffer) ~obase ~osteps
    ~(counts : int array) =
  let p = path_of k in
  Metrics.incr p.hits;
  if not (Atomic.get timing) then
    run_k3_untimed ~const k clusters out ~obase ~osteps ~counts
  else begin
    let t0 = Mg_smp.Clock.now_ns () in
    run_k3_untimed ~const k clusters out ~obase ~osteps ~counts;
    let dt = Int64.to_int (Int64.sub (Mg_smp.Clock.now_ns ()) t0) in
    let elts =
      match k with
      | K3shell ms -> Array.fold_left (fun acc m -> acc + (m.h_nu * m.h_nv * m.h_na)) 0 ms
      | K3border -> shell_elements counts
      | _ -> counts.(0) * counts.(1) * counts.(2)
    in
    if elts > 0 then Metrics.observe (Mg_obs.Scope.here p.ns_elt) (dt / elts)
  end

(* ------------------------------------------------------------------ *)
(* Fold over clusters (the fold with-loop's compiled path)             *)

let fold_lin ~op ~init ~const (clusters : ccluster array) ~(counts : int array) =
  let rank = Array.length counts in
  let nc = Array.length clusters in
  let acc = ref init in
  if rank = 0 then begin
    let v = ref const in
    for ci = 0 to nc - 1 do
      let cl = clusters.(ci) in
      for gi = 0 to Array.length cl.xcoeffs - 1 do
        v := !v +. (cl.xcoeffs.(gi) *. sum_deltas cl.xbuf cl.xbase cl.xdeltas.(gi))
      done
    done;
    acc := op !acc !v
  end
  else begin
    let cb = Array.make_matrix rank nc 0 in
    let rec go axis (prev : int array) =
      if axis = rank - 1 then begin
        let os = counts.(axis) in
        for k = 0 to os - 1 do
          let v = ref const in
          for ci = 0 to nc - 1 do
            let cl = Array.unsafe_get clusters ci in
            let b = Array.unsafe_get prev ci + (k * Array.unsafe_get cl.xsteps axis) in
            let coeffs = cl.xcoeffs and deltas = cl.xdeltas in
            for gi = 0 to Array.length coeffs - 1 do
              let ds = Array.unsafe_get deltas gi in
              let s = ref 0.0 in
              for t = 0 to Array.length ds - 1 do
                s := !s +. Bigarray.Array1.unsafe_get cl.xbuf (b + Array.unsafe_get ds t)
              done;
              v := !v +. (Array.unsafe_get coeffs gi *. !s)
            done
          done;
          acc := op !acc !v
        done
      end
      else begin
        let row = cb.(axis) in
        for k = 0 to counts.(axis) - 1 do
          for ci = 0 to nc - 1 do
            row.(ci) <- prev.(ci) + (k * clusters.(ci).xsteps.(axis))
          done;
          go (axis + 1) row
        done
      end
    in
    go 0 (Array.init nc (fun ci -> clusters.(ci).xbase));
    ()
  end;
  !acc
