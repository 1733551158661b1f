open Mg_ndarray

(* ------------------------------------------------------------------ *)
(* Affine view of a generator: positions along axis j are
   c0 + k * astep for k < count.  Exists iff every axis has width 1
   (dense axes have width = step = 1 by construction). *)

type axes = { c0 : int array; astep : int array; counts : int array }

let axes_of_gen (g : Generator.t) : axes option =
  if Array.exists (fun w -> w <> 1) g.Generator.width then None
  else
    Some
      { c0 = Array.copy g.Generator.lb;
        astep = Array.copy g.Generator.step;
        counts = Generator.counts g;
      }

(* Compiled form: coefficient and delta arrays are kept flat and
   parallel so the per-element loop touches no boxed tuples.
   [xstrides] are the source array's own strides — the units the
   neighbour deltas are expressed in, which kernel recognition needs. *)
type ccluster = {
  xbuf : Ndarray.buffer;
  xbase : int;
  xsteps : int array;
  xstrides : int array;
  xcoeffs : float array;
  xdeltas : int array array;
}

(* The flat base of one read on the given affine axes, its per-axis
   flat steps written into [steps]; [-1] when the map's division does
   not line up. *)
let read_base (ax : axes) (r : Linform.read) (steps : int array) =
  let arr = r.Linform.arr in
  let strides = arr.Ndarray.strides in
  let src_shape = Ndarray.shape arr in
  let m = r.Linform.map in
  let base = ref 0 and ok = ref true in
  for j = 0 to Array.length ax.c0 - 1 do
    let s = m.Ixmap.scale.(j) and o = m.Ixmap.offset.(j) and d = m.Ixmap.div.(j) in
    let v0 = (s * ax.c0.(j)) + o in
    (* A single-coordinate axis never advances, so only the base needs
       to divide exactly. *)
    let step_exact = ax.counts.(j) <= 1 || s * ax.astep.(j) mod d = 0 in
    if v0 < 0 || v0 mod d <> 0 || not step_exact then ok := false
    else begin
      let first = v0 / d in
      let kstep = if ax.counts.(j) <= 1 then 0 else s * ax.astep.(j) / d in
      let last = first + ((ax.counts.(j) - 1) * kstep) in
      if first < 0 || last >= src_shape.(j) then
        invalid_arg
          (Printf.sprintf
             "Cluster: read image [%d,%d] escapes source shape %s on axis %d" first last
             (Shape.to_string src_shape) j);
      base := !base + (strides.(j) * first);
      steps.(j) <- strides.(j) * kstep
    end
  done;
  if !ok then !base else -1

(* Per-domain scratch of [clusterize], grown on demand (like {!Cfun}'s
   row accumulator), so that a compile allocates little beyond its
   result.  [ints] holds seven slices of [cap] ints, [rows] the steps
   of each open cluster and then the deltas of each group. *)
type scratch = { mutable cap : int; mutable ints : int array; mutable rows : int array array }

let scratch_key = Domain.DLS.new_key (fun () -> { cap = 0; ints = [||]; rows = [||] })

let scratch n =
  let sc = Domain.DLS.get scratch_key in
  if sc.cap < n then begin
    sc.cap <- n;
    sc.ints <- Array.make (7 * n) 0;
    sc.rows <- Array.make (2 * n) [||]
  end;
  sc

(* Slices of [ints]: per visit its group and its delta from its
   cluster's base; per group its cluster, the term carrying its
   coefficient and its size (then its fill cursor); per cluster the
   term that opened it and its base. *)
let v_group = 0 and v_delta = 1 and g_cluster = 2 and g_term = 3 and g_size = 4
and c_open = 5 and c_base = 6

let[@inline] get (sc : scratch) slice i = Array.unsafe_get sc.ints ((slice * sc.cap) + i)
let[@inline] set (sc : scratch) slice i v = Array.unsafe_set sc.ints ((slice * sc.cap) + i) v

(* The first of the [nc] open clusters that reads [buf] with [steps];
   [nc] when there is none. *)
let rec find_cluster sc (lf : Linform.t) nc buf steps c =
  if c = nc then nc
  else if
    lf.Linform.reads.(get sc c_open c).Linform.arr.Ndarray.data == buf
    && Shape.equal sc.rows.(c) steps
  then c
  else find_cluster sc lf nc buf steps (c + 1)

(* The first of the [ng] groups of cluster [c] whose coefficient is
   term [g]'s; [ng] when there is none. *)
let rec find_group sc (lf : Linform.t) ng c g k =
  if k = ng then ng
  else if get sc g_cluster k = c && Linform.same_coeff lf.Linform.coeffs (get sc g_term k) g then k
  else find_group sc lf ng c g (k + 1)

(* The terms are visited in group order; each visit joins the first
   cluster on its buffer that advances in lockstep with it, or opens a
   new one, and within its cluster the group of its coefficient, in
   first-visit order. *)
let clusterize (ax : axes) ~factor (lf : Linform.t) : ccluster array option =
  let n = Array.length lf.Linform.reads in
  let sc = scratch n in
  let nv = ref 0 and ng = ref 0 and nc = ref 0 and ok = ref true in
  let steps = Array.make (Array.length ax.c0) 0 in
  Linform.iter_groups ~factor lf (fun g t ->
      (* Every read is laid out, as its image must stay in its source. *)
      let base = read_base ax lf.Linform.reads.(t) steps in
      if base < 0 then ok := false
      else if !ok then begin
        let buf = lf.Linform.reads.(t).Linform.arr.Ndarray.data in
        let c = find_cluster sc lf !nc buf steps 0 in
        if c = !nc then begin
          set sc c_open c t;
          set sc c_base c base;
          sc.rows.(c) <- Array.copy steps;
          incr nc
        end;
        let k = find_group sc lf !ng c g 0 in
        if k = !ng then begin
          set sc g_cluster k c;
          set sc g_term k g;
          set sc g_size k 0;
          incr ng
        end;
        set sc g_size k (get sc g_size k + 1);
        set sc v_group !nv k;
        set sc v_delta !nv (base - get sc c_base c);
        incr nv
      end);
  let result =
    if not !ok then None
    else begin
      let nc = !nc and ng = !ng in
      (* Each group's deltas, in visit order. *)
      for k = 0 to ng - 1 do
        sc.rows.(n + k) <- Array.make (get sc g_size k) 0;
        set sc g_size k 0
      done;
      for v = 0 to !nv - 1 do
        let k = get sc v_group v in
        sc.rows.(n + k).(get sc g_size k) <- get sc v_delta v;
        set sc g_size k (get sc g_size k + 1)
      done;
      let cluster c =
        let groups = ref 0 in
        for k = 0 to ng - 1 do
          if get sc g_cluster k = c then incr groups
        done;
        let xcoeffs = Array.make !groups 0.0 and xdeltas = Array.make !groups [||] in
        let i = ref 0 in
        for k = 0 to ng - 1 do
          if get sc g_cluster k = c then begin
            xcoeffs.(!i) <- lf.Linform.coeffs.(get sc g_term k);
            xdeltas.(!i) <- sc.rows.(n + k);
            incr i
          end
        done;
        let opener = lf.Linform.reads.(get sc c_open c).Linform.arr in
        { xbuf = opener.Ndarray.data;
          xbase = get sc c_base c;
          xsteps = sc.rows.(c);
          xstrides = opener.Ndarray.strides;
          xcoeffs;
          xdeltas;
        }
      in
      Some (Array.init nc cluster)
    end
  in
  (* The scratch must not keep the result's arrays alive. *)
  Array.fill sc.rows 0 (2 * n) [||];
  result

(* Flat base/steps of the output for the part's affine axes, from the
   output strides alone (the buffer is not needed — cached plans are
   compiled against outputs that do not exist yet on replay). *)
let out_layout_of ~(ostrides : int array) (ax : axes) =
  let rank = Array.length ax.c0 in
  let base = ref 0 and steps = Array.make rank 0 in
  for j = 0 to rank - 1 do
    base := !base + (ostrides.(j) * ax.c0.(j));
    steps.(j) <- ostrides.(j) * ax.astep.(j)
  done;
  (!base, steps)

(* A one-coordinate axis never advances: [read_layout] gives the read
   step 0 there while [out_layout_of] keeps the output stride. *)
let walks_output ~counts ~obase ~osteps ~base ~steps =
  base = obase
  &&
  let rec go j = j < 0 || ((counts.(j) <= 1 || steps.(j) = osteps.(j)) && go (j - 1)) in
  go (Array.length counts - 1)

let shift_base (cl : ccluster) delta = { cl with xbase = cl.xbase + delta }
let with_buffer (cl : ccluster) buf = { cl with xbuf = buf }
