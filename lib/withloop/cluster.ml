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

type cluster = {
  cbuf : Ndarray.buffer;
  cbase : int;
  csteps : int array;
  mutable cgroups : (float * int list ref) list;  (* building representation *)
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

(* Compute flat base and per-axis flat steps of one read on the given
   affine axes; None when the map's division does not line up. *)
let read_layout (ax : axes) (r : Linform.read) :
    (Ndarray.buffer * int array * int * int array) option =
  let arr = r.Linform.arr in
  let strides = arr.Ndarray.strides in
  let src_shape = Ndarray.shape arr in
  let m = r.Linform.map in
  let rank = Array.length ax.c0 in
  let base = ref 0 and steps = Array.make rank 0 in
  let ok = ref true in
  for j = 0 to rank - 1 do
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
  if !ok then Some (arr.Ndarray.data, arr.Ndarray.strides, !base, steps) else None

let clusterize (ax : axes) groups : ccluster array option =
  let clusters : (cluster * int array) list ref = ref [] in
  let ok = ref true in
  List.iter
    (fun (coeff, reads) ->
      List.iter
        (fun r ->
          match read_layout ax r with
          | None -> ok := false
          | Some (buf, strides, base, steps) ->
              if !ok then begin
                let existing =
                  List.find_opt
                    (fun (c, _) -> c.cbuf == buf && Shape.equal c.csteps steps)
                    !clusters
                in
                let c =
                  match existing with
                  | Some (c, _) -> c
                  | None ->
                      let c = { cbuf = buf; cbase = base; csteps = steps; cgroups = [] } in
                      clusters := !clusters @ [ (c, strides) ];
                      c
                in
                let delta = base - c.cbase in
                match List.assoc_opt coeff c.cgroups with
                | Some cell -> cell := delta :: !cell
                | None -> c.cgroups <- c.cgroups @ [ (coeff, ref [ delta ]) ]
              end)
        reads)
    groups;
  if not !ok then None
  else
    Some
      (Array.of_list
         (List.map
            (fun (c, strides) ->
              { xbuf = c.cbuf;
                xbase = c.cbase;
                xsteps = c.csteps;
                xstrides = strides;
                xcoeffs = Array.of_list (List.map fst c.cgroups);
                xdeltas =
                  Array.of_list
                    (List.map (fun (_, cell) -> Array.of_list (List.rev !cell)) c.cgroups);
              })
            !clusters))

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
