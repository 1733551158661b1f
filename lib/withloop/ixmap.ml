open Mg_ndarray

type t = { scale : Shape.t; offset : Shape.t; div : Shape.t }

let make ?scale ?offset ?div n =
  let scale = match scale with Some s -> Array.copy s | None -> Shape.replicate n 1 in
  let offset = match offset with Some o -> Array.copy o | None -> Shape.replicate n 0 in
  let div = match div with Some d -> Array.copy d | None -> Shape.replicate n 1 in
  if Shape.rank scale <> n || Shape.rank offset <> n || Shape.rank div <> n then
    invalid_arg "Ixmap.make: rank mismatch";
  Array.iter (fun s -> if s < 0 then invalid_arg "Ixmap.make: scale must be >= 0") scale;
  Array.iter (fun d -> if d < 1 then invalid_arg "Ixmap.make: div must be >= 1") div;
  { scale; offset; div }

let identity n = make n
let offset d = make ~offset:d (Shape.rank d)
let scale n k = make ~scale:(Shape.replicate n k) n
let divide n k = make ~div:(Shape.replicate n k) n

let rank m = Shape.rank m.scale

let rec all_equal (a : Shape.t) v j = j < 0 || (a.(j) = v && all_equal a v (j - 1))

let is_identity m =
  let last = Shape.rank m.scale - 1 in
  all_equal m.scale 1 last && all_equal m.offset 0 last && all_equal m.div 1 last


let is_pure_offset m =
  Array.for_all (fun s -> s = 1) m.scale && Array.for_all (fun d -> d = 1) m.div

let apply m iv =
  if Shape.rank iv <> rank m then invalid_arg "Ixmap.apply: rank mismatch";
  Array.init (rank m) (fun j ->
      let v = (m.scale.(j) * iv.(j)) + m.offset.(j) in
      (* Floor division: generator coordinates can make v negative only
         in ill-formed programs, but keep apply total and consistent. *)
      let d = m.div.(j) in
      if v >= 0 then v / d else -(((-v) + d - 1) / d))

let exact_on m (g : Generator.t) =
  let ok = ref true in
  for j = 0 to rank m - 1 do
    let d = m.div.(j) in
    if d > 1 then begin
      let s = m.scale.(j) and o = m.offset.(j) in
      let lb = g.Generator.lb.(j) and step = g.Generator.step.(j) and w = g.Generator.width.(j) in
      let count = Generator.axis_count g j in
      let first_ok = ((s * lb) + o) mod d = 0 in
      let step_ok = count <= w || s * step mod d = 0 in
      let width_ok = w = 1 || count <= 1 || s mod d = 0 in
      if not (first_ok && step_ok && width_ok && count > 0) then ok := false
    end
  done;
  !ok

let compose ~outer ~inner =
  let n = rank outer in
  if rank inner <> n then invalid_arg "Ixmap.compose: rank mismatch";
  (* Maps are immutable, so an identity side shares the other. *)
  if is_identity inner then outer
  else if is_identity outer then inner
  else if n = 3 then begin
    (* The grids' rank, spelled out: array literals are allocated
       inline, where [Array.make] calls into the runtime. *)
    let os = outer.scale and oo = outer.offset and od = outer.div in
    let is = inner.scale and io = inner.offset and id = inner.div in
    { scale = [| os.(0) * is.(0); os.(1) * is.(1); os.(2) * is.(2) |];
      offset =
        [| (os.(0) * io.(0)) + (oo.(0) * id.(0));
           (os.(1) * io.(1)) + (oo.(1) * id.(1));
           (os.(2) * io.(2)) + (oo.(2) * id.(2));
        |];
      div = [| od.(0) * id.(0); od.(1) * id.(1); od.(2) * id.(2) |];
    }
  end
  else begin
    let scale = Array.make n 0 and offset = Array.make n 0 and div = Array.make n 0 in
    for j = 0 to n - 1 do
      scale.(j) <- outer.scale.(j) * inner.scale.(j);
      offset.(j) <- (outer.scale.(j) * inner.offset.(j)) + (outer.offset.(j) * inner.div.(j));
      div.(j) <- outer.div.(j) * inner.div.(j)
    done;
    { scale; offset; div }
  end

let apply_axis m j x = ((m.scale.(j) * x) + m.offset.(j)) / m.div.(j)
let axis_stride m j step = m.scale.(j) * step / m.div.(j)

let equal a b = Shape.equal a.scale b.scale && Shape.equal a.offset b.offset && Shape.equal a.div b.div

let pp ppf m =
  if is_identity m then Format.fprintf ppf "iv"
  else Format.fprintf ppf "(%a*iv + %a)/%a" Shape.pp m.scale Shape.pp m.offset Shape.pp m.div
