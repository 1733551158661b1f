open Mg_ndarray

type config = { fold : bool; split_strided : bool; split_threshold : int }

(* ------------------------------------------------------------------ *)
(* Index substitution                                                  *)

let subst_index m body =
  Ir.map_leaves
    (function
      | Ir.Read (s, m') as e ->
          let m'' = Ixmap.compose ~outer:m' ~inner:m in
          if m'' == m' then e else Ir.Read (s, m'')
      | Ir.Opaque f -> Ir.Opaque (fun iv -> f (Ixmap.apply m iv))
      | e -> e)
    body

(* [body] with every read of [n] replaced by [f map]. *)
let map_node_reads (n : Ir.node) f body =
  Ir.map_leaves (function Ir.Read (Ir.Node n', m) when n' == n -> f m | e -> e) body

(* Replace one node source by its materialised array everywhere. *)
let replace_source n arr body = map_node_reads n (fun m -> Ir.Read (Ir.Arr arr, m)) body

(* ------------------------------------------------------------------ *)
(* Folding policy                                                      *)

let is_cheap_body = function Ir.Const _ | Ir.Read (_, _) -> true | _ -> false

let node_parts (n : Ir.node) =
  match n.Ir.spec with Ir.Genarray { parts; _ } -> parts | Ir.Modarray { parts; _ } -> parts

let is_selection n = List.for_all (fun (p : Ir.part) -> is_cheap_body p.Ir.body) (node_parts n)

let wants_fold cfg (n : Ir.node) =
  cfg.fold && n.Ir.cache = None
  && (not n.Ir.barrier)
  && (n.Ir.refs <= 1 || is_selection n)

(* WLF profitability: substituting a producer with [p] reads into a
   consumer that reads it [c] times recomputes the producer body [c]
   times per element.  Beyond this budget the recomputation outweighs
   the saved materialisation (the classic case: folding an element-wise
   intermediate into every point of a following stencil). *)
let fold_budget = 64

let producer_read_count (n : Ir.node) =
  List.fold_left (fun acc (p : Ir.part) -> max acc (Ir.read_count p.Ir.body)) 0 (node_parts n)

(* ------------------------------------------------------------------ *)
(* Classification of one read against a producer                       *)

type verdict =
  | Pure_part of Ir.part
  | Pure_fallback
  | Need_split of Generator.t list
  | Give_up

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* The image of the consumer generator under the read map, per axis
   and in closed form: the first and the last coordinate of axis [j]
   at [j] and [rank + j], its step at [2 rank + j].  A
   single-coordinate axis has step 0 so that residue analysis cannot
   ask for a pointless split.  The step is taken between the axis's
   first two coordinates: width is 1 on any axis where it matters
   (checked by [classify_axis]).  Computed once per read map, for
   every producer part. *)
let image (g : Generator.t) m =
  let r = Generator.rank g in
  let img = Array.make (3 * r) 0 in
  for j = 0 to r - 1 do
    let count = Generator.axis_count g j and lo = g.Generator.lb.(j) in
    assert (count > 0);
    img.(j) <- Ixmap.apply_axis m j lo;
    img.(r + j) <- Ixmap.apply_axis m j (Generator.axis_position g j (count - 1));
    img.((2 * r) + j) <-
      (if count = 1 then 0 else Ixmap.axis_stride m j (Generator.axis_position g j 1 - lo))
  done;
  img

(* How the image of axis [j] relates to the producer part [pg]: a split
   takes its band or its residue classes from [pg] and the image. *)
type axis_status = Ax_in | Ax_out | Ax_split_range | Ax_split_residue | Ax_fail

let classify_axis (g : Generator.t) img (pg : Generator.t) j =
  if g.Generator.width.(j) <> 1 && g.Generator.step.(j) <> 1 then Ax_fail
  else begin
    let r = Generator.rank g in
    let first = img.(j) and last = img.(r + j) and istep = img.((2 * r) + j) in
    let plb = pg.Generator.lb.(j)
    and pub = pg.Generator.ub.(j)
    and ps = pg.Generator.step.(j)
    and pw = pg.Generator.width.(j) in
    if pw > 1 && ps > 1 then Ax_fail
    else if last < plb || first >= pub then Ax_out
    else if ps > 1 && istep mod ps <> 0 then Ax_split_residue
    else begin
      let residue_ok = ps = 1 || (((first - plb) mod ps) + ps) mod ps = 0 in
      if not residue_ok then Ax_out
      else if first >= plb && last < pub then Ax_in
      else Ax_split_range
    end
  end

(* Split the consumer generator along axis [j] so that the image either
   stays inside [plb, pub) or outside it on every piece. *)
let split_range g img j (plb, pub) =
  let count = Generator.axis_count g j and r = Generator.rank g in
  let lo = g.Generator.lb.(j) in
  let step = if count = 1 then 1 else Generator.axis_position g j 1 - lo in
  let first = img.(j) and istep = img.((2 * r) + j) in
  assert (istep > 0);
  (* k-index thresholds where the image reaches plb and pub. *)
  let ceil_div a b = if a <= 0 then 0 else (a + b - 1) / b in
  let k_lo = ceil_div (plb - first) istep in
  let k_hi = ceil_div (pub - first) istep in
  let coord k = lo + (k * step) in
  let c0 = lo and cend = Generator.axis_position g j (count - 1) + 1 in
  let clamp k = if k <= 0 then c0 else if k >= count then cend else coord k in
  let c_lo = clamp k_lo and c_hi = clamp k_hi in
  let bands = [ (c0, c_lo); (c_lo, c_hi); (c_hi, cend) ] in
  List.filter_map
    (fun (lo', hi') ->
      if lo' >= hi' then None else Generator.restrict_axis g ~axis:j ~lo:lo' ~hi:hi')
    bands

(* Split the consumer generator along axis [j] into [classes] residue
   classes of its iteration index. *)
let split_residue g j classes =
  let lo = g.Generator.lb.(j) in
  let step = if Generator.axis_count g j = 1 then 1 else Generator.axis_position g j 1 - lo in
  let modulus = classes * step in
  List.filter_map
    (fun r ->
      let residue = (((lo + (r * step)) mod modulus) + modulus) mod modulus in
      Generator.refine_axis_mod g ~axis:j ~modulus ~residue)
    (List.init classes (fun r -> r))

let check_in_shape (g : Generator.t) img (shape : Shape.t) =
  let r = Generator.rank g in
  for j = 0 to Shape.rank shape - 1 do
    let first = img.(j) and last = img.(r + j) in
    if first < 0 || last >= shape.(j) then
      invalid_arg
        (Printf.sprintf
           "Fusion: read image [%d,%d] escapes producer shape %s on axis %d (consumer %s)"
           first last (Shape.to_string shape) j
           (Format.asprintf "%a" Generator.pp g))
  done

(* The verdict of one producer part: [Give_up] when some axis fails,
   else [None] (try the next part) when some axis lies outside it,
   else a pure read when every axis lies inside, else a split along the
   first axis that needs one. *)
let classify_part cfg (g : Generator.t) img (pp : Ir.part) =
  let pg = pp.Ir.gen and n_axes = Generator.rank g in
  let rec scan j ~out ~all_in =
    if j < n_axes then
      match classify_axis g img pg j with
      | Ax_fail -> Some Give_up
      | Ax_out -> scan (j + 1) ~out:true ~all_in:false
      | Ax_in -> scan (j + 1) ~out ~all_in
      | Ax_split_range | Ax_split_residue -> scan (j + 1) ~out ~all_in:false
    else if out then None
    else if all_in then Some (Pure_part pp)
    else Some (first_split 0)
  and first_split j =
    if j = n_axes then Give_up
    else
      match classify_axis g img pg j with
      | Ax_split_range ->
          Need_split (split_range g img j (pg.Generator.lb.(j), pg.Generator.ub.(j)))
      | Ax_split_residue ->
          let ps = pg.Generator.step.(j) in
          let classes = ps / gcd (abs img.((2 * n_axes) + j)) ps in
          if cfg.split_strided then Need_split (split_residue g j classes) else Give_up
      | Ax_in | Ax_out | Ax_fail -> first_split (j + 1)
  in
  scan 0 ~out:false ~all_in:true

let classify cfg (g : Generator.t) m (producer : Ir.node) : verdict =
  let img = image g m in
  check_in_shape g img producer.Ir.nshape;
  let rec over_parts = function
    | [] -> Pure_fallback
    | (pp : Ir.part) :: rest ->
        if Generator.is_empty pp.Ir.gen then over_parts rest
        else begin
          match classify_part cfg g img pp with None -> over_parts rest | Some v -> v
        end
  in
  over_parts (node_parts producer)

(* ------------------------------------------------------------------ *)
(* The rewriting loop                                                  *)

let rec mem_map m = function [] -> false | m' :: rest -> Ixmap.equal m m' || mem_map m rest

(* One walk over [body]: the number of its reads, the number of reads
   of node [n], and [n]'s distinct maps, last first (a repeated map
   gets the verdict of its first occurrence). *)
let reads_of body n =
  let total = ref 0 and count = ref 0 in
  let maps =
    Ir.fold_reads
      (fun maps s m ->
        incr total;
        match s with
        | Ir.Node n' when n' == n ->
            incr count;
            if mem_map m maps then maps else m :: maps
        | _ -> maps)
      [] body
  in
  (!total, !count, maps)

(* Maps are compared structurally; duplicate (map, verdict) pairs
   agree by construction. *)
let rec verdict_of m = function
  | [] -> Give_up
  | (m', v) :: rest -> if Ixmap.equal m m' then v else verdict_of m rest

let substitute_reads (n : Ir.node) (verdicts : (Ixmap.t * verdict) list) body =
  map_node_reads n
    (fun m ->
      match verdict_of m verdicts with
      | Pure_part pp -> subst_index m pp.Ir.body
      | Pure_fallback -> (
          match n.Ir.spec with
          | Ir.Genarray { default; _ } -> Ir.Const default
          | Ir.Modarray { base; _ } -> Ir.Read (base, m))
      | Need_split _ | Give_up -> assert false)
    body

type step = Done | Replaced of Ir.expr | Splits of Generator.t list

(* Whether a split of a consumer below [split_threshold] still pays:
   the consumer is a lowered modarray's complement part and still a
   bare read, and the producer a selection.  Each piece then copies a
   copy or takes a constant, exact whatever the split, and the
   producer is never built for a thin slab of its consumer's shell. *)
let splits_copy ~complement body n =
  complement && (match body with Ir.Read _ -> true | _ -> false) && is_selection n

let rewrite_step cfg ~force ~complement (gen : Generator.t) body : step =
  match Ir.first_node_read body with
  | None -> Done
  | Some n ->
      let materialize () =
        let arr = force n in
        Replaced (replace_source n arr body)
      in
      if not (wants_fold cfg n) then materialize ()
      else begin
        let body_reads, reads, maps = reads_of body n in
        let per_read = producer_read_count n in
        (* Both checks are needed: the product bounds one substitution's
           blow-up, the total bounds the cascade across a chain of
           producers (a V-cycle fuses level into level into level —
           without the cap the body grows exponentially in depth). *)
        if
          reads * per_read > fold_budget
          || body_reads + (reads * (per_read - 1)) > fold_budget
        then materialize ()
        else begin
        let rec judge acc = function
          | [] -> Replaced (substitute_reads n acc body)
          | m :: rest ->
              if not (Ixmap.exact_on m gen) then materialize ()
              else begin
                match classify cfg gen m n with
                | Give_up -> materialize ()
                | Need_split gens ->
                    (* Splitting a tiny part costs more than just
                       computing the producer array. *)
                    if Generator.cardinal gen >= cfg.split_threshold || splits_copy ~complement body n
                    then Splits gens
                    else materialize ()
                | (Pure_part _ | Pure_fallback) as v -> judge ((m, v) :: acc) rest
              end
        in
        judge [] (List.rev maps)
        end
      end

let optimize cfg ~force ?(complement = false) gen body =
  let rec go acc = function
    | [] -> List.rev acc
    | (g, b) :: rest ->
        if Generator.is_empty g then go acc rest
        else begin
          match rewrite_step cfg ~force ~complement g b with
          | Done -> go ({ Ir.gen = g; body = b } :: acc) rest
          | Replaced b' -> go acc ((g, b') :: rest)
          | Splits gens -> go acc (List.map (fun g' -> (g', b)) gens @ rest)
        end
  in
  go [] [ (gen, body) ]
