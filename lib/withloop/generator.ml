open Mg_ndarray

type t = { lb : Shape.t; ub : Shape.t; step : Shape.t; width : Shape.t }

let rank g = Shape.rank g.lb

let make ?step ?width ~lb ~ub () =
  let n = Shape.rank lb in
  let step = match step with Some s -> s | None -> Shape.replicate n 1 in
  let width = match width with Some w -> w | None -> Shape.replicate n 1 in
  if Shape.rank ub <> n || Shape.rank step <> n || Shape.rank width <> n then
    invalid_arg "Generator.make: rank mismatch";
  for j = 0 to n - 1 do
    if step.(j) < 1 then invalid_arg "Generator.make: step must be >= 1";
    if width.(j) < 1 || width.(j) > step.(j) then
      invalid_arg "Generator.make: width must satisfy 1 <= width <= step"
  done;
  { lb = Array.copy lb; ub = Array.copy ub; step = Array.copy step; width = Array.copy width }

let full shp = make ~lb:(Shape.replicate (Shape.rank shp) 0) ~ub:shp ()

let interior shp k =
  let n = Shape.rank shp in
  make ~lb:(Shape.replicate n k) ~ub:(Array.map (fun e -> e - k) shp) ()

let face shp ~axis ~pos =
  let n = Shape.rank shp in
  if axis < 0 || axis >= n then invalid_arg "Generator.face: bad axis";
  let lb = Shape.replicate n 0 and ub = Array.copy shp in
  lb.(axis) <- pos;
  ub.(axis) <- pos + 1;
  make ~lb ~ub ()

let is_dense g = Array.for_all (fun s -> s = 1) g.step

let mem g iv =
  rank g = Shape.rank iv
  &&
  let rec go j =
    j = rank g
    || (iv.(j) >= g.lb.(j)
       && iv.(j) < g.ub.(j)
       && (iv.(j) - g.lb.(j)) mod g.step.(j) < g.width.(j)
       && go (j + 1))
  in
  go 0

(* Number of valid coordinates along axis j of [lb, ub) with the given
   step/width: full blocks contribute [width] each, the trailing
   partial block min(width, remainder). *)
let axis_count g j =
  let extent = g.ub.(j) - g.lb.(j) in
  if extent <= 0 then 0
  else begin
    let s = g.step.(j) and w = g.width.(j) in
    let blocks = extent / s and rem = extent mod s in
    (blocks * w) + min w rem
  end

let counts g = Array.init (rank g) (axis_count g)

let cardinal g =
  let c = ref 1 in
  for j = 0 to rank g - 1 do
    c := !c * axis_count g j
  done;
  !c

let is_empty g =
  let rec go j = j < rank g && (axis_count g j = 0 || go (j + 1)) in
  go 0

(* The k-th coordinate: block [k / w] of [s] steps, [k mod w] into it. *)
let axis_position g j k = g.lb.(j) + ((k / g.width.(j)) * g.step.(j)) + (k mod g.width.(j))

let axis_positions g j = Array.init (axis_count g j) (axis_position g j)

let iter g f =
  let n = rank g in
  if not (is_empty g) then
    if n = 0 then f [||]
    else begin
      let pos = Array.init n (fun j -> axis_positions g j) in
      let idx = Array.make n 0 in
      let iv = Array.init n (fun j -> pos.(j).(0)) in
      let continue = ref true in
      while !continue do
        f iv;
        let rec bump j =
          if j < 0 then continue := false
          else begin
            idx.(j) <- idx.(j) + 1;
            if idx.(j) >= Array.length pos.(j) then begin
              idx.(j) <- 0;
              iv.(j) <- pos.(j).(0);
              bump (j - 1)
            end
            else iv.(j) <- pos.(j).(idx.(j))
          end
        in
        bump (n - 1)
      done
    end

let to_list g =
  let acc = ref [] in
  iter g (fun iv -> acc := Array.copy iv :: !acc);
  List.rev !acc

(* Smallest in-set coordinate >= x along axis j, ignoring ub. *)
let next_coord_from g j x =
  let s = g.step.(j) and w = g.width.(j) and lb = g.lb.(j) in
  if x <= lb then lb
  else begin
    let d = x - lb in
    let q = d / s and r = d mod s in
    if r < w then x (* inside a block *) else lb + ((q + 1) * s)
  end

let restrict_axis g ~axis ~lo ~hi =
  let j = axis in
  if j < 0 || j >= rank g then invalid_arg "Generator.restrict_axis: bad axis";
  if g.step.(j) > 1 && g.width.(j) > 1 then
    invalid_arg "Generator.restrict_axis: width > 1 on a strided axis unsupported";
  let lo = max lo g.lb.(j) and hi = min hi g.ub.(j) in
  let lb' = next_coord_from g j lo in
  if lb' >= hi then None
  else begin
    let lb = Array.copy g.lb and ub = Array.copy g.ub in
    lb.(j) <- lb';
    ub.(j) <- hi;
    Some { g with lb; ub }
  end

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let refine_axis_mod g ~axis ~modulus ~residue =
  let j = axis in
  if j < 0 || j >= rank g then invalid_arg "Generator.refine_axis_mod: bad axis";
  if modulus < 1 then invalid_arg "Generator.refine_axis_mod: modulus must be >= 1";
  if g.width.(j) <> 1 then
    invalid_arg "Generator.refine_axis_mod: width must be 1 on the refined axis";
  let s = g.step.(j) in
  let l = s / gcd s modulus * modulus in
  (* Smallest k >= 0 with (lb + s*k) mod modulus = residue; the cycle
     length of s*k mod modulus is at most modulus, so brute force. *)
  let rec find k =
    if k >= modulus then None
    else if ((g.lb.(j) + (s * k)) mod modulus + modulus) mod modulus = residue then Some k
    else find (k + 1)
  in
  match find 0 with
  | None -> None
  | Some k ->
      let lb' = g.lb.(j) + (s * k) in
      if lb' >= g.ub.(j) then None
      else begin
        let lb = Array.copy g.lb and step = Array.copy g.step in
        lb.(j) <- lb';
        step.(j) <- l;
        Some { g with lb; step }
      end

let split_axis g ~axis ~pieces =
  let j = axis in
  if j < 0 || j >= rank g then invalid_arg "Generator.split_axis: bad axis";
  if pieces < 1 then invalid_arg "Generator.split_axis: pieces must be >= 1";
  let s = g.step.(j) in
  let extent = g.ub.(j) - g.lb.(j) in
  if extent <= 0 then []
  else begin
    (* Split between step-blocks so every piece keeps lb ≡ g.lb (mod s),
       preserving the (iv - lb) mod step < width phase. *)
    let blocks = (extent + s - 1) / s in
    let pieces = min pieces blocks in
    let result = ref [] in
    for k = pieces - 1 downto 0 do
      let b0 = blocks * k / pieces and b1 = blocks * (k + 1) / pieces in
      if b1 > b0 then begin
        let lb = Array.copy g.lb and ub = Array.copy g.ub in
        lb.(j) <- g.lb.(j) + (b0 * s);
        ub.(j) <- min g.ub.(j) (g.lb.(j) + (b1 * s));
        result := { g with lb; ub } :: !result
      end
    done;
    !result
  end

let disjoint_union_is parts whole =
  let tbl = Hashtbl.create 64 in
  iter whole (fun iv -> Hashtbl.replace tbl (Array.copy iv) 0);
  let ok = ref true in
  List.iter
    (fun p ->
      iter p (fun iv ->
          match Hashtbl.find_opt tbl iv with
          | None -> ok := false (* outside the whole *)
          | Some c -> Hashtbl.replace tbl (Array.copy iv) (c + 1)))
    parts;
  !ok && Hashtbl.fold (fun _ c acc -> acc && c = 1) tbl true

let pp ppf g =
  Format.fprintf ppf "(%a <= iv < %a" Shape.pp g.lb Shape.pp g.ub;
  if not (is_dense g) then Format.fprintf ppf " step %a width %a" Shape.pp g.step Shape.pp g.width;
  Format.fprintf ppf ")"
