open Mg_ndarray

(* ------------------------------------------------------------------ *)
(* Closure interpretation (fallback path)                              *)

let rec closure_of (body : Ir.expr) : Shape.t -> float =
  match body with
  | Ir.Const c -> fun _ -> c
  | Ir.Read (Ir.Arr a, m) ->
      if Ixmap.is_identity m then fun iv -> Ndarray.get a iv
      else fun iv -> Ndarray.get a (Ixmap.apply m iv)
  | Ir.Read (Ir.Node _, _) ->
      invalid_arg "Lower: unforced node reached the interpreter (fusion bug)"
  | Ir.Neg e ->
      let f = closure_of e in
      fun iv -> -.f iv
  | Ir.Sqrt e ->
      let f = closure_of e in
      fun iv -> Float.sqrt (f iv)
  | Ir.Absf e ->
      let f = closure_of e in
      fun iv -> Float.abs (f iv)
  | Ir.Add (a, b) ->
      let fa = closure_of a and fb = closure_of b in
      fun iv -> fa iv +. fb iv
  | Ir.Sub (a, b) ->
      let fa = closure_of a and fb = closure_of b in
      fun iv -> fa iv -. fb iv
  | Ir.Mul (a, b) ->
      let fa = closure_of a and fb = closure_of b in
      fun iv -> fa iv *. fb iv
  | Ir.Divf (a, b) ->
      let fa = closure_of a and fb = closure_of b in
      fun iv -> fa iv /. fb iv
  | Ir.Opaque f -> f

(* ------------------------------------------------------------------ *)
(* Linear plans                                                        *)

type plan = Plin of Linform.t | Pfun of (Shape.t -> float)

let plan_of (body : Ir.expr) : plan =
  match Linform.of_expr body with Some lf -> Plin lf | None -> Pfun (closure_of body)

(* ------------------------------------------------------------------ *)
(* Box copies for modarray bases                                       *)

let copy_box (src : Ndarray.t) (dst : Ndarray.t) (lb : Shape.t) (ub : Shape.t) =
  let rank = Shape.rank lb in
  let empty = ref false in
  for j = 0 to rank - 1 do
    if lb.(j) >= ub.(j) then empty := true
  done;
  if !empty then ()
  else if rank = 0 then Ndarray.set_flat dst 0 (Ndarray.get_flat src 0)
  else begin
    let strides = src.Ndarray.strides in
    let inner_len = ub.(rank - 1) - lb.(rank - 1) in
    let rec go axis off =
      if axis = rank - 1 then
        let off = off + lb.(axis) in
        Bigarray.Array1.blit
          (Bigarray.Array1.sub src.Ndarray.data off inner_len)
          (Bigarray.Array1.sub dst.Ndarray.data off inner_len)
      else
        for c = lb.(axis) to ub.(axis) - 1 do
          go (axis + 1) (off + (c * strides.(axis)))
        done
    in
    go 0 0
  end

(* Copy base into out everywhere outside the box [lb, ub). *)
let copy_complement (base : Ndarray.t) (out : Ndarray.t) (lb : Shape.t) (ub : Shape.t) =
  let shape = Ndarray.shape out in
  let rank = Shape.rank shape in
  (* Standard box-complement decomposition: for each axis, the slabs
     below lb and above ub, with earlier axes restricted to the box. *)
  for j = 0 to rank - 1 do
    let slab_lb = Array.init rank (fun i -> if i < j then lb.(i) else 0) in
    let slab_ub = Array.init rank (fun i -> if i < j then ub.(i) else shape.(i)) in
    let low_ub = Array.copy slab_ub in
    low_ub.(j) <- lb.(j);
    copy_box base out slab_lb low_ub;
    let high_lb = Array.copy slab_lb in
    high_lb.(j) <- ub.(j);
    copy_box base out high_lb slab_ub
  done

(* ------------------------------------------------------------------ *)
(* Ghost shells: the elements with a coordinate at 0 or at extent-1 on
   some axis, packed in flat order.  One walk serves a loan's save and
   restore and the debug checksum of the interior.  It visits the rows
   along the last axis in flat order: a row lies wholly in the shell
   when another coordinate is on the boundary or the row has no
   interior; otherwise only its first and last elements do.  The walk
   calls no closure. *)

type shell_walk = Save | Restore | Checksum

(* Move [len] elements between the array at [off] and the packed side
   buffer at [k]. *)
let[@inline] move walk (a : Ndarray.buffer) (b : Ndarray.buffer) off k len =
  match walk with
  | Save ->
      for i = 0 to len - 1 do
        Bigarray.Array1.unsafe_set b (k + i) (Bigarray.Array1.unsafe_get a (off + i))
      done
  | Restore ->
      for i = 0 to len - 1 do
        Bigarray.Array1.unsafe_set a (off + i) (Bigarray.Array1.unsafe_get b (k + i))
      done
  | Checksum -> ()

(* Under [Checksum], the hash of the interior's bits; 0 otherwise.  A
   plane of the last two axes lies wholly in the shell when an outer
   coordinate is on the boundary (or its rows have no interior), and
   then moves as one block; otherwise its first and last rows do. *)
let walk_shell walk (arr : Ndarray.t) (side : Ndarray.buffer) =
  let a = arr.Ndarray.data and shape = Ndarray.shape arr in
  let rank = Shape.rank shape and total = Shape.num_elements shape in
  let k = ref 0 and h = ref 0 in
  if rank > 0 && total > 0 then begin
    let n = shape.(rank - 1) in
    let m = if rank >= 2 then shape.(rank - 2) else 1 in
    (* The plane's coordinates on axes 0 .. rank-3. *)
    let idx = Array.make rank 0 in
    for plane = 0 to (total / (m * n)) - 1 do
      let p = plane * m * n in
      let outer = ref (n <= 2) in
      for j = 0 to rank - 3 do
        if idx.(j) = 0 || idx.(j) = shape.(j) - 1 then outer := true
      done;
      if !outer then begin
        move walk a side p !k (m * n);
        k := !k + (m * n)
      end
      else
        for r = 0 to m - 1 do
          let off = p + (r * n) in
          if rank >= 2 && (r = 0 || r = m - 1) then begin
            move walk a side off !k n;
            k := !k + n
          end
          else begin
            move walk a side off !k 1;
            move walk a side (off + n - 1) (!k + 1) 1;
            k := !k + 2;
            if walk = Checksum then
              for i = off + 1 to off + n - 2 do
                h :=
                  (!h * 1000003)
                  lxor Int64.to_int (Int64.bits_of_float (Bigarray.Array1.unsafe_get a i))
              done
          end
        done;
      let j = ref (rank - 3) in
      while
        !j >= 0
        &&
        (idx.(!j) <- idx.(!j) + 1;
         idx.(!j) = shape.(!j))
      do
        idx.(!j) <- 0;
        decr j
      done
    done
  end;
  !h

let shell_size shape =
  Shape.num_elements shape - Array.fold_left (fun acc e -> acc * max 0 (e - 2)) 1 shape

let save_shell arr (side : Ndarray.t) = ignore (walk_shell Save arr side.Ndarray.data)
let restore_shell arr (side : Ndarray.t) = ignore (walk_shell Restore arr side.Ndarray.data)
let interior_checksum (arr : Ndarray.t) = walk_shell Checksum arr arr.Ndarray.data

(* ------------------------------------------------------------------ *)
(* Modarray lowering: represent the base pass-through as explicit
   complement parts reading the base, so that the fusion engine can
   fold cheap bases (the SAC view of modarray as a full-partition
   with-loop). *)

(* Subtract a box from a box: up to 2*rank disjoint slabs. *)
let subtract_box (lb, ub) (plb, pub) =
  let rank = Array.length lb in
  let overlap = ref true in
  for j = 0 to rank - 1 do
    if pub.(j) <= lb.(j) || plb.(j) >= ub.(j) then overlap := false
  done;
  if not !overlap then [ (lb, ub) ]
  else begin
    let slabs = ref [] in
    let cur_lb = Array.copy lb and cur_ub = Array.copy ub in
    for j = 0 to rank - 1 do
      if plb.(j) > cur_lb.(j) then begin
        let s_ub = Array.copy cur_ub in
        s_ub.(j) <- plb.(j);
        slabs := (Array.copy cur_lb, s_ub) :: !slabs;
        cur_lb.(j) <- plb.(j)
      end;
      if pub.(j) < cur_ub.(j) then begin
        let s_lb = Array.copy cur_lb in
        s_lb.(j) <- pub.(j);
        slabs := (s_lb, Array.copy cur_ub) :: !slabs;
        cur_ub.(j) <- pub.(j)
      end
    done;
    !slabs
  end

let complement_boxes shape (parts : Ir.part list) =
  let rank = Shape.rank shape in
  let whole = (Shape.replicate rank 0, Array.copy shape) in
  List.fold_left
    (fun boxes (p : Ir.part) ->
      let plb = p.Ir.gen.Generator.lb and pub = p.Ir.gen.Generator.ub in
      List.concat_map (fun box -> subtract_box box (plb, pub)) boxes)
    [ whole ] parts

let complement_parts shape (base : Ir.source) (parts : Ir.part list) =
  let rank = Shape.rank shape in
  List.filter_map
    (fun (lb, ub) ->
      let gen = Generator.make ~lb ~ub () in
      if Generator.is_empty gen then None
      else Some { Ir.gen; body = Ir.Read (base, Ixmap.identity rank) })
    (complement_boxes shape parts)
