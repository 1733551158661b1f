open Mg_ndarray
module Nasrand = Mg_nasrand.Nasrand

let idx m i3 i2 i1 = ((i3 * m) + i2) * m + i1

(* Fill the interior of z (extent m = n+2) with the NAS random field,
   exactly replicating the seed jumps of zran3: one vranlc call per
   interior row, row seeds advanced by a^n, plane seeds by a^(n*n). *)
let fill_random z ~n =
  let m = n + 2 in
  let a = Nasrand.default_multiplier in
  let a1 = Nasrand.power ~a ~n in
  let a2 = Nasrand.power ~a ~n:(n * n) in
  let x0 = Nasrand.make () in
  (* ai = a^((is1-2) + nx*((is2-2) + ny*(is3-2))) = a^0 in the serial
     single-processor decomposition; the multiply is kept for fidelity. *)
  ignore (Nasrand.randlc x0 ~a:(Nasrand.power ~a ~n:0));
  let row = Nasrand.make () in
  let x1 = Nasrand.make () in
  for i3 = 1 to n do
    Nasrand.set_seed x1 (Nasrand.seed_of x0);
    for i2 = 1 to n do
      Nasrand.set_seed row (Nasrand.seed_of x1);
      let base = idx m i3 i2 1 in
      Nasrand.vranlc row ~a ~n ~f:(fun i v -> Ndarray.unsafe_set_flat z (base + i) v);
      ignore (Nasrand.randlc x1 ~a:a1)
    done;
    ignore (Nasrand.randlc x0 ~a:a2)
  done

let random_field ~n =
  let m = n + 2 in
  let z = Ndarray.create [| m; m; m |] in
  fill_random z ~n;
  z

(* Keep the [count] largest (resp. smallest) interior values with an
   insertion structure equivalent to mg.f's ten/j1/j2/j3 bubble: the
   kept list is sorted, the threshold element is replaced and bubbled.
   Values are pairwise distinct, so order of scanning cannot matter. *)
let extremes z ~n ~count =
  let m = n + 2 in
  (* Sorted ascending by value: best.(0) is the threshold. *)
  let large = Array.make count (Float.neg_infinity, (0, 0, 0)) in
  let small = Array.make count (Float.infinity, (0, 0, 0)) in
  let insert arr cmp v pos =
    (* arr sorted so that arr.(0) is the replaceable threshold. *)
    if cmp v (fst arr.(0)) then begin
      arr.(0) <- (v, pos);
      let i = ref 0 in
      (* Restore sortedness: bubble the new element away from the
         threshold slot while it beats its neighbour. *)
      while !i + 1 < count && cmp (fst arr.(!i)) (fst arr.(!i + 1)) do
        let t = arr.(!i) in
        arr.(!i) <- arr.(!i + 1);
        arr.(!i + 1) <- t;
        incr i
      done
    end
  in
  for i3 = 1 to n do
    for i2 = 1 to n do
      for i1 = 1 to n do
        let v = Ndarray.unsafe_get_flat z (idx m i3 i2 i1) in
        insert large (fun a b -> a > b) v (i3, i2, i1);
        insert small (fun a b -> a < b) v (i3, i2, i1)
      done
    done
  done;
  ( Array.to_list (Array.map snd large),
    List.rev (Array.to_list (Array.map snd small)) )

(* Sequential comm3: periodic border update, axis by axis, matching the
   reference code's order so edges and corners receive copies of
   copies. *)
let comm3 z ~n =
  let m = n + 2 in
  let g = z.Ndarray.data in
  (* Axis i1 (contiguous): interior i2, i3. *)
  for i3 = 1 to n do
    for i2 = 1 to n do
      let b = idx m i3 i2 0 in
      Bigarray.Array1.unsafe_set g b (Bigarray.Array1.unsafe_get g (b + n));
      Bigarray.Array1.unsafe_set g (b + n + 1) (Bigarray.Array1.unsafe_get g (b + 1))
    done
  done;
  (* Axis i2: all i1, interior i3. *)
  for i3 = 1 to n do
    for i1 = 0 to m - 1 do
      Bigarray.Array1.unsafe_set g (idx m i3 0 i1) (Bigarray.Array1.unsafe_get g (idx m i3 n i1));
      Bigarray.Array1.unsafe_set g (idx m i3 (n + 1) i1) (Bigarray.Array1.unsafe_get g (idx m i3 1 i1))
    done
  done;
  (* Axis i3: full planes. *)
  for i2 = 0 to m - 1 do
    for i1 = 0 to m - 1 do
      Bigarray.Array1.unsafe_set g (idx m 0 i2 i1) (Bigarray.Array1.unsafe_get g (idx m n i2 i1));
      Bigarray.Array1.unsafe_set g (idx m (n + 1) i2 i1) (Bigarray.Array1.unsafe_get g (idx m 1 i2 i1))
    done
  done

let generate_compact ~n =
  let z = random_field ~n in
  let large, small = extremes z ~n ~count:10 in
  let v = Ndarray.create [| n; n; n |] in
  List.iter (fun (i3, i2, i1) -> Ndarray.set v [| i3 - 1; i2 - 1; i1 - 1 |] (-1.0)) small;
  List.iter (fun (i3, i2, i1) -> Ndarray.set v [| i3 - 1; i2 - 1; i1 - 1 |] 1.0) large;
  v

(* Only the interior is read before the fill, so [z] may come
   uninitialised. *)
let generate_into z ~n =
  let m = n + 2 in
  if Ndarray.shape z <> [| m; m; m |] then invalid_arg "Zran3.generate_into: shape";
  fill_random z ~n;
  let large, small = extremes z ~n ~count:10 in
  Ndarray.fill z 0.0;
  List.iter (fun (i3, i2, i1) -> Ndarray.set_flat z (idx m i3 i2 i1) (-1.0)) small;
  List.iter (fun (i3, i2, i1) -> Ndarray.set_flat z (idx m i3 i2 i1) 1.0) large;
  comm3 z ~n

let generate ~n =
  let z = Ndarray.create_uninit [| n + 2; n + 2; n + 2 |] in
  generate_into z ~n;
  z
