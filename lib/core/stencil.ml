open Mg_ndarray
open Mg_withloop

type coeffs = { c0 : float; c1 : float; c2 : float; c3 : float }

let a = { c0 = -8.0 /. 3.0; c1 = 0.0; c2 = 1.0 /. 6.0; c3 = 1.0 /. 12.0 }
let s_a = { c0 = -3.0 /. 8.0; c1 = 1.0 /. 32.0; c2 = -1.0 /. 64.0; c3 = 0.0 }
let s_b = { c0 = -3.0 /. 17.0; c1 = 1.0 /. 33.0; c2 = -1.0 /. 61.0; c3 = 0.0 }
let p = { c0 = 1.0 /. 2.0; c1 = 1.0 /. 4.0; c2 = 1.0 /. 8.0; c3 = 1.0 /. 16.0 }
let q = { c0 = 1.0; c1 = 1.0 /. 2.0; c2 = 1.0 /. 4.0; c3 = 1.0 /. 8.0 }

let coeff c = function 0 -> c.c0 | 1 -> c.c1 | 2 -> c.c2 | 3 -> c.c3 | _ -> 0.0

let to_array c = [| c.c0; c.c1; c.c2; c.c3 |]

let offsets rank =
  let acc = ref [] in
  let d = Array.make rank 0 in
  let rec build j =
    if j = rank then begin
      let cls = Array.fold_left (fun n x -> if x <> 0 then n + 1 else n) 0 d in
      acc := (Array.copy d, cls) :: !acc
    end
    else
      List.iter
        (fun x ->
          d.(j) <- x;
          build (j + 1))
        [ -1; 0; 1 ]
  in
  build 0;
  List.rev !acc

let body c src =
  let module E = Wl.Expr in
  let rank = Wl.rank src in
  List.fold_left
    (fun acc (d, cls) -> E.(acc + (const (coeff c cls) * read_offset src d)))
    (E.const 0.0) (offsets rank)

let apply_offsets get c ~rank iv =
  List.fold_left
    (fun acc (d, cls) -> acc +. (coeff c cls *. get (Shape.add iv d)))
    0.0 (offsets rank)

let memo f =
  let m = Mutex.create () and table = ref [] in
  fun c ->
    Mutex.protect m (fun () ->
        match List.assoc_opt c !table with
        | Some v -> v
        | None ->
            let v = f c in
            table := (c, v) :: !table;
            v)
