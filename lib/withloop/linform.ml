open Mg_ndarray

type read = { arr : Ndarray.t; map : Ixmap.t }

type t = { const : float; coeffs : float array; reads : read array }

exception Nonlinear

let no_read = { arr = Ndarray.create [| 0 |]; map = Ixmap.identity 0 }

(* One bottom-up walk into arrays sized by the read count.  Each
   subexpression's terms fill a contiguous run, in reading order, so a
   sum is two runs side by side and scaling a subexpression multiplies
   its run's coefficients in place: the same products, in the same
   order, as scaling a list of its terms.  The walk leaves each
   subexpression's constant in [const.(0)]. *)
let of_expr (e : Ir.expr) : t option =
  let n = Ir.read_count e in
  let coeffs = Array.make n 0.0 and reads = Array.make n no_read in
  let const = [| 0.0 |] and pos = ref 0 in
  let scale k from =
    for i = from to !pos - 1 do
      coeffs.(i) <- k *. coeffs.(i)
    done
  in
  let rec walk : Ir.expr -> unit = function
    | Ir.Const c -> const.(0) <- c
    | Ir.Read (Ir.Arr a, m) ->
        coeffs.(!pos) <- 1.0;
        reads.(!pos) <- { arr = a; map = m };
        incr pos;
        const.(0) <- 0.0
    | Ir.Read (Ir.Node _, _) | Ir.Sqrt _ | Ir.Absf _ | Ir.Opaque _ -> raise Nonlinear
    | Ir.Neg e ->
        let from = !pos in
        walk e;
        scale (-1.0) from;
        const.(0) <- -1.0 *. const.(0)
    | Ir.Add (a, b) ->
        walk a;
        let ca = const.(0) in
        walk b;
        const.(0) <- ca +. const.(0)
    | Ir.Sub (a, b) ->
        walk a;
        let ca = const.(0) and from = !pos in
        walk b;
        scale (-1.0) from;
        const.(0) <- ca +. (-1.0 *. const.(0))
    | Ir.Mul (a, b) ->
        let from = !pos in
        walk a;
        let ca = const.(0) and mid = !pos in
        walk b;
        let cb = const.(0) in
        (* A constant factor scales the other side; the left one first. *)
        if mid = from then begin
          scale ca mid;
          const.(0) <- ca *. cb
        end
        else if !pos = mid then begin
          scale cb from;
          const.(0) <- cb *. ca
        end
        else raise Nonlinear
    | Ir.Divf (a, b) ->
        let from = !pos in
        walk a;
        let ca = const.(0) and mid = !pos in
        walk b;
        let cb = const.(0) in
        if !pos = mid && cb <> 0.0 then begin
          let k = 1.0 /. cb in
          scale k from;
          const.(0) <- k *. ca
        end
        else raise Nonlinear
  in
  match walk e with
  | () -> Some { const = const.(0); coeffs; reads }
  | exception Nonlinear -> None

(* Coefficients group by the equality of an assoc lookup
   ([compare c c' = 0]): [-0.0] joins [0.0], and a NaN any NaN.  By
   index, so that no float is boxed across a call. *)
let same_coeff (coeffs : float array) i j =
  let a = coeffs.(i) and b = coeffs.(j) in
  a = b || (a <> a && b <> b)

(* Whether a non-zero term before [i] has term [i]'s coefficient. *)
let rec joins coeffs i j =
  j < i && ((coeffs.(j) <> 0.0 && same_coeff coeffs j i) || joins coeffs i (j + 1))

let iter_groups ~factor (l : t) f =
  let n = Array.length l.coeffs in
  if not factor then
    for t = 0 to n - 1 do
      f t t
    done
  else
    for g = 0 to n - 1 do
      if l.coeffs.(g) <> 0.0 && not (joins l.coeffs g 0) then
        for t = g to n - 1 do
          if same_coeff l.coeffs t g then f g t
        done
    done

let num_terms l = Array.length l.coeffs

let to_expr l =
  let acc = ref (Ir.Const l.const) in
  Array.iteri
    (fun i c ->
      let r = l.reads.(i) in
      acc := Ir.Add (!acc, Ir.Mul (Ir.Const c, Ir.Read (Ir.Arr r.arr, r.map))))
    l.coeffs;
  !acc
