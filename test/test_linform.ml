open Mg_ndarray
open Mg_withloop
module E = Wl.Expr

let arr shp = Ndarray.fill_value shp 1.0
let read a = E.read (Wl.of_ndarray a)

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-12))

let terms (l : Linform.t) =
  List.combine (Array.to_list l.Linform.coeffs) (Array.to_list l.Linform.reads)
let terms_of e = match Linform.of_expr e with Some l -> terms l | None -> []

(* The coefficient groups of [Linform.iter_groups ~factor:true], as
   lists. *)
let factor (l : Linform.t) =
  let groups = ref [] in
  Linform.iter_groups ~factor:true l (fun g t ->
      match !groups with
      | (g', rs) :: rest when g' = g -> groups := (g, l.Linform.reads.(t) :: rs) :: rest
      | gs -> groups := (g, [ l.Linform.reads.(t) ]) :: gs);
  List.rev_map (fun (g, rs) -> (l.Linform.coeffs.(g), List.rev rs)) !groups

let test_const () =
  match Linform.of_expr (E.const 3.5) with
  | Some l ->
      check_float "const" 3.5 l.Linform.const;
      check_int "no terms" 0 (Linform.num_terms l)
  | None -> Alcotest.fail "const is linear"

let test_single_read () =
  let a = arr [| 4 |] in
  match Linform.of_expr (read a) with
  | Some l -> (
      check_float "const" 0.0 l.Linform.const;
      match terms l with
      | [ (c, r) ] ->
          check_float "unit coeff" 1.0 c;
          Alcotest.(check bool) "same array" true (r.Linform.arr == a)
      | _ -> Alcotest.fail "one term")
  | None -> Alcotest.fail "read is linear"

let test_affine_combination () =
  let a = arr [| 4 |] and b = arr [| 4 |] in
  let e = E.((const 2.0 * read (Wl.of_ndarray a)) - (read (Wl.of_ndarray b) / const 4.0) + const 1.0) in
  match Linform.of_expr e with
  | Some l ->
      check_float "const" 1.0 l.Linform.const;
      check_int "two terms" 2 (Linform.num_terms l);
      let coeffs = Array.to_list l.Linform.coeffs in
      Alcotest.(check (list (float 1e-12))) "coeffs" [ 2.0; -0.25 ] coeffs
  | None -> Alcotest.fail "affine is linear"

let test_neg_distributes () =
  let a = arr [| 4 |] in
  let e = E.(neg (const 3.0 * read (Wl.of_ndarray a))) in
  match terms_of e with
  | [ (c, _) ] -> check_float "negated" (-3.0) c
  | _ -> Alcotest.fail "one term"

let test_nonlinear_rejected () =
  let a = arr [| 4 |] in
  let wa = Wl.of_ndarray a in
  let r = E.read wa in
  Alcotest.(check bool) "product of reads" true (Linform.of_expr E.(r * r) = None);
  Alcotest.(check bool) "sqrt" true (Linform.of_expr (E.sqrt r) = None);
  Alcotest.(check bool) "abs" true (Linform.of_expr (E.abs r) = None);
  Alcotest.(check bool) "opaque" true (Linform.of_expr (E.of_fun (fun _ -> 0.0)) = None);
  Alcotest.(check bool) "divide by read" true (Linform.of_expr E.(const 1.0 / r) = None)

let test_node_read_rejected () =
  (* Unforced producers must not reach linearisation. *)
  let shp = [| 4 |] in
  let n = Wl.genarray shp [ (Generator.full shp, E.const 1.0) ] in
  Alcotest.(check bool) "node read" true (Linform.of_expr (E.read n) = None)

let test_factor_groups_and_drops_zero () =
  let a = arr [| 8 |] in
  let wa = Wl.of_ndarray a in
  let e =
    E.(
      (const 0.5 * read_offset wa [| -1 |])
      + (const 0.25 * read_offset wa [| 0 |])
      + (const 0.5 * read_offset wa [| 1 |])
      + (const 0.0 * read_offset wa [| 2 |]))
  in
  match Linform.of_expr e with
  | None -> Alcotest.fail "linear"
  | Some l ->
      let groups = factor l in
      check_int "two groups" 2 (List.length groups);
      let sizes = List.map (fun (_, rs) -> List.length rs) groups in
      Alcotest.(check (list int)) "group sizes in order" [ 2; 1 ] sizes;
      Alcotest.(check (list (float 1e-12))) "group coeffs" [ 0.5; 0.25 ] (List.map fst groups)

let test_to_expr_roundtrip () =
  let a = Ndarray.init [| 6 |] (fun iv -> float_of_int iv.(0) +. 0.5) in
  let wa = Wl.of_ndarray a in
  let e = E.((const 2.0 * read wa) + const 1.0 - (const 0.5 * read_offset wa [| 1 |])) in
  match Linform.of_expr e with
  | None -> Alcotest.fail "linear"
  | Some l ->
      let e' = Linform.to_expr l in
      let shp = [| 5 |] in
      let r1 = Wl.force (Wl.genarray shp [ (Generator.full shp, e) ]) in
      let r2 = Wl.force (Wl.genarray shp [ (Generator.full shp, e') ]) in
      Alcotest.(check bool) "same values" true (Ndarray.max_abs_diff r1 r2 < 1e-12)

(* ------------------------------------------------------------------ *)
(* The list-based extraction, grouping and clustering that the
   array-based ones replaced, kept as the oracle of term, group and
   cluster order. *)

module Old = struct
  type lin = { const : float; terms : (float * Linform.read) list }

  let scale_lin k l = { const = k *. l.const; terms = List.map (fun (c, r) -> (k *. c, r)) l.terms }
  let add_lin a b = { const = a.const +. b.const; terms = a.terms @ b.terms }

  let rec of_expr : Ir.expr -> lin option = function
    | Ir.Const c -> Some { const = c; terms = [] }
    | Ir.Read (Ir.Arr a, m) -> Some { const = 0.0; terms = [ (1.0, { Linform.arr = a; map = m }) ] }
    | Ir.Read (Ir.Node _, _) -> None
    | Ir.Neg e -> Option.map (scale_lin (-1.0)) (of_expr e)
    | Ir.Add (a, b) -> (
        match (of_expr a, of_expr b) with Some la, Some lb -> Some (add_lin la lb) | _ -> None)
    | Ir.Sub (a, b) -> (
        match (of_expr a, of_expr b) with
        | Some la, Some lb -> Some (add_lin la (scale_lin (-1.0) lb))
        | _ -> None)
    | Ir.Mul (a, b) -> (
        match (of_expr a, of_expr b) with
        | Some { const = ca; terms = [] }, Some lb -> Some (scale_lin ca lb)
        | Some la, Some { const = cb; terms = [] } -> Some (scale_lin cb la)
        | _ -> None)
    | Ir.Divf (a, b) -> (
        match (of_expr a, of_expr b) with
        | Some la, Some { const = cb; terms = [] } when cb <> 0.0 -> Some (scale_lin (1.0 /. cb) la)
        | _ -> None)
    | Ir.Sqrt _ | Ir.Absf _ | Ir.Opaque _ -> None

  let factor l =
    let groups : (float * Linform.read list ref) list ref = ref [] in
    List.iter
      (fun (c, r) ->
        if c <> 0.0 then
          match List.assoc_opt c !groups with
          | Some cell -> cell := r :: !cell
          | None -> groups := !groups @ [ (c, ref [ r ]) ])
      l.terms;
    List.map (fun (c, cell) -> (c, List.rev !cell)) !groups

  let groups_of ~factor:f l = if f then factor l else List.map (fun (c, r) -> (c, [ r ])) l.terms

  type cluster = {
    cbuf : Ndarray.buffer;
    cbase : int;
    csteps : int array;
    mutable cgroups : (float * int list ref) list;
  }

  let read_layout (ax : Cluster.axes) (r : Linform.read) =
    let arr = r.Linform.arr in
    let strides = arr.Ndarray.strides and src_shape = Ndarray.shape arr and m = r.Linform.map in
    let rank = Array.length ax.Cluster.c0 in
    let base = ref 0 and steps = Array.make rank 0 and ok = ref true in
    for j = 0 to rank - 1 do
      let s = m.Ixmap.scale.(j) and o = m.Ixmap.offset.(j) and d = m.Ixmap.div.(j) in
      let v0 = (s * ax.Cluster.c0.(j)) + o in
      let step_exact = ax.Cluster.counts.(j) <= 1 || s * ax.Cluster.astep.(j) mod d = 0 in
      if v0 < 0 || v0 mod d <> 0 || not step_exact then ok := false
      else begin
        let first = v0 / d in
        let kstep = if ax.Cluster.counts.(j) <= 1 then 0 else s * ax.Cluster.astep.(j) / d in
        let last = first + ((ax.Cluster.counts.(j) - 1) * kstep) in
        if first < 0 || last >= src_shape.(j) then invalid_arg "escapes";
        base := !base + (strides.(j) * first);
        steps.(j) <- strides.(j) * kstep
      end
    done;
    if !ok then Some (arr.Ndarray.data, strides, !base, steps) else None

  let clusterize ax groups =
    let clusters = ref [] and ok = ref true in
    List.iter
      (fun (coeff, reads) ->
        List.iter
          (fun r ->
            match read_layout ax r with
            | None -> ok := false
            | Some (buf, strides, base, steps) ->
                if !ok then begin
                  let c =
                    let same (c, _) = c.cbuf == buf && Shape.equal c.csteps steps in
                    match List.find_opt same !clusters with
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
        (List.map
           (fun (c, strides) ->
             ( c.cbuf, c.cbase, c.csteps, strides, List.map fst c.cgroups,
               List.map (fun (_, cell) -> List.rev !cell) c.cgroups ))
           !clusters)
end

(* Random linear bodies over three 6^3 sources (the third shares the
   first's buffer), the first also read as a plane (scale 0 on the last
   axis: another walk of the same buffer), and a 10^3 one read at twice
   the index, on a dense, a strided or a widened generator, with
   repeated, zero, signed-zero and NaN coefficients and the occasional
   non-linear or inexact node. *)
let lin_sources =
  lazy
    (let a = Ndarray.create [| 6; 6; 6 |] in
     [| a; Ndarray.create [| 6; 6; 6 |]; Ndarray.of_buffer [| 6; 6; 6 |] a.Ndarray.data;
        Ndarray.create [| 10; 10; 10 |] |])

let lin_gens =
  lazy
    [| Generator.make ~lb:[| 1; 1; 1 |] ~ub:[| 3; 3; 3 |] ();
       Generator.make ~step:[| 1; 2; 1 |] ~lb:[| 1; 1; 1 |] ~ub:[| 3; 4; 4 |] ();
       Generator.make ~step:[| 1; 1; 2 |] ~width:[| 1; 1; 2 |] ~lb:[| 1; 1; 1 |] ~ub:[| 3; 3; 5 |] ();
       Generator.make ~lb:[| 2; 1; 1 |] ~ub:[| 3; 4; 2 |] ();
    |]

let coeff_pool = [| 1.0; -1.0; 0.5; 0.25; 0.0; -0.0; 2.0; Float.nan; 1.0 /. 3.0 |]

let gen_lin_body =
  QCheck.Gen.(
    let read =
      map2
        (fun src d ->
          let srcs = Lazy.force lin_sources in
          let map =
            if src = 3 then Ixmap.make ~scale:[| 2; 2; 2 |] ~offset:d 3
            else if src = 4 then Ixmap.make ~scale:[| 1; 1; 0 |] ~offset:[| d.(0); d.(1); 2 |] 3
            else if d.(0) = 0 && d.(1) = 0 && d.(2) = 1 then Ixmap.make ~div:[| 1; 1; 2 |] 3
            else Ixmap.offset d
          in
          Ir.Read (Ir.Arr srcs.(if src = 4 then 0 else src), map))
        (0 -- 4)
        (array_repeat 3 (-1 -- 1))
    in
    let const = map (fun i -> Ir.Const coeff_pool.(i)) (0 -- (Array.length coeff_pool - 1)) in
    sized_size (1 -- 20)
    @@ fix (fun self n ->
           if n = 0 then frequency [ (3, read); (1, const) ]
           else
             frequency
               [ (2, read);
                 (4, map2 (fun a b -> Ir.Add (a, b)) (self (n / 2)) (self (n / 2)));
                 (2, map2 (fun a b -> Ir.Sub (a, b)) (self (n / 2)) (self (n / 2)));
                 (1, map (fun e -> Ir.Neg e) (self (n - 1)));
                 (3, map2 (fun c e -> Ir.Mul (c, e)) const (self (n - 1)));
                 (1, map2 (fun e c -> Ir.Mul (e, c)) (self (n - 1)) const);
                 (1, map2 (fun e c -> Ir.Divf (e, c)) (self (n - 1)) const);
                 (1, map2 (fun a b -> Ir.Mul (a, b)) (self (n / 2)) (self (n / 2)));
                 (1, map (fun e -> Ir.Sqrt e) (self (n - 1)));
               ]))

let bits = Int64.bits_of_float
let same_read (a : Linform.read) (b : Linform.read) =
  a.Linform.arr == b.Linform.arr && a.Linform.map == b.Linform.map

let catching f = match f () with v -> Ok v | exception Invalid_argument _ -> Error ()

let qcheck_order_kept =
  QCheck.Test.make ~name:"Linform/Cluster keep term, group and cluster order" ~count:400
    (QCheck.make
       ~print:(fun (g, e) -> Printf.sprintf "gen %d: %s" g (Format.asprintf "%a" Ir.pp_expr e))
       QCheck.Gen.(pair (0 -- 3) gen_lin_body))
    (fun (gi, e) ->
      match (Linform.of_expr e, Old.of_expr e) with
      | None, None -> true
      | Some l, Some o ->
          let terms_kept =
            bits l.Linform.const = bits o.Old.const
            && List.length o.Old.terms = Linform.num_terms l
            && List.for_all2
                 (fun (c, r) (c', r') -> bits c = bits c' && same_read r r')
                 (terms l) o.Old.terms
          in
          let groups_kept =
            List.equal
              (fun (c, rs) (c', rs') -> bits c = bits c' && List.equal same_read rs rs')
              (factor l) (Old.factor o)
          in
          let clusters_kept factor =
            match Cluster.axes_of_gen (Lazy.force lin_gens).(gi) with
            | None -> true
            | Some ax -> (
                match
                  ( catching (fun () -> Cluster.clusterize ax ~factor l),
                    catching (fun () -> Old.clusterize ax (Old.groups_of ~factor o)) )
                with
                | Error (), Error () | Ok None, Ok None -> true
                | Ok (Some cls), Ok (Some old) ->
                    Array.length cls = List.length old
                    && List.for_all2
                      (fun (cl : Cluster.ccluster) (buf, base, steps, strides, coeffs, deltas) ->
                        cl.Cluster.xbuf == buf && cl.Cluster.xbase = base
                        && cl.Cluster.xsteps = steps && cl.Cluster.xstrides == strides
                        && List.equal
                             (fun c c' -> bits c = bits c')
                             (Array.to_list cl.Cluster.xcoeffs) coeffs
                        && List.equal ( = )
                             (List.map Array.to_list (Array.to_list cl.Cluster.xdeltas))
                             deltas)
                      (Array.to_list cls) old
                | _ -> false)
          in
          terms_kept && groups_kept && clusters_kept true && clusters_kept false
      | _ -> false)

let suite =
  ( "linform",
    [ Alcotest.test_case "const" `Quick test_const;
      Alcotest.test_case "single read" `Quick test_single_read;
      Alcotest.test_case "affine combination" `Quick test_affine_combination;
      Alcotest.test_case "neg distributes" `Quick test_neg_distributes;
      Alcotest.test_case "nonlinear rejected" `Quick test_nonlinear_rejected;
      Alcotest.test_case "node read rejected" `Quick test_node_read_rejected;
      Alcotest.test_case "factor groups, drops zeros" `Quick test_factor_groups_and_drops_zero;
      Alcotest.test_case "to_expr roundtrip" `Quick test_to_expr_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_order_kept;
    ] )
