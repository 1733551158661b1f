open Mg_ndarray
open Mg_withloop
module E = Wl.Expr

let check_int = Alcotest.(check int)

let node_of (t : Wl.t) =
  (* Wl.t is abstract; go through Ir by rebuilding equivalent nodes. *)
  t

let test_refcounting_edges () =
  let shp = [| 4 |] in
  let a = Ir.genarray shp [ { Ir.gen = Generator.full shp; body = Ir.Const 1.0 } ] in
  check_int "fresh node unreferenced" 0 a.Ir.refs;
  (* One consumer reading it twice in one part: deduplicated edge. *)
  let body =
    Ir.Add (Ir.Read (Ir.Node a, Ixmap.identity 1), Ir.Read (Ir.Node a, Ixmap.offset [| 0 |]))
  in
  let _b = Ir.genarray shp [ { Ir.gen = Generator.full shp; body } ] in
  check_int "one edge per consumer part" 1 a.Ir.refs;
  (* A second consumer adds another edge. *)
  let _c = Ir.genarray shp [ { Ir.gen = Generator.full shp; body = Ir.Read (Ir.Node a, Ixmap.identity 1) } ] in
  check_int "two consumers" 2 a.Ir.refs;
  Ir.decr_refs (Ir.Node a);
  check_int "decremented" 1 a.Ir.refs

let test_modarray_base_edge () =
  let shp = [| 4 |] in
  let a = Ir.genarray shp [ { Ir.gen = Generator.full shp; body = Ir.Const 2.0 } ] in
  let _m = Ir.modarray (Ir.Node a) [] in
  check_int "base edge" 1 a.Ir.refs

let test_generator_validation () =
  let shp = [| 4 |] in
  Alcotest.(check bool) "escaping generator rejected" true
    (try
       ignore
         (Ir.genarray shp
            [ { Ir.gen = Generator.make ~lb:[| 0 |] ~ub:[| 5 |] (); body = Ir.Const 0.0 } ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "rank mismatch rejected" true
    (try
       ignore
         (Ir.genarray shp
            [ { Ir.gen = Generator.full [| 2; 2 |]; body = Ir.Const 0.0 } ]);
       false
     with Invalid_argument _ -> true)

let test_expr_reads_order () =
  let a = Ndarray.create [| 3 |] and b = Ndarray.create [| 3 |] in
  let e =
    Ir.Sub
      ( Ir.Read (Ir.Arr a, Ixmap.identity 1),
        Ir.Mul (Ir.Const 2.0, Ir.Read (Ir.Arr b, Ixmap.identity 1)) )
  in
  let reads = Ir.expr_reads e in
  check_int "two reads" 2 (List.length reads);
  (match reads with
  | [ (Ir.Arr x, _); (Ir.Arr y, _) ] ->
      Alcotest.(check bool) "left to right" true (x == a && y == b)
  | _ -> Alcotest.fail "expected two array reads");
  check_int "sources deduplicated" 2 (List.length (Ir.expr_sources e));
  let e2 = Ir.Add (e, Ir.Read (Ir.Arr a, Ixmap.offset [| 1 |])) in
  check_int "dedup across repeats" 2 (List.length (Ir.expr_sources e2))

let test_map_leaves () =
  let a = Ndarray.fill_value [| 3 |] 5.0 in
  let consts = Ir.Add (Ir.Const 1.0, Ir.Const 2.0) in
  let e = Ir.Add (Ir.Read (Ir.Arr a, Ixmap.identity 1), consts) in
  match Ir.map_leaves (function Ir.Read _ -> Ir.Const 9.0 | l -> l) e with
  | Ir.Add (Ir.Const 9.0, kept) ->
      Alcotest.(check bool) "unchanged subtree shared" true (kept == consts)
  | _ -> Alcotest.fail "read replaced"

let test_subst_index_on_opaque () =
  (* Fusion.subst_index must remap opaque bodies through the map. *)
  let f iv = float_of_int iv.(0) in
  let e = Fusion.subst_index (Ixmap.offset [| 10 |]) (Ir.Opaque f) in
  match e with
  | Ir.Opaque g -> Alcotest.(check (float 0.0)) "shifted" 15.0 (g [| 5 |])
  | _ -> Alcotest.fail "still opaque"

let test_escaped_flag () =
  let shp = [| 4 |] in
  let n = Ir.genarray shp [ { Ir.gen = Generator.full shp; body = Ir.Const 1.0 } ] in
  Alcotest.(check bool) "fresh not escaped" false n.Ir.escaped;
  Ir.mark_escaped n;
  Alcotest.(check bool) "marked" true n.Ir.escaped

let test_cache_set_clear () =
  let shp = [| 4 |] in
  let n = Ir.genarray shp [ { Ir.gen = Generator.full shp; body = Ir.Const 1.0 } ] in
  Alcotest.(check bool) "no cache" true (n.Ir.cache = None);
  let a = Ndarray.create shp in
  Ir.set_cache n a;
  Alcotest.(check bool) "cached" true (match n.Ir.cache with Some x -> x == a | None -> false);
  Ir.clear_cache n;
  Alcotest.(check bool) "cleared" true (n.Ir.cache = None)

let _ = node_of

(* Random expressions over a small pool of sources — two nodes, each
   read from several places, and two arrays — against the list walk
   the one-pass walks replace. *)
let walk_pool =
  lazy
    (let shp = [| 4 |] in
     let node v = Ir.Node (Ir.genarray shp [ { Ir.gen = Generator.full shp; body = Ir.Const v } ]) in
     [| node 1.0; node 2.0; Ir.Arr (Ndarray.create shp); Ir.Arr (Ndarray.create shp) |])

let gen_walk_expr =
  QCheck.Gen.(
    sized_size (0 -- 12)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [ map (fun c -> Ir.Const (float_of_int c)) (0 -- 3);
                 map2
                   (fun i o -> Ir.Read ((Lazy.force walk_pool).(i), Ixmap.offset [| o |]))
                   (0 -- 3) (-1 -- 1);
                 return (Ir.Opaque (fun _ -> 0.0));
               ]
           in
           if n = 0 then leaf
           else
             frequency
               [ (1, leaf);
                 (1, map (fun e -> Ir.Neg e) (self (n - 1)));
                 (1, map (fun e -> Ir.Sqrt e) (self (n - 1)));
                 (2, map2 (fun a b -> Ir.Add (a, b)) (self (n / 2)) (self (n / 2)));
                 (1, map2 (fun a b -> Ir.Sub (a, b)) (self (n / 2)) (self (n / 2)));
                 (2, map2 (fun a b -> Ir.Mul (a, b)) (self (n / 2)) (self (n / 2)));
                 (1, map2 (fun a b -> Ir.Divf (a, b)) (self (n / 2)) (self (n / 2)));
               ]))

let same_source a b =
  match (a, b) with Ir.Node x, Ir.Node y -> x == y | Ir.Arr x, Ir.Arr y -> x == y | _ -> false

(* The list-walk definition of the source list (dedup, first occurrence). *)
let sources_by_list e =
  List.fold_left
    (fun acc (s, _) -> if List.exists (same_source s) acc then acc else acc @ [ s ])
    [] (Ir.expr_reads e)

let qcheck_read_walks =
  QCheck.Test.make ~name:"one-pass read walks = expr_reads" ~count:300
    (QCheck.make ~print:(Format.asprintf "%a" Ir.pp_expr) gen_walk_expr)
    (fun e ->
      let reads = Ir.expr_reads e in
      let folded = List.rev (Ir.fold_reads (fun acc s m -> (s, m) :: acc) [] e) in
      let first_node =
        List.find_map (function Ir.Node n, _ -> Some n | Ir.Arr _, _ -> None) reads
      in
      let reads_of n =
        List.filter_map (fun (s, m) -> if same_source s (Ir.Node n) then Some m else None)
      in
      Ir.read_count e = List.length reads
      && List.length folded = List.length reads
      && List.for_all2 (fun (s, m) (s', m') -> same_source s s' && m == m') folded reads
      && (match (Ir.first_node_read e, first_node) with
         | Some a, Some b -> a == b
         | None, None -> true
         | _ -> false)
      && Array.for_all
           (function
             | Ir.Node n ->
                 List.equal ( == ) (reads_of n folded) (reads_of n reads)
             | Ir.Arr _ -> true)
           (Lazy.force walk_pool)
      && List.equal same_source (Ir.expr_sources e) (sources_by_list e))

let suite =
  ( "ir",
    [ Alcotest.test_case "refcounting edges" `Quick test_refcounting_edges;
      Alcotest.test_case "modarray base edge" `Quick test_modarray_base_edge;
      Alcotest.test_case "generator validation" `Quick test_generator_validation;
      Alcotest.test_case "expr_reads order and dedup" `Quick test_expr_reads_order;
      Alcotest.test_case "map_leaves" `Quick test_map_leaves;
      Alcotest.test_case "subst_index remaps opaque" `Quick test_subst_index_on_opaque;
      Alcotest.test_case "escaped flag" `Quick test_escaped_flag;
      Alcotest.test_case "cache set/clear" `Quick test_cache_set_clear;
      QCheck_alcotest.to_alcotest qcheck_read_walks;
    ] )
