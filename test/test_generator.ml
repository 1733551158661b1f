open Mg_ndarray
open Mg_withloop

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let g ?step ?width lb ub =
  Generator.make ?step:(Option.map Array.of_list step) ?width:(Option.map Array.of_list width)
    ~lb:(Array.of_list lb) ~ub:(Array.of_list ub) ()

let test_full () =
  let gen = Generator.full [| 2; 3 |] in
  check_int "cardinal" 6 (Generator.cardinal gen);
  check_bool "mem" true (Generator.mem gen [| 1; 2 |]);
  check_bool "not mem" false (Generator.mem gen [| 2; 0 |])

let test_interior () =
  let gen = Generator.interior [| 5; 5 |] 1 in
  check_int "cardinal" 9 (Generator.cardinal gen);
  check_bool "corner out" false (Generator.mem gen [| 0; 0 |]);
  check_bool "center in" true (Generator.mem gen [| 2; 2 |])

let test_face () =
  let gen = Generator.face [| 4; 5 |] ~axis:0 ~pos:3 in
  check_int "cardinal" 5 (Generator.cardinal gen);
  check_bool "on face" true (Generator.mem gen [| 3; 2 |]);
  check_bool "off face" false (Generator.mem gen [| 2; 2 |])

let test_step_width_semantics () =
  (* SAC spec: iv in [lb,ub) with (iv-lb) mod step < width. *)
  let gen = g ~step:[ 3 ] ~width:[ 2 ] [ 1 ] [ 11 ] in
  let expected = [ 1; 2; 4; 5; 7; 8; 10 ] in
  Alcotest.(check (list int))
    "positions" expected
    (Array.to_list (Generator.axis_positions gen 0));
  check_int "cardinal" (List.length expected) (Generator.cardinal gen);
  List.iter (fun c -> check_bool (Printf.sprintf "mem %d" c) true (Generator.mem gen [| c |])) expected;
  List.iter
    (fun c -> check_bool (Printf.sprintf "not mem %d" c) false (Generator.mem gen [| c |]))
    [ 0; 3; 6; 9 ]

let test_iter_matches_mem () =
  let gen = g ~step:[ 2; 3 ] ~width:[ 1; 2 ] [ 0; 1 ] [ 7; 9 ] in
  let via_iter = Generator.to_list gen in
  let via_mem = ref [] in
  Shape.iter [| 7; 9 |] (fun iv -> if Generator.mem gen iv then via_mem := Array.copy iv :: !via_mem);
  Alcotest.(check (list (array int))) "same set, same order" (List.rev !via_mem) via_iter;
  check_int "cardinal agrees" (List.length via_iter) (Generator.cardinal gen)

let test_empty () =
  let gen = g [ 2 ] [ 2 ] in
  check_bool "empty" true (Generator.is_empty gen);
  check_int "no positions" 0 (Generator.cardinal gen)

let test_restrict_axis () =
  let gen = g ~step:[ 2 ] [ 1 ] [ 11 ] in
  (* positions 1,3,5,7,9 *)
  match Generator.restrict_axis gen ~axis:0 ~lo:4 ~hi:9 with
  | None -> Alcotest.fail "expected non-empty restriction"
  | Some r ->
      Alcotest.(check (list int)) "restricted" [ 5; 7 ] (Array.to_list (Generator.axis_positions r 0));
      check_bool "none above" true (Generator.restrict_axis gen ~axis:0 ~lo:10 ~hi:11 = None);
      check_bool "empty band" true (Generator.restrict_axis gen ~axis:0 ~lo:2 ~hi:3 = None)

let test_refine_axis_mod () =
  let gen = g [ 0 ] [ 10 ] in
  (match Generator.refine_axis_mod gen ~axis:0 ~modulus:2 ~residue:1 with
  | None -> Alcotest.fail "expected odd class"
  | Some r ->
      Alcotest.(check (list int)) "odds" [ 1; 3; 5; 7; 9 ] (Array.to_list (Generator.axis_positions r 0)));
  (* Refining a step-2 generator by an incompatible residue is empty. *)
  let gen2 = g ~step:[ 2 ] [ 0 ] [ 10 ] in
  check_bool "incompatible" true (Generator.refine_axis_mod gen2 ~axis:0 ~modulus:2 ~residue:1 = None);
  match Generator.refine_axis_mod gen2 ~axis:0 ~modulus:3 ~residue:1 with
  | None -> Alcotest.fail "expected residue-1 mod 3 subset"
  | Some r ->
      (* positions of gen2: 0 2 4 6 8; ≡1 mod 3: 4 ... step lcm(2,3)=6 *)
      Alcotest.(check (list int)) "mod 3" [ 4 ] (Array.to_list (Generator.axis_positions r 0))

let test_refine_partitions () =
  let gen = g ~step:[ 1; 2 ] [ 0; 1 ] [ 5; 9 ] in
  let classes =
    List.filter_map
      (fun r -> Generator.refine_axis_mod gen ~axis:0 ~modulus:3 ~residue:r)
      [ 0; 1; 2 ]
  in
  check_bool "partition" true (Generator.disjoint_union_is classes gen)

let test_split_axis () =
  let gen = g ~step:[ 2; 1 ] [ 0; 0 ] [ 16; 3 ] in
  let pieces = Generator.split_axis gen ~axis:0 ~pieces:3 in
  check_bool "3 pieces" true (List.length pieces = 3);
  check_bool "partition" true (Generator.disjoint_union_is pieces gen);
  (* More pieces than blocks degrades gracefully. *)
  let single = g [ 0; 0 ] [ 1; 3 ] in
  let pieces = Generator.split_axis single ~axis:0 ~pieces:8 in
  check_bool "collapses" true (List.length pieces = 1);
  check_bool "still everything" true (Generator.disjoint_union_is pieces single)

let test_make_validation () =
  Alcotest.check_raises "bad width" (Invalid_argument "Generator.make: width must satisfy 1 <= width <= step")
    (fun () -> ignore (g ~step:[ 2 ] ~width:[ 3 ] [ 0 ] [ 4 ]));
  Alcotest.check_raises "bad step" (Invalid_argument "Generator.make: step must be >= 1")
    (fun () -> ignore (g ~step:[ 0 ] [ 0 ] [ 4 ]))

let qcheck_split_partitions =
  QCheck.Test.make ~name:"split_axis partitions the index set" ~count:200
    QCheck.(quad (0 -- 3) (1 -- 12) (1 -- 4) (1 -- 5))
    (fun (lb, extent, step, pieces) ->
      let gen =
        Generator.make ~step:[| step; 1 |] ~lb:[| lb; 0 |] ~ub:[| lb + extent; 2 |] ()
      in
      Generator.disjoint_union_is (Generator.split_axis gen ~axis:0 ~pieces) gen)

let qcheck_refine_partitions =
  QCheck.Test.make ~name:"refine_axis_mod partitions the index set" ~count:200
    QCheck.(quad (0 -- 3) (1 -- 15) (1 -- 4) (2 -- 5))
    (fun (lb, extent, step, modulus) ->
      let gen = Generator.make ~step:[| step |] ~lb:[| lb |] ~ub:[| lb + extent |] () in
      let classes =
        List.filter_map
          (fun r -> Generator.refine_axis_mod gen ~axis:0 ~modulus ~residue:r)
          (List.init modulus (fun r -> r))
      in
      Generator.disjoint_union_is classes gen)

(* The closed forms against the enumeration they replace: random
   axes with 1 <= width <= step, empty (ub <= lb) and one-coordinate
   axes among them. *)
let qcheck_closed_forms =
  let axis = QCheck.Gen.(quad (0 -- 4) (-2 -- 12) (1 -- 4) (1 -- 4)) in
  QCheck.Test.make ~name:"axis_count/axis_position/cardinal = axis_positions" ~count:300
    (QCheck.make
       ~print:(fun axes ->
         String.concat " "
           (List.map
              (fun (lb, ext, s, w) -> Printf.sprintf "(lb %d ext %d step %d width %d)" lb ext s w)
              axes))
       QCheck.Gen.(list_size (1 -- 3) axis))
    (fun axes ->
      let axes = List.map (fun (lb, ext, s, w) -> (lb, ext, s, 1 + ((w - 1) mod s))) axes in
      let arr f = Array.of_list (List.map f axes) in
      let gen =
        Generator.make
          ~lb:(arr (fun (lb, _, _, _) -> lb))
          ~ub:(arr (fun (lb, ext, _, _) -> lb + ext))
          ~step:(arr (fun (_, _, s, _) -> s)) ~width:(arr (fun (_, _, _, w) -> w)) ()
      in
      let positions = Array.init (Generator.rank gen) (Generator.axis_positions gen) in
      let enumerated = Array.fold_left (fun acc p -> acc * Array.length p) 1 positions in
      Array.for_all Fun.id
        (Array.mapi
           (fun j p ->
             Generator.axis_count gen j = Array.length p
             && Array.for_all Fun.id
                  (Array.mapi (fun k c -> Generator.axis_position gen j k = c) p))
           positions)
      && Generator.cardinal gen = enumerated
      && Generator.is_empty gen = (enumerated = 0)
      && Generator.cardinal gen = List.length (Generator.to_list gen))

let suite =
  ( "generator",
    [ Alcotest.test_case "full" `Quick test_full;
      Alcotest.test_case "interior" `Quick test_interior;
      Alcotest.test_case "face" `Quick test_face;
      Alcotest.test_case "step/width semantics" `Quick test_step_width_semantics;
      Alcotest.test_case "iter matches mem" `Quick test_iter_matches_mem;
      Alcotest.test_case "empty" `Quick test_empty;
      Alcotest.test_case "restrict_axis" `Quick test_restrict_axis;
      Alcotest.test_case "refine_axis_mod" `Quick test_refine_axis_mod;
      Alcotest.test_case "refinement partitions" `Quick test_refine_partitions;
      Alcotest.test_case "split_axis" `Quick test_split_axis;
      Alcotest.test_case "validation" `Quick test_make_validation;
      QCheck_alcotest.to_alcotest qcheck_split_partitions;
      QCheck_alcotest.to_alcotest qcheck_refine_partitions;
      QCheck_alcotest.to_alcotest qcheck_closed_forms;
    ] )
