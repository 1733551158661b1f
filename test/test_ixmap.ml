open Mg_withloop

let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (array int))

let test_identity () =
  let m = Ixmap.identity 3 in
  check_bool "is identity" true (Ixmap.is_identity m);
  check_ints "applies" [| 1; 2; 3 |] (Ixmap.apply m [| 1; 2; 3 |])

let test_offset_scale_divide () =
  check_ints "offset" [| 3; 1 |] (Ixmap.apply (Ixmap.offset [| 2; -1 |]) [| 1; 2 |]);
  check_ints "scale" [| 2; 4 |] (Ixmap.apply (Ixmap.scale 2 2) [| 1; 2 |]);
  check_ints "divide" [| 1; 2 |] (Ixmap.apply (Ixmap.divide 2 2) [| 2; 4 |])

let test_compose_affine () =
  (* outer: iv*2 + 1, inner: iv + 3  =>  2*(iv+3)+1 = 2*iv + 7 *)
  let outer = Ixmap.make ~scale:[| 2 |] ~offset:[| 1 |] 1 in
  let inner = Ixmap.offset [| 3 |] in
  let c = Ixmap.compose ~outer ~inner in
  for x = 0 to 10 do
    check_ints (Printf.sprintf "at %d" x) (Ixmap.apply outer (Ixmap.apply inner [| x |]))
      (Ixmap.apply c [| x |])
  done

let test_compose_with_division () =
  (* inner: iv/2 (exact on evens); outer: iv + 5.  On even inputs the
     composite (iv + 10)/2 must match the two-stage application. *)
  let inner = Ixmap.divide 1 2 in
  let outer = Ixmap.offset [| 5 |] in
  let c = Ixmap.compose ~outer ~inner in
  List.iter
    (fun x ->
      check_ints (Printf.sprintf "at %d" x) (Ixmap.apply outer (Ixmap.apply inner [| x |]))
        (Ixmap.apply c [| x |]))
    [ 0; 2; 4; 8; 100 ]

let test_exact_on () =
  let gen_even = Generator.make ~step:[| 2 |] ~lb:[| 0 |] ~ub:[| 10 |] () in
  let gen_all = Generator.full [| 10 |] in
  let half = Ixmap.divide 1 2 in
  check_bool "exact on evens" true (Ixmap.exact_on half gen_even);
  check_bool "not exact everywhere" false (Ixmap.exact_on half gen_all);
  (* (iv + 1)/2 is exact on odds. *)
  let m = Ixmap.make ~offset:[| 1 |] ~div:[| 2 |] 1 in
  let gen_odd = Generator.make ~step:[| 2 |] ~lb:[| 1 |] ~ub:[| 10 |] () in
  check_bool "shifted exact on odds" true (Ixmap.exact_on m gen_odd);
  check_bool "shifted not exact on evens" false (Ixmap.exact_on m gen_even);
  check_bool "no division always exact" true (Ixmap.exact_on (Ixmap.offset [| -3 |]) gen_all)

let test_apply_axis () =
  (* iv*2 on inputs {1..4} -> 2,4,6,8 *)
  let m = Ixmap.scale 1 2 in
  Alcotest.(check (triple int int int)) "scale image" (2, 8, 2)
    (Ixmap.apply_axis m 0 1, Ixmap.apply_axis m 0 4, Ixmap.axis_stride m 0 1);
  (* (iv)/2 on evens {0,2,...,8} -> 0..4 *)
  let h = Ixmap.divide 1 2 in
  Alcotest.(check (triple int int int)) "divide image" (0, 4, 1)
    (Ixmap.apply_axis h 0 0, Ixmap.apply_axis h 0 8, Ixmap.axis_stride h 0 2)

let test_validation () =
  Alcotest.check_raises "negative scale" (Invalid_argument "Ixmap.make: scale must be >= 0")
    (fun () -> ignore (Ixmap.make ~scale:[| -1 |] 1));
  Alcotest.check_raises "bad div" (Invalid_argument "Ixmap.make: div must be >= 1") (fun () ->
      ignore (Ixmap.make ~div:[| 0 |] 1))

let qcheck_compose_matches_two_stage =
  QCheck.Test.make ~name:"compose = apply o apply (division-free inner)" ~count:500
    QCheck.(
      quad (pair (0 -- 3) (-5 -- 5)) (pair (0 -- 3) (-5 -- 5)) (1 -- 3) (0 -- 20))
    (fun ((so, oo), (si, oi), d, x) ->
      let outer = Ixmap.make ~scale:[| so |] ~offset:[| oo |] ~div:[| d |] 1 in
      let inner = Ixmap.make ~scale:[| si |] ~offset:[| oi |] 1 in
      let c = Ixmap.compose ~outer ~inner in
      (* Composite division exactness must be honoured: only compare
         where the outer division is exact, as the contract demands. *)
      let v = (so * ((si * x) + oi)) + oo in
      QCheck.assume (v >= 0 && v mod d = 0);
      Ixmap.apply c [| x |] = Ixmap.apply outer (Ixmap.apply inner [| x |]))

let suite =
  ( "ixmap",
    [ Alcotest.test_case "identity" `Quick test_identity;
      Alcotest.test_case "offset/scale/divide" `Quick test_offset_scale_divide;
      Alcotest.test_case "compose affine" `Quick test_compose_affine;
      Alcotest.test_case "compose with division" `Quick test_compose_with_division;
      Alcotest.test_case "exact_on" `Quick test_exact_on;
      Alcotest.test_case "apply_axis and axis_stride" `Quick test_apply_axis;
      Alcotest.test_case "validation" `Quick test_validation;
      QCheck_alcotest.to_alcotest qcheck_compose_matches_two_stage;
    ] )
