open Mg_core

let test_norm2u3 () =
  (* A 2^3 interior with known values inside an extent-4 cube. *)
  let n = 2 in
  let g = Mg_ndarray.Ndarray.create [| 4; 4; 4 |] in
  (* Fill ghosts with garbage that the norm must ignore. *)
  Mg_ndarray.Ndarray.fill g 99.0;
  let idx i3 i2 i1 = ((i3 * 4) + i2) * 4 + i1 in
  let vals = [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0 ] in
  List.iteri
    (fun k v ->
      let i1 = 1 + (k land 1) and i2 = 1 + ((k lsr 1) land 1) and i3 = 1 + (k lsr 2) in
      Mg_ndarray.Ndarray.set_flat g (idx i3 i2 i1) v)
    vals;
  let rnm2, rnmu = Verify.norm2u3 g ~n in
  let sumsq = List.fold_left (fun acc v -> acc +. (v *. v)) 0.0 vals in
  Alcotest.(check (float 1e-12)) "rnm2" (Float.sqrt (sumsq /. 8.0)) rnm2;
  Alcotest.(check (float 1e-12)) "rnmu" 8.0 rnmu

let test_check_verified () =
  let expected = Option.get Classes.class_s.Classes.verify_value in
  (match Verify.check Classes.class_s ~rnm2:(expected *. (1.0 +. 1e-9)) with
  | Verify.Verified err -> Alcotest.(check bool) "tiny error" true (err < 1e-8)
  | s -> Alcotest.failf "expected Verified, got %a" Verify.pp_status s);
  match Verify.check Classes.class_s ~rnm2:(expected *. 1.01) with
  | Verify.Failed _ -> ()
  | s -> Alcotest.failf "expected Failed, got %a" Verify.pp_status s

let test_check_no_reference () =
  Alcotest.(check bool) "custom class" true
    (Verify.check Classes.tiny ~rnm2:1.0 = Verify.No_reference)

let test_at_floor_semantics () =
  let w = Classes.class_w in
  let expected = Option.get w.Classes.verify_value in
  (* Reassociated implementation near the floor: accepted as At_floor. *)
  (match Verify.check ~exact_order:false w ~rnm2:(expected *. 1.3) with
  | Verify.At_floor _ -> ()
  | s -> Alcotest.failf "expected At_floor, got %a" Verify.pp_status s);
  (* Exact-order implementation must match strictly. *)
  (match Verify.check ~exact_order:true w ~rnm2:(expected *. 1.3) with
  | Verify.Failed _ -> ()
  | s -> Alcotest.failf "expected Failed, got %a" Verify.pp_status s);
  (* Diverged runs fail even without exact order. *)
  (match Verify.check ~exact_order:false w ~rnm2:(expected *. 100.0) with
  | Verify.Failed _ -> ()
  | s -> Alcotest.failf "expected Failed, got %a" Verify.pp_status s);
  (* Above the floor threshold the loose path never applies. *)
  match Verify.check ~exact_order:false Classes.class_s
          ~rnm2:(Option.get Classes.class_s.Classes.verify_value *. 1.3)
  with
  | Verify.Failed _ -> ()
  | s -> Alcotest.failf "expected Failed, got %a" Verify.pp_status s

let test_status_ok () =
  Alcotest.(check bool) "verified ok" true (Verify.status_ok (Verify.Verified 0.0));
  Alcotest.(check bool) "floor ok" true (Verify.status_ok (Verify.At_floor 0.1));
  Alcotest.(check bool) "no ref ok" true (Verify.status_ok Verify.No_reference);
  Alcotest.(check bool) "failed not ok" false (Verify.status_ok (Verify.Failed (1.0, 1.0)))

let test_classes_table () =
  Alcotest.(check int) "levels S" 5 (Classes.levels Classes.class_s);
  Alcotest.(check int) "levels A" 8 (Classes.levels Classes.class_a);
  Alcotest.(check int) "extent W" 66 (Classes.extent Classes.class_w);
  Alcotest.(check bool) "B uses S(b)" true (Classes.class_b.Classes.smoother = Classes.Smoother_b);
  Alcotest.(check bool) "S uses S(a)" true (Classes.class_s.Classes.smoother = Classes.Smoother_a);
  Alcotest.(check bool) "lookup" true (Classes.of_string "w128" = Some Classes.class_w128);
  Alcotest.(check bool) "unknown" true (Classes.of_string "zzz" = None)

let test_custom_class_validation () =
  Alcotest.(check bool) "rejects non power of two" true
    (try
       ignore (Classes.make_custom ~name:"x" ~nx:48 ~nit:4);
       false
     with Invalid_argument _ -> true);
  let c = Classes.make_custom ~name:"x" ~nx:16 ~nit:2 in
  Alcotest.(check int) "levels" 4 (Classes.levels c)

(* ------------------------------------------------------------------ *)
(* Golden per-iteration residual norms.                                *)
(*                                                                     *)
(* Frozen as IEEE-754 bit patterns: each implementation must reproduce *)
(* its residual-norm history bitwise, iteration by iteration.  The     *)
(* vectors were captured from a run with the buffer-reuse pass and the *)
(* arena allocator at their defaults (both on); because the suite also *)
(* runs under MG_REUSE=0 and MG_POOLING=0 in CI, a pass here certifies *)
(* that neither aliasing decisions nor the allocator change a single   *)
(* bit of the V-cycle.  The sac vectors were re-captured when the      *)
(* executor's release pass learned to consume the source edges of      *)
(* fused-away nodes: with those edges dead, producers that used to     *)
(* stay pinned become foldable and the linear-form compiler groups a   *)
(* handful of sums differently (a few ULPs over a class-W history).    *)
(* The final class-S entry corresponds to the NAS reference value      *)
(* 0.5307707005734e-04; the final class-W entries sit at the           *)
(* 0.2503914064395e-17 rounding floor.                                 *)
(* ------------------------------------------------------------------ *)

let f77_s =
  [| 0x3f68089dc95bdfd9L; 0x3f44b1684ee92a67L; 0x3f26c1563e3a335dL;
     0x3f0bd3e23d9218cfL |]

let c_s =
  [| 0x3f68089dc95bdfdaL; 0x3f44b1684ee92a69L; 0x3f26c1563e3a3365L;
     0x3f0bd3e23d9218e2L |]

let sac_s =
  [| 0x3f68089dc95bdfd8L; 0x3f44b1684ee92a6cL; 0x3f26c1563e3a3361L;
     0x3f0bd3e23d92191aL |]

let f77_w =
  [| 0x3f50ca760db3dabaL; 0x3f2ca1991ac557f7L; 0x3f0f67a15a2f5495L;
     0x3ef33323656e5923L; 0x3ed8b633a037f57aL; 0x3ec05d61f8dc861aL;
     0x3ea615eafb60b8a5L; 0x3e8e3736f00df723L; 0x3e74e337c01a4444L;
     0x3e5d1f4f953ef081L; 0x3e447159c5601038L; 0x3e2cde2240d33e1cL;
     0x3e147bf46970d3dcL; 0x3dfd3261cbdcdbbeL; 0x3de4e30e8ffaeb4dL;
     0x3dcdfc55e2156267L; 0x3db596e78104714bL; 0x3d9f2c8f6b69d5c1L;
     0x3d8690351f9212dbL; 0x3d705e5a64ff50f0L; 0x3d57ccb451c35f09L;
     0x3d4156149bd63e72L; 0x3d294d84457619f1L; 0x3d127f3332cccbc2L;
     0x3cfb165171e2dddaL; 0x3ce3dd09b1d17adeL; 0x3ccd2d0cfbd92515L;
     0x3cb574e86e498fccL; 0x3c9f9b8b1a1f490dL; 0x3c8758eee996156eL;
     0x3c7188cf4300a007L; 0x3c5cf019aae5faa4L; 0x3c50979e0eae61c2L;
     0x3c499af843889dc8L; 0x3c47c23faeec498aL; 0x3c47cc141a697384L;
     0x3c4776fcb5c412fdL; 0x3c4750dcf3ae88cbL; 0x3c470d3d612c42f3L;
     0x3c4718332e67c92eL |]

let c_w =
  [| 0x3f50ca760db3dabaL; 0x3f2ca1991ac557f9L; 0x3f0f67a15a2f5499L;
     0x3ef33323656e5925L; 0x3ed8b633a037f5a6L; 0x3ec05d61f8dc8629L;
     0x3ea615eafb60b529L; 0x3e8e3736f00dff72L; 0x3e74e337c01a33b9L;
     0x3e5d1f4f953f623dL; 0x3e447159c55fc73dL; 0x3e2cde2240d351feL;
     0x3e147bf4696f5b8dL; 0x3dfd3261cbe3413dL; 0x3de4e30e900b90f3L;
     0x3dcdfc55e1b13655L; 0x3db596e7820d092dL; 0x3d9f2c8f6b9734adL;
     0x3d8690352019aa0bL; 0x3d705e5a61098684L; 0x3d57ccb480690511L;
     0x3d4156146c130f6eL; 0x3d294d82f67d4314L; 0x3d127f371cda6b5dL;
     0x3cfb164d002da380L; 0x3ce3dd12fdf5fa73L; 0x3ccd2d0fc9c330e1L;
     0x3cb574ff065c7522L; 0x3c9f9eaa218fac62L; 0x3c875f5f5406bfc7L;
     0x3c719fba7a53e291L; 0x3c5dd422df5a29dbL; 0x3c516fa90279f31fL;
     0x3c4c238a37096e64L; 0x3c4ab04264dd4517L; 0x3c492049f70ff6e8L;
     0x3c4aacbae3c41a31L; 0x3c4a09a4e3d0f674L; 0x3c49bcde9585a4cbL;
     0x3c49ff88b7a92bf7L |]

let sac_w =
  [| 0x3f50ca760db3dabcL; 0x3f2ca1991ac55802L; 0x3f0f67a15a2f549fL;
     0x3ef33323656e5903L; 0x3ed8b633a037f4dcL; 0x3ec05d61f8dc862cL;
     0x3ea615eafb60b5e8L; 0x3e8e3736f00df8c8L; 0x3e74e337c01a5305L;
     0x3e5d1f4f953f8664L; 0x3e447159c55f776bL; 0x3e2cde2240d206edL;
     0x3e147bf46971cd58L; 0x3dfd3261cbdf8c49L; 0x3de4e30e8fee0786L;
     0x3dcdfc55e1f3a888L; 0x3db596e78274923cL; 0x3d9f2c8f6bf58ca7L;
     0x3d86903519df9a11L; 0x3d705e5a7509ca2aL; 0x3d57ccb42a8e541aL;
     0x3d41561533bb6658L; 0x3d294d82b98c1991L; 0x3d127f3357816cffL;
     0x3cfb165646a8e015L; 0x3ce3dd0842b3aa78L; 0x3ccd2cd98e8a4ddbL;
     0x3cb575362f1187d2L; 0x3c9f9b5681b42c91L; 0x3c87604c111280c3L;
     0x3c71a3d057ae7010L; 0x3c5d4d9b6d8f856fL; 0x3c51ee4fa8cbc0d6L;
     0x3c4d2f03f327a68fL; 0x3c4c04dd1cc40e9bL; 0x3c4b72a66562f6ffL;
     0x3c4b212e9877fd73L; 0x3c4b505d8bd42dffL; 0x3c4af1bc4993377dL;
     0x3c4b8bf6c6cf884dL |]

let check_golden name golden norms =
  Alcotest.(check int) (name ^ ": iteration count") (Array.length golden)
    (Array.length norms);
  Array.iteri
    (fun i bits ->
      let got = Int64.bits_of_float norms.(i) in
      if not (Int64.equal bits got) then
        Alcotest.failf "%s: iteration %d diverged: expected %h (0x%LxL), got %h (0x%LxL)"
          name (i + 1)
          (Int64.float_of_bits bits) bits norms.(i) got)
    golden

let test_golden_s () =
  check_golden "f77/S" f77_s (Mg_f77.residual_norms Classes.class_s);
  check_golden "c/S" c_s (Mg_c.residual_norms Classes.class_s);
  check_golden "sac/S" sac_s (Mg_sac.residual_norms Classes.class_s)

(* Under the debug flag every recycle NaN-poisons its buffer before the
   buffer re-enters its free slot, so a path that read a buffer after
   its last use would turn a norm into NaN or move it off the golden
   bits.  Pooling is forced on: with it off nothing is recycled. *)
let test_golden_s_debug_poison () =
  let open Mg_withloop in
  Wl.with_config (fun c -> { c with Engine.pooling = true }) @@ fun () ->
  let saved = Mempool.get_debug () in
  Mempool.set_debug true;
  Fun.protect ~finally:(fun () -> Mempool.set_debug saved) @@ fun () ->
  check_golden "sac/S under the debug poison" sac_s (Mg_sac.residual_norms Classes.class_s);
  (* [Mg_sac.run]'s final residual is fused differently from the
     per-iteration forces of [residual_norms], so its rnm2 differs from
     the history's last entry in the last bits; this is its O3 value. *)
  let r = Driver.run ~impl:Driver.Sac ~cls:Classes.class_s () in
  Alcotest.(check int64) "sac/S rnm2 under the debug poison" 0x3f0bd3e23d92190aL
    (Int64.bits_of_float r.Driver.rnm2)

let test_golden_w () =
  check_golden "f77/W" f77_w (Mg_f77.residual_norms Classes.class_w);
  check_golden "c/W" c_w (Mg_c.residual_norms Classes.class_w);
  check_golden "sac/W" sac_w (Mg_sac.residual_norms Classes.class_w)

let suite =
  ( "verify",
    [ Alcotest.test_case "norm2u3" `Quick test_norm2u3;
      Alcotest.test_case "check verified/failed" `Quick test_check_verified;
      Alcotest.test_case "check no reference" `Quick test_check_no_reference;
      Alcotest.test_case "at-floor semantics" `Quick test_at_floor_semantics;
      Alcotest.test_case "status_ok" `Quick test_status_ok;
      Alcotest.test_case "classes table" `Quick test_classes_table;
      Alcotest.test_case "custom class validation" `Quick test_custom_class_validation;
      Alcotest.test_case "golden residual norms (class S)" `Quick test_golden_s;
      Alcotest.test_case "golden residual norms under the debug poison (class S)" `Quick
        test_golden_s_debug_poison;
      Alcotest.test_case "golden residual norms (class W)" `Slow test_golden_w;
    ] )
