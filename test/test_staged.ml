(* Staged iterations (Wl.staged): a replayed call is bitwise-equal to
   the unstaged body on the per-force path, in every engine
   configuration; every call that does not replay falls back to that
   path, stays bitwise-equal, and reports its reason; the recorder is
   domain-local; a replay records the same operations as the recorded
   call; and a replayed result is never recomputed. *)

open Mg_ndarray
open Mg_withloop
open Mg_arraylib
open Mg_core
module E = Wl.Expr
module Metrics = Mg_obs.Metrics

let same_bits (a : Ndarray.t) (b : Ndarray.t) =
  Ndarray.shape a = Ndarray.shape b
  &&
  let rec go i =
    i = Ndarray.size a
    || Int64.equal
         (Int64.bits_of_float (Ndarray.get_flat a i))
         (Int64.bits_of_float (Ndarray.get_flat b i))
       && go (i + 1)
  in
  go 0

let check_bits what a b = Alcotest.(check bool) (what ^ " (bitwise)") true (same_bits a b)

(* A copy of a value's buffer, read without escaping. *)
let snapshot t = Wl.read t Ndarray.copy

let grid shp seed =
  let st = Mg_nasrand.Nasrand.make ~seed:(float_of_int (3100 + seed)) () in
  Ndarray.init shp (fun _ -> Mg_nasrand.Nasrand.next st -. 0.5)

(* A materialised, unescaped node holding [a]'s values: the input a
   stepper replays on. *)
let node_of a = Wl.materialize (Ops.add_scalar (Wl.of_ndarray a) 0.0)

(* One MG iteration, Fig. 4. *)
let mg_body ~smoother ~v u =
  let r = Ops.sub v (Mg_sac.resid Stencil.a u) in
  Ops.add u (Mg_sac.v_cycle ~smoother r)

let zero v = Wl.materialize (Ops.genarray_const (Wl.shape v) 0.0)

(* A stepper of one MG iteration whose parameter is [v]. *)
let mg_stepper ~smoother = Wl.staged (fun ps u -> mg_body ~smoother ~v:ps.(0) u)

(* A stepper without parameters. *)
let unary body =
  let step = Wl.staged (fun _ u -> body u) in
  fun u -> step [||] u

(* A fresh single-threaded engine (unless [config] says otherwise)
   whose stage counters the test reads. *)
let with_engine ?(config = fun c -> c) f =
  let e = Engine.create ~config:(config { (Engine.config_of_env ()) with Engine.threads = 1 }) () in
  Fun.protect ~finally:(fun () -> Engine.shutdown e) (fun () -> Engine.with_current e (fun () -> f e))

let replays e =
  Metrics.value (Metrics.counter ~labels:[ ("engine", string_of_int (Engine.label e)) ] "stage.replays")

let fallbacks e reason =
  Metrics.value
    (Metrics.counter
       ~labels:[ ("engine", string_of_int (Engine.label e)); ("reason", reason) ]
       "stage.fallback")

let reasons = [ "unrecorded"; "signature"; "captured"; "opaque"; "closure"; "escape"; "nested" ]

(* The stage counters of [e] as (replays, [reason, count] for the
   reasons that counted). *)
let stage_counts e =
  (replays e, List.filter_map (fun r -> match fallbacks e r with 0 -> None | n -> Some (r, n)) reasons)

let check_counts what e ~replays:n ~fallback =
  let got_n, got_f = stage_counts e in
  Alcotest.(check int) (what ^ ": replays") n got_n;
  Alcotest.(check (list (pair string int))) (what ^ ": fallbacks") fallback got_f

(* The stores the replays of [e] skipped, per Tape.elided_ops kind. *)
let elided e =
  List.map
    (fun op ->
      Metrics.value
        (Metrics.counter ~labels:[ ("engine", string_of_int (Engine.label e)); ("op", op) ] "stage.elided"))
    (Array.to_list Tape.elided_ops)

(* ------------------------------------------------------------------ *)
(* Replay = the per-force path, iteration by iteration.                *)

(* [iters] MG iterations staged and unstaged, side by side: every
   iterate equal bitwise. *)
let staged_matches_unstaged (cls : Classes.t) ~iters =
  let n = cls.Classes.nx in
  let v = Wl.of_ndarray (Zran3.generate ~n) in
  let smoother = Classes.smoother_coeffs cls in
  let step = mg_stepper ~smoother in
  let us = ref (zero v) and uu = ref (zero v) in
  for i = 1 to iters do
    us := step [| v |] !us;
    uu := Wl.materialize (mg_body ~smoother ~v !uu);
    check_bits (Printf.sprintf "%s iterate %d" cls.Classes.name i) (snapshot !uu) (snapshot !us)
  done

let configs =
  [ ("default", fun c -> c);
    ("reuse off", fun c -> { c with Engine.reuse = false });
    ("pooling off", fun c -> { c with Engine.pooling = false });
    ("generic tier", Engine.with_tier Engine.Generic);
    ("O1", fun c -> { c with Engine.opt_level = Engine.O1 });
    ("4 threads", fun c -> { c with Engine.threads = 4 });
    ("3 threads", fun c -> { c with Engine.threads = 3 });
  ]

let test_replay_matches_configs () =
  List.iter
    (fun (name, config) ->
      with_engine ~config (fun e ->
          staged_matches_unstaged Classes.mini ~iters:4;
          check_counts ("mini, " ^ name) e ~replays:3 ~fallback:[ ("unrecorded", 1) ]))
    configs

(* The replays skip their tapes' dead stores (part, save, restore and
   fill counts per tape: 6/2/2/1 at class S, 18/3/3/1 at class W), and
   every iterate, shells included, still equals the unstaged loop's. *)
let test_replay_matches_s () =
  with_engine (fun e ->
      staged_matches_unstaged Classes.class_s ~iters:4;
      check_counts "class S" e ~replays:3 ~fallback:[ ("unrecorded", 1) ];
      Alcotest.(check (list int)) "class S: stage.elided" [ 18; 6; 6; 3 ] (elided e))

let test_replay_matches_w () =
  with_engine (fun e ->
      staged_matches_unstaged Classes.class_w ~iters:6;
      check_counts "class W" e ~replays:5 ~fallback:[ ("unrecorded", 1) ];
      Alcotest.(check (list int)) "class W: stage.elided" [ 90; 15; 15; 5 ] (elided e))

(* The solve path: a class-S solve on a fresh engine replays 3 of its
   4 iterations and a warm one all 4 (the tape outlives the first
   solve), and under the debug poison (every recycled buffer
   NaN-filled, the right-hand side included, the aliasing and loan
   tripwires armed) keeps its rnm2. *)
let test_solve_replays_under_debug () =
  with_engine ~config:(fun c -> { c with Engine.pooling = true }) (fun e ->
      let plain = (Driver.run ~engine:e ~impl:Driver.Sac ~cls:Classes.class_s ()).Driver.rnm2 in
      let saved = Mempool.get_debug () in
      Mempool.set_debug true;
      let poisoned =
        Fun.protect
          ~finally:(fun () -> Mempool.set_debug saved)
          (fun () -> (Driver.run ~engine:e ~impl:Driver.Sac ~cls:Classes.class_s ()).Driver.rnm2)
      in
      Alcotest.(check int64) "rnm2 under the poison" (Int64.bits_of_float plain) (Int64.bits_of_float poisoned);
      check_counts "two class-S solves" e ~replays:7 ~fallback:[ ("unrecorded", 1) ];
      (* Each replay skipped the tape's dead stores (6 shell groups, 2
         loan saves and restores, 1 fill): a shell left stale or
         NaN-poisoned by a wrongly skipped store would have moved rnm2. *)
      Alcotest.(check (list int)) "stage.elided{op} of the 7 replays" [ 42; 14; 14; 7 ] (elided e))

(* A warm solve returns every buffer it draws, the final residual
   included, so it draws nothing from the OS. *)
let test_warm_solve_allocates_nothing () =
  with_engine ~config:(fun c -> { c with Engine.pooling = true }) (fun e ->
      let alloc () =
        Metrics.value
          (Metrics.counter ~labels:[ ("engine", string_of_int (Engine.label e)) ] "mempool.alloc_bytes")
      in
      ignore (Driver.run ~engine:e ~impl:Driver.Sac ~cls:Classes.class_s ());
      let before = alloc () in
      ignore (Driver.run ~engine:e ~impl:Driver.Sac ~cls:Classes.class_s ());
      Alcotest.(check int) "bytes drawn from the OS by a warm class-S solve" 0 (alloc () - before))

(* ------------------------------------------------------------------ *)
(* Fallbacks: each stays bitwise-equal to the unstaged body and counts
   its reason.                                                         *)

let shp = [| 10; 10; 10 |]

(* Run [body] staged on the inputs in turn, each against the unstaged
   body on an equal input. *)
let run_both body inputs =
  let step = unary body in
  List.iteri
    (fun i a ->
      let staged = snapshot (step (node_of a)) in
      let unstaged = snapshot (Wl.materialize (body (node_of a))) in
      check_bits (Printf.sprintf "call %d" (i + 1)) unstaged staged)
    inputs

let smooth_body u = Ops.add u (Mg_sac.smooth Stencil.s_a u)

let test_fallback_shape () =
  with_engine (fun e ->
      let small = grid shp 1 and big = grid [| 18; 18; 18 |] 2 in
      run_both smooth_body [ small; small; big; big ];
      check_counts "a new shape" e ~replays:2 ~fallback:[ ("unrecorded", 1); ("signature", 1) ])

let test_fallback_outside_consumer () =
  with_engine (fun e ->
      let step = unary smooth_body in
      let a = grid shp 3 in
      ignore (step (node_of a));
      (* The input has a consumer outside the body: the body must not
         release or overwrite it. *)
      let u = node_of a in
      let outside = Ops.mul_scalar u 2.0 in
      let staged = snapshot (step u) in
      check_bits "the call" (snapshot (Wl.materialize (smooth_body (node_of a)))) staged;
      check_bits "the outside consumer" (Ndarray.map (fun x -> x *. 2.0) a) (snapshot outside);
      check_counts "an outside consumer" e ~replays:0 ~fallback:[ ("unrecorded", 1); ("signature", 1) ])

let test_fallback_config () =
  with_engine (fun e ->
      let a = grid shp 4 in
      let step = unary smooth_body in
      let call () = snapshot (step (node_of a)) in
      let first = call () in
      check_bits "replayed" first (call ());
      check_bits "under another config"
        first
        (Wl.with_config (fun c -> { c with Engine.reuse = not c.Engine.reuse }) call);
      (* The first configuration's tape is still in the cache. *)
      check_bits "back under the first" first (call ());
      check_counts "Wl.with_config between calls" e ~replays:2
        ~fallback:[ ("unrecorded", 1); ("signature", 1) ])

let check_refused reason body =
  with_engine (fun e ->
      run_both body [ grid shp 5; grid shp 6 ];
      check_counts reason e ~replays:0 ~fallback:[ (reason, 2) ])

let test_fallback_captured () =
  let w = Wl.materialize (Ops.add_scalar (Wl.of_ndarray (grid shp 7)) 1.0) in
  (* An outside consumer keeps [w] materialised across the calls. *)
  let _keep = Ops.neg w in
  check_refused "captured" (fun u -> Ops.add u w)

let test_fallback_force () =
  check_refused "escape" (fun u ->
      let c = Wl.force (Ops.genarray_const shp 0.5) in
      Ops.add u (Wl.of_ndarray c))

let test_fallback_fold () =
  check_refused "escape" (fun u ->
      let s = Wl.fold ~op:Exec.Fadd ~neutral:0.0 (Generator.full shp) (E.const 0.25) in
      Ops.add_scalar u s)

let test_fallback_opaque () =
  check_refused "opaque" (fun u ->
      Wl.genarray shp [ (Generator.full shp, E.(read u + of_fun (fun iv -> float_of_int iv.(0)))) ])

let test_fallback_closure () =
  check_refused "closure" (fun u -> Wl.genarray shp [ (Generator.full shp, E.(read u * read u)) ])

let test_fallback_nested () =
  with_engine (fun e ->
      let inner = unary (fun u -> Ops.add_scalar u 1.0) in
      run_both
        (fun u -> Ops.add (inner (Ops.mul_scalar u 3.0)) u)
        [ grid shp 8; grid shp 9 ];
      (* The inner stepper runs inside the outer's recording (nested),
         and its force refuses that recording (escape); called by the
         unstaged body, its input is no buffer (signature). *)
      check_counts "nested steppers" e ~replays:0
        ~fallback:[ ("signature", 2); ("escape", 2); ("nested", 2) ])

let test_fallback_captured_array () =
  let c = Wl.of_ndarray (grid shp 15) in
  check_refused "captured" (fun u -> Ops.add u c)

(* Parameters the body writes: one it consumes, whose buffer is the
   first dying operand of the sum, so the per-force path writes the sum
   through it; and one it lends to a border (an outside consumer keeps
   it materialised), whose ghost shell the border overwrites until the
   loan ends.  The per-force path may; a tape may not, since the next
   call binds another parameter. *)
let test_fallback_param_written () =
  List.iter
    (fun (what, keep, body) ->
      with_engine (fun e ->
          let step = Wl.staged body in
          let param b =
            let p = node_of b in
            if keep then ignore (Ops.neg p);
            p
          in
          List.iter
            (fun k ->
              let a = grid shp k and b = grid shp (k + 1) in
              let staged = snapshot (step [| param b |] (node_of a)) in
              let unstaged = snapshot (Wl.materialize (body [| param b |] (node_of a))) in
              check_bits (Printf.sprintf "%s, call with seed %d" what k) unstaged staged)
            [ 11; 13 ];
          check_counts what e ~replays:0 ~fallback:[ ("captured", 2) ]))
    [ ("a parameter consumed", false, fun ps u -> Ops.add ps.(0) (Ops.mul_scalar u 2.0));
      ("a parameter lent", true, fun ps u -> Ops.add u (Border.setup_periodic_border ps.(0)));
    ]

(* A body that raises while recording stores no tape; the next call
   records and the one after replays, both bitwise. *)
let test_raise_while_recording () =
  with_engine (fun e ->
      let boom = ref true in
      let body u =
        let r = smooth_body u in
        if !boom then begin
          boom := false;
          failwith "boom"
        end;
        r
      in
      let step = unary body in
      let u = node_of (grid shp 16) in
      let before = Engine.cache_length e in
      (match step u with
      | _ -> Alcotest.fail "the body did not raise"
      | exception Failure _ -> ());
      Alcotest.(check int) "no tape stored" before (Engine.cache_length e);
      List.iter
        (fun k ->
          let staged = snapshot (step (node_of (grid shp k))) in
          check_bits (Printf.sprintf "call with seed %d" k)
            (snapshot (Wl.materialize (smooth_body (node_of (grid shp k)))))
            staged)
        [ 17; 18 ];
      check_counts "after a raise" e ~replays:1 ~fallback:[ ("unrecorded", 1) ])

(* ------------------------------------------------------------------ *)
(* Tape signatures (qcheck).  Two calls of one stepper differ in one
   part of the signature — a parameter's shape and strides, its leaf
   flag, a parameter aliasing the input, reuse, pooling, the tier or
   the plan-cache instance — or in none; a third call is like the
   first.  The second call replays only when nothing differs, and the
   third always: tapes of several signatures live side by side.  Every
   result is bitwise equal to the unstaged body on a fresh engine.
   Ndarray strides are row-major, so they change with the shape:
   [11;10;10] keeps [10;10;10]'s strides, [10;11;10] and [10;10;12] do
   not. *)

type call = {
  pshape : int;
  leaf : bool;
  alias : bool;
  reuse : bool;
  pooling : bool;
  generic : bool;
  cache : int;
}

let pshapes = [| [| 10; 10; 10 |]; [| 11; 10; 10 |]; [| 10; 11; 10 |]; [| 10; 10; 12 |] |]
let variants = [ "none"; "shape"; "leaf"; "alias"; "reuse"; "pooling"; "tier"; "cache" ]

let vary c = function
  | "shape" -> { c with pshape = (c.pshape + 1) mod Array.length pshapes }
  | "leaf" -> { c with leaf = not c.leaf }
  | "alias" -> { c with alias = true }
  | "reuse" -> { c with reuse = not c.reuse }
  | "pooling" -> { c with pooling = not c.pooling }
  | "tier" -> { c with generic = not c.generic }
  | "cache" -> { c with cache = 1 - c.cache }
  | _ -> c

let config_of c conf =
  Engine.with_tier
    (if c.generic then Engine.Generic else Engine.Cfun)
    { conf with Engine.reuse = c.reuse; pooling = c.pooling; threads = 1 }

let sig_body ps u =
  Ops.add u (Mg_sac.smooth Stencil.s_a (Ops.sub u (Select.take (Wl.shape u) ps.(0))))

(* The bound sources of a call with seed [k]: a parameter node keeps an
   outside consumer, so the body does not release it; an aliasing
   parameter is a leaf array over the input's buffer. *)
let bind c k =
  let u = node_of (grid shp k) in
  if c.alias then ([| Wl.of_ndarray (Wl.read u Fun.id) |], u)
  else
    let b = grid pshapes.(c.pshape) (k + 50) in
    if c.leaf then ([| Wl.of_ndarray b |], u)
    else begin
      let p = node_of b in
      ignore (Ops.neg p);
      ([| p |], u)
    end

let unstaged c k =
  let e = Engine.create ~config:(config_of c (Engine.config_of_env ())) () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown e)
    (fun () ->
      Engine.with_current e (fun () ->
          let ps, u = bind c k in
          snapshot (Wl.materialize (sig_body ps u))))

let show_call c =
  Printf.sprintf "{param %s%s%s; reuse %b; pooling %b; %s; cache %d}"
    (Shape.to_string pshapes.(c.pshape))
    (if c.leaf then " leaf" else " node")
    (if c.alias then " = input" else "")
    c.reuse c.pooling
    (if c.generic then "generic" else "cfun")
    c.cache

let signature_arb =
  let open QCheck.Gen in
  let base =
    map
      (fun (pshape, leaf, reuse, pooling, generic, cache) ->
        { pshape; leaf; alias = false; reuse; pooling; generic; cache })
      (tup6 (int_bound 3) bool bool bool bool (int_bound 1))
  in
  (* An aliasing parameter differs from a leaf of the input's shape in
     its aliasing only. *)
  let first (c, v) = if v = "alias" then ({ c with leaf = true; pshape = 0 }, v) else (c, v) in
  QCheck.make
    ~print:(fun (c, v) -> Printf.sprintf "%s, then %s" (show_call c) v)
    (map first (pair base (oneofl variants)))

let signature_prop (first, variant) =
  let engines =
    Array.init 2 (fun _ -> Engine.create ~config:(config_of first (Engine.config_of_env ())) ())
  in
  Fun.protect
    ~finally:(fun () -> Array.iter Engine.shutdown engines)
    (fun () ->
      let step = Wl.staged sig_body in
      let total f = f engines.(0) + f engines.(1) in
      let call c k =
        let before = total replays and recorded = total (fun e -> fallbacks e "unrecorded") in
        let r =
          Engine.with_current
            (Engine.derive engines.(c.cache) (config_of c))
            (fun () ->
              let ps, u = bind c k in
              snapshot (step ps u))
        in
        (r, total replays - before, total (fun e -> fallbacks e "unrecorded") - recorded)
      in
      let second = vary first variant in
      let r1, n1, stored = call first 1 in
      let r2, n2, _ = call second 2 in
      let r3, n3, _ = call first 3 in
      (n1, stored, n2, n3) = (0, 1, (if variant = "none" then 1 else 0), 1)
      && same_bits (unstaged first 1) r1
      && same_bits (unstaged second 2) r2
      && same_bits (unstaged first 3) r3)

let qcheck_signatures =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"tape replays iff the signature is equal" signature_arb
       signature_prop)

(* ------------------------------------------------------------------ *)
(* The recorder is domain-local: two domains record and replay at once,
   each bitwise-equal to its sequential run. *)

let test_two_domains () =
  let solve () =
    with_engine (fun e ->
        let cls = Classes.mini in
        let v = Wl.of_ndarray (Zran3.generate ~n:cls.Classes.nx) in
        let step = mg_stepper ~smoother:(Classes.smoother_coeffs cls) in
        let u = ref (zero v) in
        for _ = 1 to 6 do
          u := step [| v |] !u
        done;
        (snapshot !u, stage_counts e))
  in
  let seq, _ = solve () in
  let da = Domain.spawn solve and db = Domain.spawn solve in
  let a, ca = Domain.join da and b, cb = Domain.join db in
  check_bits "domain A" seq a;
  check_bits "domain B" seq b;
  List.iter
    (fun (what, c) ->
      Alcotest.(check (pair int (list (pair string int)))) what (5, [ ("unrecorded", 1) ]) c)
    [ ("domain A counts", ca); ("domain B counts", cb) ]

(* ------------------------------------------------------------------ *)
(* Observation: a replayed iteration records the recorded iteration's
   operations, and tracing does not change which path runs. *)

let test_traced_iterations () =
  List.iter
    (fun (name, config) ->
      with_engine ~config (fun e ->
          let cls = Classes.class_s in
          let v = Wl.of_ndarray (Zran3.generate ~n:cls.Classes.nx) in
          let step = mg_stepper ~smoother:(Classes.smoother_coeffs cls) in
          let u = ref (zero v) in
          let per_iteration =
            List.init cls.Classes.nit (fun _ ->
                let ops, () =
                  Mg_smp.Smp_sim.traced (Mg_obs.Scope.make ~engine_id:0 ()) (fun () ->
                      u := step [| v |] !u)
                in
                List.map
                  (fun (op : Mg_smp.Smp_sim.op) ->
                    (op.Mg_smp.Smp_sim.tag, op.elements, op.extent, op.bytes))
                  ops)
          in
          let first = List.hd per_iteration in
          Alcotest.(check bool) (name ^ ": the recorded iteration emitted events") true (first <> []);
          List.iteri
            (fun i evs ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: iteration %d emits the recorded events" name (i + 2))
                true (evs = first))
            (List.tl per_iteration);
          check_counts name e ~replays:3 ~fallback:[ ("unrecorded", 1) ]))
    [ ("1 thread", fun c -> c); ("4 threads", fun c -> { c with Engine.threads = 4 }) ]

(* ------------------------------------------------------------------ *)
(* A replayed result has no graph behind it: once a consumer released
   its buffer, forcing it again raises instead of reading stale or
   zeroed data. *)

let test_result_not_recomputed () =
  with_engine (fun _ ->
      let step = unary smooth_body in
      let a = grid shp 10 in
      ignore (step (node_of a));
      let u = step (node_of a) in
      ignore (Wl.read (Ops.neg u) Ndarray.copy);
      match Wl.read (Ops.neg u) Ndarray.copy with
      | _ -> Alcotest.fail "a released staged result was recomputed"
      | exception Invalid_argument _ -> ())

let suite =
  ( "staged",
    [ Alcotest.test_case "replay = per-force path across configurations" `Quick
        test_replay_matches_configs;
      Alcotest.test_case "replay = per-force path (class S)" `Quick test_replay_matches_s;
      Alcotest.test_case "replay = per-force path (class W)" `Slow test_replay_matches_w;
      Alcotest.test_case "solve replays under the debug poison" `Quick test_solve_replays_under_debug;
      Alcotest.test_case "warm class-S solve allocates nothing" `Quick test_warm_solve_allocates_nothing;
      Alcotest.test_case "fallback: a new shape" `Quick test_fallback_shape;
      Alcotest.test_case "fallback: an outside consumer" `Quick test_fallback_outside_consumer;
      Alcotest.test_case "fallback: with_config between calls" `Quick test_fallback_config;
      Alcotest.test_case "fallback: a captured materialised node" `Quick test_fallback_captured;
      Alcotest.test_case "fallback: force in the body" `Quick test_fallback_force;
      Alcotest.test_case "fallback: fold in the body" `Quick test_fallback_fold;
      Alcotest.test_case "fallback: opaque body" `Quick test_fallback_opaque;
      Alcotest.test_case "fallback: closure part" `Quick test_fallback_closure;
      Alcotest.test_case "fallback: nested steppers" `Quick test_fallback_nested;
      Alcotest.test_case "fallback: a captured array" `Quick test_fallback_captured_array;
      Alcotest.test_case "fallback: a parameter written" `Quick test_fallback_param_written;
      Alcotest.test_case "a raise while recording stores no tape" `Quick test_raise_while_recording;
      qcheck_signatures;
      Alcotest.test_case "two domains stepping at once" `Quick test_two_domains;
      Alcotest.test_case "traced iterations emit the recorded events" `Quick test_traced_iterations;
      Alcotest.test_case "a replayed result is never recomputed" `Quick test_result_not_recomputed;
    ] )
