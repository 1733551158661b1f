(* The tape liveness pass (Plan.prune): a recorded tape drops the
   stores no later op reads — ghost-shell writes a border overwrites,
   loan saves and restores whose shell is dead, fills overwritten
   before any read — and keeps every store something reads: a shell a
   later stencil reads, a restored shell, the result's and the
   handed-back input's.  Every replay stays bitwise equal to the
   unstaged body, and the stage.elided counters count what each replay
   skipped. *)

open Mg_ndarray
open Mg_withloop
open Mg_arraylib
open Mg_core
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
let snapshot t = Wl.read t Ndarray.copy

let grid shp seed =
  let st = Mg_nasrand.Nasrand.make ~seed:(float_of_int (4100 + seed)) () in
  Ndarray.init shp (fun _ -> Mg_nasrand.Nasrand.next st -. 0.5)

let node_of a = Wl.materialize (Ops.add_scalar (Wl.of_ndarray a) 0.0)
let shp = [| 10; 10; 10 |]
let border = Border.setup_periodic_border
let relax = Mg_sac.relax_kernel

let with_engine ?(config = fun c -> c) f =
  let e = Engine.create ~config:(config { (Engine.config_of_env ()) with Engine.threads = 1 }) () in
  Fun.protect ~finally:(fun () -> Engine.shutdown e) (fun () -> Engine.with_current e (fun () -> f e))

let engine_counter e name labels =
  Metrics.value (Metrics.counter ~labels:(("engine", string_of_int (Engine.label e)) :: labels) name)

(* The stage.elided counts of [e], in Plan.elided_ops order. *)
let elided e =
  List.map
    (fun op -> (op, engine_counter e "stage.elided" [ ("op", op) ]))
    (Array.to_list Plan.elided_ops)

let check_elided what e expected =
  Alcotest.(check (list (pair string int)))
    (what ^ ": stage.elided")
    (List.combine (Array.to_list Plan.elided_ops) expected)
    (elided e)

(* The stored tape of [e]'s only stepper. *)
let tape e =
  let found = ref None in
  ignore
    (Plan_cache.exists (Engine.cache e) (function
      | Plan.Taped t ->
          found := Some t;
          true
      | _ -> false));
  Option.get !found

let count_ops p (t : Plan.tape) =
  Array.fold_left (fun acc op -> if p op then acc + 1 else acc) 0 t.Plan.tops

(* Three calls of [body] staged — one recorded, two replayed — each
   against the unstaged body on an equal input. *)
let run_staged body =
  let step = Wl.staged (fun _ u -> body u) in
  List.iter
    (fun k ->
      let staged = snapshot (step [||] (node_of (grid shp k))) in
      let unstaged = snapshot (Wl.materialize (body (node_of (grid shp k)))) in
      check_bits (Printf.sprintf "call with seed %d" k) unstaged staged)
    [ 1; 2; 3 ]

(* x = A·border(u); border(x) takes x's buffer (x has no other reader)
   and rewrites its shell before anything reads it, so the shell group
   of x is dead.  The input's loan to its border is saved but never
   restored (the input dies first): the save is dead too. *)
let test_steal_shell_elided () =
  with_engine (fun e ->
      run_staged (fun u -> relax Stencil.s_a (border (relax Stencil.a (border u))));
      check_elided "2 replays" e [ 2; 2; 0; 0 ])

(* x's shell is read by a stencil on x itself, and x is lent to its
   border meanwhile: the shell group of x and the loan's save and
   restore stay.  (Here and below the input's own loan to its border
   is saved and never restored: one dead save per replay.) *)
let test_read_shell_kept () =
  with_engine (fun e ->
      run_staged (fun u ->
          let x = relax Stencil.a (border u) in
          Ops.add (relax Stencil.s_a (border x)) (relax Stencil.s_a x));
      let t = tape e in
      Alcotest.(check int)
        "saves kept" 1
        (count_ops (function Plan.Save_shell _ -> true | _ -> false) t);
      Alcotest.(check int)
        "restores kept" 1
        (count_ops (function Plan.Restore_shell _ -> true | _ -> false) t);
      check_elided "2 replays" e [ 0; 2; 0; 0 ])

(* The result's shell is written by a shell group nothing in the body
   reads: it stays, with every part of the result's force. *)
let test_result_shell_kept () =
  with_engine (fun e ->
      run_staged (fun u -> relax Stencil.s_a (border u));
      let t = tape e in
      let result_parts =
        Array.fold_left
          (fun acc op ->
            match op with
            | Plan.Run (o, parts) when o = t.Plan.tresult -> Array.length parts
            | _ -> acc)
          0 t.Plan.tops
      in
      Alcotest.(check int) "the result's interior and shell parts" 2 result_parts;
      check_elided "2 replays" e [ 0; 2; 0; 0 ])

(* An input with a consumer outside the body is handed back: its loan
   to the body's border must restore its shell although nothing in the
   body reads it afterwards. *)
let test_handed_back_shell_kept () =
  with_engine (fun e ->
      let body u = Mg_sac.smooth Stencil.s_a u in
      let step = Wl.staged (fun _ u -> body u) in
      List.iter
        (fun k ->
          let a = grid shp k in
          let u = node_of a in
          let outside = Ops.mul_scalar u 2.0 in
          let staged = snapshot (step [||] u) in
          check_bits (Printf.sprintf "call with seed %d" k)
            (snapshot (Wl.materialize (body (node_of a))))
            staged;
          check_bits (Printf.sprintf "the outside consumer, seed %d" k)
            (Ndarray.map (fun x -> x *. 2.0) a)
            (snapshot outside))
        [ 1; 2; 3 ];
      let t = tape e in
      Alcotest.(check (option int)) "the input is handed back" (Some 0) t.Plan.tinput;
      Alcotest.(check int)
        "its restore is kept" 1
        (count_ops (function Plan.Restore_shell (0, _) -> true | _ -> false) t);
      check_elided "2 replays" e [ 0; 0; 0; 0 ])

(* A partial genarray's default fill whose interior the embedded part
   covers and whose shell a stolen border rewrites is dead. *)
let test_dead_fill_elided () =
  with_engine (fun e ->
      run_staged (fun u ->
          let c = Select.condense 2 (border u) in
          relax Stencil.s_a (border (Select.embed [| 6; 6; 6 |] [| 0; 0; 0 |] c)));
      Alcotest.(check int)
        "no fill left" 0
        (count_ops (function Plan.Fill _ -> true | _ -> false) (tape e));
      check_elided "2 replays" e [ 0; 2; 0; 2 ])

(* x = A·border(u) is stolen by its border, whose walk fills the shell
   from x's interior; the result reads only that shell.  x's interior
   is live through the walk's read alone, so x's interior part stays
   (its shell part is dead: the walk rewrites it). *)
let test_walk_reads_interior () =
  with_engine (fun e ->
      let slabs =
        let n = shp.(0) in
        List.concat_map
          (fun j ->
            List.map
              (fun at ->
                Generator.make
                  ~lb:(Array.init 3 (fun i -> if i = j then at else if i < j then 1 else 0))
                  ~ub:(Array.init 3 (fun i -> if i = j then at + 1 else if i < j then n - 1 else n))
                  ())
              [ 0; n - 1 ])
          [ 0; 1; 2 ]
      in
      run_staged (fun u ->
          let b = border (relax Stencil.a (border u)) in
          Wl.genarray shp
            ((Generator.interior shp 1, Wl.Expr.const 1.0)
            :: List.map (fun g -> (g, Wl.Expr.read b)) slabs));
      let t = tape e in
      let walk ((cp : Plan.cpart), _) = Plan.is_border (Plan.Ccompiled cp) in
      Alcotest.(check int)
        "walks kept" 2
        (count_ops (function Plan.Run (_, parts) -> Array.exists walk parts | _ -> false) t);
      check_elided "2 replays" e [ 2; 2; 0; 0 ])

(* ------------------------------------------------------------------ *)
(* MG: per replayed iteration, class S elides 6 shell groups, 2 loan
   saves and restores and the coarse embed's fill; class W 9 groups and
   one whole force, 3 saves and restores and 2 fills.  A fresh engine
   records iteration 1 and replays the rest. *)

let test_mg_counts () =
  List.iter
    (fun ((cls : Classes.t), per_tape) ->
      with_engine (fun e ->
          let r = Driver.run ~engine:e ~impl:Driver.Sac ~cls () in
          Alcotest.(check bool)
            (cls.Classes.name ^ " verified")
            true
            (Verify.status_ok r.Driver.status);
          let replays = cls.Classes.nit - 1 in
          check_elided cls.Classes.name e (List.map (fun n -> replays * n) per_tape)))
    [ (Classes.class_s, [ 6; 2; 2; 1 ]); (Classes.class_w, [ 10; 3; 3; 2 ]) ]

let suite =
  ( "tape_liveness",
    [ Alcotest.test_case "a shell a steal border rewrites is elided" `Quick test_steal_shell_elided;
      Alcotest.test_case "a shell a later stencil reads is kept" `Quick test_read_shell_kept;
      Alcotest.test_case "the result's shell is kept" `Quick test_result_shell_kept;
      Alcotest.test_case "the handed-back input's shell is kept" `Quick test_handed_back_shell_kept;
      Alcotest.test_case "a fill overwritten before any read is elided" `Quick test_dead_fill_elided;
      Alcotest.test_case "a walk keeps the interior it reads" `Quick test_walk_reads_interior;
      Alcotest.test_case "MG tapes elide (classes S and W)" `Quick test_mg_counts;
    ] )
